"""The view web: every view of a trace, linked through trace indices.

The web is *lazy and columnar*.  It reads the trace's
:class:`~repro.core.columns.ViewColumns` — the thread, method, target
and active-object key of every position — and never builds an entry to
do so: on a v3-loaded trace those columns come straight from the
decoder, so a stored diff builds only the entries it reports (its
difference sequences) and the rare fork entries whose payload carries a
thread's spawn ancestry.  Views of a type are materialised only when
something asks for that type — one pass over that type's key column,
each view storing its member positions as an ``array('I')`` column —
and the per-object / per-thread correlation metadata of Sec. 3.1 is
gathered on first access from the target column and the fork positions.
A diff that never explores, say, active-object views never pays for
building them; ``built_view_types()`` exposes what has actually been
materialised (the laziness contract the tests pin down).
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass

from repro.core.columns import FORK_CODE, INIT_CODE, kind_positions
from repro.core.entries import TraceEntry
from repro.core.events import StackFrame
from repro.core.traces import Trace
from repro.core.values import ValueRep
from repro.core.views import COLUMN_KEYS, View, ViewName, ViewType, view_names


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Correlation-relevant facts about one object in one trace."""

    location: int
    class_name: str
    creation_seq: int | None
    serialization: object
    init_eid: int | None


@dataclass(frozen=True, slots=True)
class ThreadInfo:
    """Correlation-relevant facts about one thread in one trace."""

    tid: int
    #: Spawn ancestry captured by the fork event that created this thread
    #: (empty for the main thread).
    ancestry: tuple[tuple[StackFrame, ...], ...]
    fork_eid: int | None


class ViewWeb:
    """All views of a single trace, plus object/thread metadata.

    Views materialise per type on first demand; ``objects`` / ``threads``
    materialise together on first access.  All public accessors behave
    exactly as they did when construction was eager.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self._views: dict[ViewName, View] = {}
        #: Per-type raw-key lookup tables (``kappa -> View``), one per
        #: materialised type.  The hot paths go through these: hashing a
        #: tid/method/location is much cheaper than hashing a ViewName.
        self._typed: dict[ViewType, dict] = {}
        self._objects: dict[int, ObjectInfo] | None = None
        self._threads: dict[int, ThreadInfo] | None = None
        # Lazy builds are guarded so concurrent thread-pair evaluations
        # (the parallel diff execution phase) materialise each view
        # type exactly once — View identity matters downstream (the
        # window-key caches token views by id()).
        self._build_lock = threading.RLock()

    @property
    def columns(self):
        """The trace's :class:`~repro.core.columns.ViewColumns`."""
        return self.trace.view_columns()

    # -- lazy construction -------------------------------------------------

    def built_view_types(self) -> frozenset[ViewType]:
        """The view types materialised so far (laziness introspection)."""
        return frozenset(self._typed)

    def typed_views(self, vtype: ViewType) -> dict:
        """The ``kappa -> View`` table of one view type, built on first
        demand."""
        typed = self._typed.get(vtype)
        if typed is not None:
            return typed
        with self._build_lock:
            return self._build_type(vtype)

    def _build_type(self, vtype: ViewType) -> dict:
        typed = self._typed.get(vtype)
        if typed is not None:  # raced: another thread built it first
            return typed
        if vtype not in COLUMN_KEYS:
            raise ValueError(f"unknown view type: {vtype!r}")
        # Group positions by key, in order of first appearance, noting
        # each position's offset inside its view as it goes.
        groups: dict[object, array] = {}
        get = groups.get
        keys = COLUMN_KEYS[vtype](self.columns)
        offsets = array("I", [0]) * len(keys)
        for position, key in enumerate(keys):
            column = get(key)
            if column is None:
                groups[key] = column = array("I")
            offsets[position] = len(column)
            column.append(position)
        groups.pop(None, None)  # the bottom case: no view of this type
        typed = {}
        for key, column in groups.items():
            name = ViewName(vtype, key)
            typed[key] = self._views[name] = View(name, self.trace, column,
                                                  offsets)
        self._typed[vtype] = typed
        return typed

    def _ensure_all(self) -> None:
        for vtype in ViewType:
            self.typed_views(vtype)

    @property
    def objects(self) -> dict[int, ObjectInfo]:
        if self._objects is None:
            self._build_metadata()
        return self._objects

    @property
    def threads(self) -> dict[int, ThreadInfo]:
        if self._threads is None:
            self._build_metadata()
        return self._threads

    def _build_metadata(self) -> None:
        with self._build_lock:
            if self._objects is not None:  # raced: already built
                return
            self._build_metadata_locked()

    def _build_metadata_locked(self) -> None:
        columns = self.columns
        # Each object is described by the first entry that targets it
        # (its init, when the trace saw the creation).
        objects: dict[int, ObjectInfo] = {}
        targets = columns.targets
        for location, position in targets.first_positions():
            rep = columns.rep_of(targets.ids[position])
            objects[location] = ObjectInfo(
                location=location,
                class_name=rep.class_name,
                creation_seq=rep.creation_seq,
                serialization=rep.serialization,
                init_eid=(columns.eids[position]
                          if columns.kinds[position] == INIT_CODE
                          else None))
        # Only fork entries are built: their payload is the ancestry.
        threads: dict[int, ThreadInfo] = {}
        entries = self.trace.entries
        for position in kind_positions(columns.kinds, FORK_CODE):
            entry = entries[position]
            threads[entry.event.child_tid] = ThreadInfo(
                tid=entry.event.child_tid,
                ancestry=entry.event.ancestry,
                fork_eid=entry.eid)
        # Threads that never appear in a fork event (e.g. the main thread)
        # still deserve ThreadInfo records.
        for tid in self.trace.thread_ids():
            if tid not in threads:
                threads[tid] = ThreadInfo(tid=tid, ancestry=(),
                                          fork_eid=None)
        self._objects = objects
        self._threads = threads

    # -- lookup -----------------------------------------------------------

    def view(self, name: ViewName) -> View | None:
        return self.typed_views(name.vtype).get(name.key)

    def typed_view(self, vtype: ViewType, key) -> View | None:
        """Raw-key lookup (``<chi, kappa>`` without a ViewName object)."""
        return self.typed_views(vtype).get(key)

    def views_of_type(self, vtype: ViewType) -> list[View]:
        return list(self.typed_views(vtype).values())

    def view_names_of_type(self, vtype: ViewType) -> list[ViewName]:
        return [view.name for view in self.typed_views(vtype).values()]

    def all_views(self) -> list[View]:
        self._ensure_all()
        return list(self._views.values())

    def thread_view(self, tid: int) -> View | None:
        return self.typed_view(ViewType.THREAD, tid)

    def method_view(self, method: str) -> View | None:
        return self.typed_view(ViewType.METHOD, method)

    def target_object_view(self, location: int) -> View | None:
        return self.typed_view(ViewType.TARGET_OBJECT, location)

    def active_object_view(self, location: int) -> View | None:
        return self.typed_view(ViewType.ACTIVE_OBJECT, location)

    def views_of_entry(self, entry: TraceEntry) -> list[View]:
        """Navigate the web: all views an entry belongs to (Sec. 2.4)."""
        found = []
        for name in view_names(entry):
            view = self.view(name)
            if view is not None:
                found.append(view)
        return found

    def object_info(self, rep: ValueRep) -> ObjectInfo | None:
        if rep.location is None:
            return None
        return self.objects.get(rep.location)

    # -- statistics (Table 2) ----------------------------------------------

    def counts(self) -> dict[str, int]:
        """View counts in the shape of the paper's Table 2."""
        self._ensure_all()
        by_type = {vtype: 0 for vtype in ViewType}
        for name in self._views:
            by_type[name.vtype] += 1
        return {
            "total": len(self._views),
            "thread": by_type[ViewType.THREAD],
            "method": by_type[ViewType.METHOD],
            "target_object": by_type[ViewType.TARGET_OBJECT],
            "active_object": by_type[ViewType.ACTIVE_OBJECT],
        }
