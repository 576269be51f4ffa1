"""Semantic views: the trace abstraction of Sec. 2.4 and Fig. 7.

A *view* is a named projection over a trace.  Each trace entry is mapped to
a set of view names by the per-type mapping functions ``nu_chi``:

* ``TH`` (thread views): one view per thread id; an entry belongs to the
  view of the thread it executed on.
* ``CM`` (method views): one view per fully qualified method name; an entry
  belongs to the view of the method on top of the call stack when it fired
  (the entry's ``m`` component).
* ``TO`` (target-object views): one view per object; an entry belongs to
  the view of the object that is the *target* of its event (callee of a
  call/return, accessed object of a get/set, created object of an init).
* ``AO`` (active-object views): one view per object; an entry belongs to
  the view of the object on top of the call stack (the entry's ``rho``).

Views are linked implicitly: a projected view stores original trace
*indices*, so any entry can be navigated from one view to its position in
every other view it belongs to (the "web" of views, built by
:mod:`repro.core.web`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, indexOf
from typing import Callable, Iterator, Sequence

from repro.core.columns import ViewColumns
from repro.core.entries import TraceEntry
from repro.core.traces import Trace


class ViewType(Enum):
    """The four view types of Fig. 7."""

    THREAD = "TH"
    METHOD = "CM"
    TARGET_OBJECT = "TO"
    ACTIVE_OBJECT = "AO"

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.value


@dataclass(frozen=True, slots=True)
class ViewName:
    """A view name ``<chi, kappa>``: view type plus type-specific key.

    Keys are: the thread id for TH, the qualified method name for CM, and
    the object *location* for TO/AO (locations identify objects within one
    trace; cross-trace object identification is the correlators' job).
    """

    vtype: ViewType
    key: object

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"<{self.vtype.value},{self.key}>"


def nu_thread(entry: TraceEntry) -> ViewName | None:
    """``nu_TH``: every entry belongs to its thread's view."""
    return ViewName(ViewType.THREAD, entry.tid)


def nu_method(entry: TraceEntry) -> ViewName | None:
    """``nu_CM``: every entry belongs to the view of the method under
    execution."""
    return ViewName(ViewType.METHOD, entry.method)


def nu_target_object(entry: TraceEntry) -> ViewName | None:
    """``nu_TO``: entries whose event targets an object belong to that
    object's view; thread events map to no TO view (the ``bottom`` case)."""
    target = entry.event.target()
    if target is None or target.location is None:
        return None
    return ViewName(ViewType.TARGET_OBJECT, target.location)


def nu_active_object(entry: TraceEntry) -> ViewName | None:
    """``nu_AO``: every entry with an active object belongs to that
    object's view."""
    if entry.active is None or entry.active.location is None:
        return None
    return ViewName(ViewType.ACTIVE_OBJECT, entry.active.location)


#: The view-name mapping function for each view type.
NAME_MAPPINGS: dict[ViewType, Callable[[TraceEntry], ViewName | None]] = {
    ViewType.THREAD: nu_thread,
    ViewType.METHOD: nu_method,
    ViewType.TARGET_OBJECT: nu_target_object,
    ViewType.ACTIVE_OBJECT: nu_active_object,
}


def _key_thread(entry: TraceEntry):
    return entry.tid


def _key_method(entry: TraceEntry):
    return entry.method


def _key_target_object(entry: TraceEntry):
    target = entry.event.target()
    if target is None:
        return None
    return target.location


def _key_active_object(entry: TraceEntry):
    if entry.active is None:
        return None
    return entry.active.location


#: Raw-key variants of the ``nu_chi`` mappings: the type-specific key
#: alone (``kappa``), without wrapping it in a :class:`ViewName`.
KEY_MAPPINGS: dict[ViewType, Callable[[TraceEntry], object]] = {
    ViewType.THREAD: _key_thread,
    ViewType.METHOD: _key_method,
    ViewType.TARGET_OBJECT: _key_target_object,
    ViewType.ACTIVE_OBJECT: _key_active_object,
}

#: Column variants of :data:`KEY_MAPPINGS`: the key column of each view
#: type in a trace's :class:`~repro.core.columns.ViewColumns` — the
#: ``kappa`` of every position (``None`` for the ``bottom`` case)
#: without building an entry.  The web and the differ read these.
COLUMN_KEYS: dict[ViewType, Callable[[ViewColumns], Sequence]] = {
    ViewType.THREAD: attrgetter("tids"),
    ViewType.METHOD: attrgetter("methods"),
    ViewType.TARGET_OBJECT: attrgetter("targets"),
    ViewType.ACTIVE_OBJECT: attrgetter("actives"),
}


def view_names(entry: TraceEntry) -> list[ViewName]:
    """Union of all mapping functions for one entry (Sec. 2.4)."""
    names = []
    for mapping in NAME_MAPPINGS.values():
        name = mapping(entry)
        if name is not None:
            names.append(name)
    return names


class View:
    """One materialised view: a name plus the (sorted) original-trace
    indices of its member entries.

    Because views retain original indices, ``position_of`` implements the
    link-navigation of Sec. 2.4: given an entry's eid, find where it sits
    inside this view (``offset_of`` does the same for a trace position).

    ``indices`` is a sorted index *column* of trace positions: any
    integer sequence works, and the web builds ``array('I')`` columns
    (4 bytes per member instead of a list of boxed ints).  ``offsets``
    maps every trace position to its offset inside the view of this
    type that holds it — one column the web shares among all views of
    a type — so ``offset_of`` is O(1).
    """

    __slots__ = ("name", "trace", "indices", "offsets")

    def __init__(self, name: ViewName, trace: Trace, indices, offsets):
        self.name = name
        self.trace = trace
        self.indices = indices
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[TraceEntry]:
        entries = self.trace.entries
        for index in self.indices:
            yield entries[index]

    def __getitem__(self, position: int) -> TraceEntry:
        return self.trace.entries[self.indices[position]]

    def entry_at(self, position: int) -> TraceEntry:
        return self[position]

    def offset_of(self, position: int) -> int:
        """Position inside this view of the entry at trace position
        ``position``, or ``-1`` if it is not a member."""
        if not 0 <= position < len(self.offsets):
            return -1
        at = self.offsets[position]
        indices = self.indices
        if at < len(indices) and indices[at] == position:
            return at
        return -1

    def position_of(self, eid: int) -> int:
        """Position of the entry with identifier ``eid`` inside this view
        (the ``index(nu, tau)`` helper of Fig. 9), or ``-1`` if absent."""
        try:
            position = indexOf(self.trace.eid_column(), eid)
        except ValueError:
            return -1
        return self.offset_of(position)

    def window(self, eid: int, radius: int) -> list[TraceEntry]:
        """``win``: the entries of this view whose view-position lies within
        ``radius`` of the position of ``eid`` (Fig. 9's fixed-size window).
        """
        center = self.position_of(eid)
        if center < 0:
            return []
        lo = max(0, center - radius)
        hi = min(len(self.indices), center + radius + 1)
        entries = self.trace.entries
        return [entries[i] for i in self.indices[lo:hi]]

    def window_around_position(self, position: int,
                               radius: int) -> list[TraceEntry]:
        """Window by view position rather than eid."""
        lo = max(0, position - radius)
        hi = min(len(self.indices), position + radius + 1)
        entries = self.trace.entries
        return [entries[i] for i in self.indices[lo:hi]]

    def project(self) -> Trace:
        """Materialise this view as a standalone trace (projection ``p``)."""
        return Trace([self.trace.entries[i] for i in self.indices],
                     name=f"{self.trace.name}{self.name}")
