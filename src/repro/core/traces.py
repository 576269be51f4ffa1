"""Trace containers.

A trace ``gamma = tau_1 . ... . tau_n`` is a sequence of trace entries;
``len(trace)`` is ``|gamma|``.  Traces are identified by a ``name``
(the paper's superscript, e.g. ``gamma^L`` / ``gamma^R``).

``TraceBuilder`` is the write-side used by the interpreter and the capture
layer: it assigns entry identifiers, tracks per-thread call stacks, and owns
the per-trace :class:`~repro.core.values.ObjectRegistry`.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.columns import ViewColumns, eid_column_of, take
from repro.core.entries import TraceEntry
from repro.core.events import (Call, End, Event, FieldGet, FieldSet, Fork,
                               Init, Return, StackFrame)
from repro.core.values import UNIT, ObjectRegistry, ValueRep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.keytable import KeyTable


class LazyEntrySequence:
    """A list-like sequence of :class:`TraceEntry` built on demand.

    The serialisation-v3 decoder hands :class:`Trace` one of these
    instead of a materialised list: ``decode(position)`` constructs the
    entry at an absolute backing position, and every constructed entry
    is memoised in a cache shared by all slices of the sequence, so an
    entry is decoded at most once per loaded trace no matter how the
    trace is sliced.  ``tids`` optionally carries the backing thread-id
    column (any int sequence) so :meth:`Trace.thread_ids` never has to
    materialise entries at all; ``eids`` likewise carries the backing
    entry-id column (an int64 buffer), so :meth:`eid_column` resolves
    eids to positions with int work only; ``columns`` is a zero-argument
    builder of the backing's :class:`~repro.core.columns.ViewColumns`,
    run at most once and shared by every slice, so the views engine
    reads its facts without building entries; ``owner`` pins whatever
    object keeps the backing buffer alive (e.g. a mapped shared-memory
    segment).

    The core layer defines only the container contract; decoders live
    with their formats (:mod:`repro.analysis.serialize`).
    """

    __slots__ = ("_decode", "_positions", "_cache", "_tids", "_eids",
                 "_dense", "_columns", "owner")

    def __init__(self, decode, length: int | None = None, *,
                 tids=None, eids=None, columns=None, owner=None,
                 _positions: range | None = None,
                 _cache: "list | None" = None,
                 _dense: "list | None" = None,
                 _columns: "list | None" = None):
        self._decode = decode
        if _positions is None:
            _positions = range(length or 0)
        self._positions = _positions
        self._cache = [None] * len(_positions) if _cache is None else _cache
        self._tids = tids
        self._eids = eids
        # Whether the eid column equals its backing positions — checked
        # at most once per backing, the one slot shared by every slice.
        self._dense = [None] if _dense is None else _dense
        # [builder, built backing columns], shared by every slice.
        if _columns is None and columns is not None:
            _columns = [columns, None]
        self._columns = _columns
        self.owner = owner

    def __len__(self) -> int:
        return len(self._positions)

    def _entry_at(self, position: int) -> TraceEntry:
        entry = self._cache[position]
        if entry is None:
            entry = self._cache[position] = self._decode(position)
        return entry

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LazyEntrySequence(self._decode, tids=self._tids,
                                     eids=self._eids, owner=self.owner,
                                     _positions=self._positions[index],
                                     _cache=self._cache,
                                     _dense=self._dense,
                                     _columns=self._columns)
        return self._entry_at(self._positions[index])

    def __iter__(self) -> Iterator[TraceEntry]:
        for position in self._positions:
            yield self._entry_at(position)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, LazyEntrySequence)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"LazyEntrySequence({len(self)} entr(ies), "
                f"{sum(1 for p in self._positions if self._cache[p] is not None)} "
                f"materialised)")

    def iter_tids(self):
        """The thread-id column in sequence order, without building a
        single entry — ``None`` when the decoder supplied no column."""
        if self._tids is None:
            return None
        return take(self._tids, self._positions)

    def _is_dense(self) -> bool:
        """Whether the backing eid column equals its positions."""
        dense = self._dense[0]
        if dense is None:
            # Native-order bytes on both sides, so one C-level compare.
            column = self._eids
            dense = self._dense[0] = memoryview(column).tobytes() == \
                array("q", range(len(column))).tobytes()
        return dense

    def eid_column(self):
        """The entry ids in sequence order without building a single
        entry — ``None`` when the decoder supplied no column.  A dense
        backing (every captured trace numbers entries 0..n-1, and
        slices keep their eids) gives its positions themselves, a
        ``range``."""
        if self._eids is None:
            return None
        if self._is_dense():
            return self._positions
        return take(self._eids, self._positions)

    def view_columns(self) -> "ViewColumns | None":
        """This sequence's :class:`~repro.core.columns.ViewColumns`, or
        ``None`` when the decoder supplied no builder.  The backing
        columns are built once and shared by every slice; a slice
        restricts them to its positions without copying."""
        shared = self._columns
        if shared is None or self._eids is None:
            return None
        backing = shared[1]
        if backing is None:
            backing = shared[1] = shared[0]()
        return backing.sliced(self._positions, self.eid_column())


class Trace:
    """An immutable-by-convention sequence of trace entries.

    Immutability is what makes the derived data safe to cache: the
    distinct-thread list and the fingerprint are computed at most once,
    and :class:`TraceBuilder` (the only sanctioned mutator) snapshots
    the entry list on every :meth:`TraceBuilder.build`, so a built trace
    never sees later recording.

    ``key_table`` / ``key_ids`` carry the interned ``=e`` representation
    when the trace was ingested through a
    :class:`~repro.core.keytable.KeyTable` (capture with a session
    table, or a format-v2 trace file): ``key_ids[i]`` is the dense id of
    ``entries[i].key()`` in ``key_table``.  Both are ``None`` for
    uninterned traces — every consumer falls back to key tuples.
    """

    __slots__ = ("name", "entries", "metadata", "_key_table", "key_ids",
                 "_thread_ids", "_fingerprint", "_content_digest",
                 "_view_columns")

    def __init__(self, entries: Iterable[TraceEntry] = (), name: str = "",
                 metadata: dict | None = None,
                 key_table: "KeyTable | None" = None,
                 key_ids: "array | None" = None):
        self.name = name
        # Lazy sequences stay lazy (copying into a list would defeat
        # the on-demand decode); anything else is snapshotted so the
        # trace owns its entries.
        if isinstance(entries, LazyEntrySequence):
            self.entries = entries
        else:
            self.entries = list(entries)
        self.metadata: dict = metadata or {}
        self._key_table = key_table
        self.key_ids = key_ids
        self._thread_ids: list[int] | None = None
        self._fingerprint: str | None = None
        self._content_digest: str | None = None
        self._view_columns: ViewColumns | None = None

    @property
    def key_table(self) -> "KeyTable | None":
        """The trace's interned ``=e`` table (or None).

        Lazy decoders pass a zero-argument *thunk* instead of a table;
        the first access materialises it and caches the result, so a
        v3-loaded trace whose table is never consulted never parses
        its key section at all.
        """
        table = self._key_table
        if callable(table):
            table = table()
            self._key_table = table
        return table

    @key_table.setter
    def key_table(self, table: "KeyTable | None") -> None:
        self._key_table = table

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Materialise the selected positions once and apply them to
            # *both* columns: entries (a list) and key_ids (an array, or
            # any caller-provided sequence) must select the exact same
            # positions — including under extended slices (step != 1) —
            # or interned compares on the sliced trace would silently
            # use the wrong ids.
            column = None
            if self.key_ids is not None:
                if len(self.key_ids) != len(self.entries):
                    raise ValueError(
                        f"trace {self.name!r}: key column carries "
                        f"{len(self.key_ids)} id(s) for "
                        f"{len(self.entries)} entries — the trace was "
                        f"mutated after interning; rebuild it instead")
                picked = range(*index.indices(len(self.entries)))
                column = array("I", (self.key_ids[i] for i in picked))
            return Trace(self.entries[index], name=self.name,
                         metadata=dict(self.metadata),
                         key_table=self.key_table,
                         key_ids=column)
        return self.entries[index]

    def thread_ids(self) -> list[int]:
        """Distinct thread identifiers, in order of first appearance
        (computed once; traces are immutable by convention)."""
        if self._thread_ids is None:
            tids = self.entries.iter_tids() \
                if isinstance(self.entries, LazyEntrySequence) else None
            if tids is None:
                tids = (entry.tid for entry in self.entries)
            self._thread_ids = list(dict.fromkeys(tids))
        return list(self._thread_ids)

    def view_columns(self) -> ViewColumns:
        """The per-position facts the views engine reads
        (:class:`~repro.core.columns.ViewColumns`), computed once: from
        the decoder's columns when the entries are lazy, else in one
        pass over the entries."""
        columns = self._view_columns
        if columns is None:
            entries = self.entries
            if isinstance(entries, LazyEntrySequence):
                columns = entries.view_columns()
            if columns is None:
                columns = ViewColumns.from_entries(entries)
            self._view_columns = columns
        return columns

    def eid_column(self):
        """The entry ids in position order (a ``range`` when they equal
        the positions).  Lazy entries give it without building one
        entry; the views engine and :func:`~repro.core.diffs.
        build_sequences` translate positions to eids through it."""
        if self._view_columns is not None:
            return self._view_columns.eids
        entries = self.entries
        if isinstance(entries, LazyEntrySequence):
            column = entries.eid_column()
            if column is not None:
                return column
        return eid_column_of(entries)

    def fingerprint(self) -> str:
        """A cheap *provenance* fingerprint (name, length, per-entry
        thread and event kind), cached after the first call.

        **Provenance only** — never an identity.  Two traces with the
        same shape (equal names, lengths, thread columns, and event
        kinds) but different methods, arguments, or values share a
        fingerprint, so it must not be used as a cache key or an
        equality hint; that is :meth:`content_digest`'s job.  The
        fingerprint survives in store metadata because it is priced to
        be callable on every save and is useful for tracing where a
        file came from.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=12)
            digest.update(self.name.encode("utf-8", "replace"))
            digest.update(len(self.entries).to_bytes(8, "little"))
            for entry in self.entries:
                digest.update(b"%d:%s;" % (entry.tid,
                                           entry.event.kind.encode()))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def content_digest(self) -> str:
        """A strong content digest, suitable as a cache key.

        Covers the complete entry sequence: eids, thread ids, methods,
        active object representations, and the full events — a strict
        superset of the ``=e`` key (object locations, creation sequence
        numbers, and the entry identifiers feed the views, the
        correlators, and the eid-addressed diff results even though
        ``=e`` excludes them).  Deliberately *excludes* the trace
        ``name`` and ``metadata`` (provenance, not content), and is
        independent of whether the trace carries an interned key
        column — the same content always digests the same, so
        v2-loaded and freshly captured traces meet in one cache entry.
        Digest equality therefore implies the traces are
        indistinguishable to every differencing engine, which is what
        lets a cached result rehydrate exactly.

        Invalidation semantics: traces are immutable by convention
        (see the class docstring), so the digest is computed once and
        cached.  Code that mutates ``entries`` in place violates that
        convention and must rebuild the trace (``Trace(entries, ...)``)
        to get a fresh digest; the
        :class:`~repro.cache.DiffCache` relies on this.
        """
        if self._content_digest is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"trace-content-v1;")
            digest.update(len(self.entries).to_bytes(8, "little"))
            for entry in self.entries:
                # Frozen-dataclass reprs are deterministic functions of
                # the field values (strings, ints, floats, None, and
                # nested tuples/dataclasses), so equal content yields
                # equal bytes across processes and sessions.
                digest.update(repr(entry).encode("utf-8", "replace"))
                digest.update(b";")
            self._content_digest = digest.hexdigest()
        return self._content_digest

    def methods(self) -> set[str]:
        return {entry.method for entry in self.entries}

    def event_kinds(self) -> dict[str, int]:
        """Histogram of event kinds, useful for stats and tests."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            kind = entry.event.kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def render(self, limit: int | None = None) -> str:
        """Human-readable dump (mostly for examples and debugging)."""
        lines = []
        shown = self.entries if limit is None else self.entries[:limit]
        for entry in shown:
            lines.append(entry.brief())
        if limit is not None and len(self.entries) > limit:
            lines.append(f"... ({len(self.entries) - limit} more entries)")
        return "\n".join(lines)


@dataclass(slots=True)
class _ThreadState:
    """Book-keeping for one thread while its trace is being generated."""

    tid: int
    stack: list[StackFrame] = field(default_factory=list)
    #: Spawn ancestry: the call stacks at each ancestor's spawn point,
    #: outermost ancestor first (the paper's ``fork(S*)`` payload).
    ancestry: tuple[tuple[StackFrame, ...], ...] = ()

    def snapshot(self) -> tuple[StackFrame, ...]:
        return tuple(self.stack)


class TraceBuilder:
    """Write-side of a trace: event recording with call-stack tracking.

    The builder mirrors the structure the operational semantics maintains —
    an ordered set of stacks ``S*``, one per thread — and exposes one method
    per evaluation rule that records an entry (CONS-E, FIELD-ACC-E,
    FIELD-ASS-E, METH-E, RETURN-E, FORK-E, END-E).
    """

    ROOT_METHOD = "<main>"

    def __init__(self, name: str = "",
                 key_table: "KeyTable | None" = None):
        self.name = name
        self.registry = ObjectRegistry()
        self.key_table = key_table
        self._key_ids: list[int] | None = None if key_table is None else []
        self._entries: list[TraceEntry] = []
        self._threads: dict[int, _ThreadState] = {}
        self._next_tid = 0
        self._next_location = 1
        self.main_tid = self._spawn_thread(ancestry=())

    # -- thread management -------------------------------------------------

    def _spawn_thread(self, ancestry: tuple[tuple[StackFrame, ...], ...]) -> int:
        tid = self._next_tid
        self._next_tid += 1
        self._threads[tid] = _ThreadState(tid=tid, ancestry=ancestry)
        return tid

    def register_thread(self,
                        ancestry: tuple[tuple[StackFrame, ...], ...] = (),
                        ) -> int:
        """Allocate a thread id for a thread not created through a fork
        event (e.g. one that pre-existed trace capture)."""
        return self._spawn_thread(ancestry)

    def thread_state(self, tid: int) -> _ThreadState:
        return self._threads[tid]

    def current_method(self, tid: int) -> str:
        stack = self._threads[tid].stack
        return stack[-1].method if stack else self.ROOT_METHOD

    def current_active(self, tid: int) -> ValueRep | None:
        stack = self._threads[tid].stack
        return stack[-1].callee if stack else None

    def stack_depth(self, tid: int) -> int:
        return len(self._threads[tid].stack)

    # -- low-level entry recording -----------------------------------------

    def _record(self, tid: int, event: Event) -> TraceEntry:
        entry = TraceEntry(
            eid=len(self._entries),
            tid=tid,
            method=self.current_method(tid),
            active=self.current_active(tid),
            event=event,
        )
        self._entries.append(entry)
        if self._key_ids is not None:
            # Ingest-time interning: the ``=e`` key is built exactly
            # once here and compared as an int everywhere downstream.
            self._key_ids.append(self.key_table.intern_entry(entry))
        return entry

    # -- object creation ----------------------------------------------------

    def fresh_location(self) -> int:
        loc = self._next_location
        self._next_location += 1
        return loc

    def record_init(self, tid: int, class_name: str,
                    args: tuple[ValueRep, ...],
                    serialization: object = None,
                    location: int | None = None) -> ValueRep:
        """CONS-E: create an object, returning its representation."""
        if location is None:
            location = self.fresh_location()
        rep = self.registry.register(location, class_name, serialization)
        self._record(tid, Init(class_name=class_name, args=args, obj=rep))
        return rep

    def record_init_event(self, tid: int, class_name: str,
                          args: tuple[ValueRep, ...],
                          obj_rep: ValueRep) -> TraceEntry:
        """CONS-E variant for capture layers that manage their own object
        registry: records the init entry for an already-built
        representation."""
        return self._record(tid, Init(class_name=class_name, args=args,
                                      obj=obj_rep))

    # -- field events ---------------------------------------------------------

    def record_get(self, tid: int, obj: ValueRep, field_name: str,
                   value: ValueRep) -> TraceEntry:
        return self._record(tid, FieldGet(obj, field_name, value))

    def record_set(self, tid: int, obj: ValueRep, field_name: str,
                   value: ValueRep) -> TraceEntry:
        return self._record(tid, FieldSet(obj, field_name, value))

    # -- method events ---------------------------------------------------------

    def record_call(self, tid: int, obj: ValueRep, method: str,
                    args: tuple[ValueRep, ...]) -> TraceEntry:
        """METH-E: the call entry is recorded in the *caller's* context,
        then the new frame is pushed."""
        state = self._threads[tid]
        entry = self._record(tid, Call(obj=obj, method=method, args=args))
        caller = state.stack[-1].callee if state.stack else None
        state.stack.append(StackFrame(method=method, caller=caller, callee=obj))
        return entry

    def record_return(self, tid: int, value: ValueRep = UNIT) -> TraceEntry:
        """RETURN-E: pop the frame, record the return in the caller's
        context."""
        state = self._threads[tid]
        if not state.stack:
            raise RuntimeError(f"return with empty stack on thread {tid}")
        frame = state.stack.pop()
        return self._record(
            tid, Return(obj=frame.callee, method=frame.method, value=value))

    # -- thread events ---------------------------------------------------------

    def record_fork(self, tid: int) -> int:
        """FORK-E: record thread creation, returning the child tid.

        The fork event captures the spawning thread's current call stack
        appended to its own ancestry, giving the child's full parentage.
        """
        parent = self._threads[tid]
        ancestry = parent.ancestry + (parent.snapshot(),)
        child_tid = self._spawn_thread(ancestry)
        self._record(tid, Fork(child_tid=child_tid, ancestry=ancestry))
        return child_tid

    def record_end(self, tid: int) -> TraceEntry:
        """END-E: record thread completion."""
        state = self._threads[tid]
        ancestry = state.ancestry + (state.snapshot(),)
        return self._record(tid, End(tid=tid, ancestry=ancestry))

    # -- finishing -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def build(self, metadata: dict | None = None) -> Trace:
        if self._key_ids is None:
            return Trace(self._entries, name=self.name, metadata=metadata)
        return Trace(self._entries, name=self.name, metadata=metadata,
                     key_table=self.key_table,
                     key_ids=array("I", self._key_ids))
