"""Per-position columns of the facts the views engine reads.

RPRISM's views (Sec. 2.4) and their correlation (Sec. 3.1) need four
facts about each entry — its thread, its method, its target object and
its active object — plus the event kind, to tell object creations and
forks apart.  :class:`ViewColumns` holds exactly those facts as compact
int columns indexed by trace position, so the views engine can build
its web and run its lock-step scans without constructing a single
:class:`~repro.core.entries.TraceEntry`; entries are built only for what
a diff reports (difference sequences) and for the rare fork payloads.

Strings and objects are stored once per *distinct* value: a method
column holds ids into a pool of method names, and the target/active
columns hold ids into a pool of value representations, with each
representation's location looked up once per distinct id.  A v3-loaded
trace takes its columns straight from the decoder's zero-copy sections
and pools (see :mod:`repro.analysis.serialize`); a list-backed trace
fills them in one pass over its entries (:meth:`ViewColumns.from_entries`).
"""

from __future__ import annotations

from array import array
from operator import attrgetter, itemgetter
from typing import Callable, Iterator

#: Event-kind codes of a kind column (the serialisation-v3 ``kind``
#: section uses the same codes).
KIND_CODES = {"get": 0, "set": 1, "call": 2, "return": 3,
              "init": 4, "fork": 5, "end": 6}
INIT_CODE = KIND_CODES["init"]
FORK_CODE = KIND_CODES["fork"]
#: Value-representation id standing for "no representation" (an event
#: without a target, an entry without an active object).
NO_REP = 0xFFFFFFFF


def take(column, positions: range):
    """``column`` restricted to ``positions`` (a range of its indices),
    zero-copy where the column supports it."""
    if isinstance(column, array):
        column = memoryview(column)
    stop = positions.stop
    if positions.step < 0 and stop < 0:
        stop = None  # a reversed slice that runs down to index 0
    return column[positions.start:stop:positions.step]


class KeyColumn:
    """A key column stored as ids into a pool of distinct keys:
    ``column[p] == pool[ids[p]]``.  Iteration maps the ids at C speed,
    so consumers see one key per position without a per-position
    Python call."""

    __slots__ = ("ids", "pool")

    def __init__(self, ids, pool):
        self.ids = ids
        self.pool = pool

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, position: int):
        return self.pool[self.ids[position]]

    def __iter__(self) -> Iterator:
        return map(self.pool.__getitem__, self.ids)

    def sliced(self, positions: range) -> "KeyColumn":
        return KeyColumn(take(self.ids, positions), self.pool)

    def first_positions(self) -> list[tuple]:
        """``(key, first position)`` for every key but ``None``, in
        order of first appearance — at C speed: walking the column
        backwards, the last write of each key is its first position."""
        backwards = range(len(self) - 1, -1, -1)
        first = dict(zip(self.sliced(backwards), backwards))
        first.pop(None, None)
        return sorted(first.items(), key=itemgetter(1))


class ViewColumns:
    """The views engine's facts about one trace, one column per fact.

    Every column is indexed by trace position (``trace.entries[p]``):

    * ``eids`` — entry ids (a ``range`` when they follow the positions);
    * ``tids`` — thread ids (the ``TH`` view keys);
    * ``methods`` — method names (the ``CM`` view keys);
    * ``targets`` / ``actives`` — target / active object locations (the
      ``TO`` / ``AO`` view keys; ``None`` where there is no object or it
      has no location), with representation ids in ``.ids``;
    * ``kinds`` — event-kind codes (:data:`KIND_CODES`).

    ``rep_of(rep_id)`` gives the value representation behind a
    target/active id (``None`` for :data:`NO_REP`).
    """

    __slots__ = ("eids", "tids", "methods", "targets", "actives", "kinds",
                 "rep_of")

    def __init__(self, *, eids, tids, methods: KeyColumn,
                 targets: KeyColumn, actives: KeyColumn, kinds,
                 rep_of: Callable):
        self.eids = eids
        self.tids = tids
        self.methods = methods
        self.targets = targets
        self.actives = actives
        self.kinds = kinds
        self.rep_of = rep_of

    @classmethod
    def from_entries(cls, entries) -> "ViewColumns":
        """Columns of a materialised entry sequence, in one pass.

        Representations are pooled by object identity — an id per
        distinct ``ValueRep`` object, not per distinct value — which
        is all the columns need: equal representations share their
        location either way.
        """
        tids = array("q")
        method_ids: dict[str, int] = {}
        methods = array("I")
        rep_ids: dict[int, int] = {}
        reps: list = []
        targets = array("I")
        actives = array("I")
        kinds = bytearray()

        def rid(rep) -> int:
            if rep is None:
                return NO_REP
            out = rep_ids.get(id(rep))
            if out is None:
                out = rep_ids[id(rep)] = len(reps)
                reps.append(rep)  # pins the object, so its id stays unique
            return out

        for entry in entries:
            tids.append(entry.tid)
            method = entry.method
            mid = method_ids.get(method)
            if mid is None:
                mid = method_ids[method] = len(method_ids)
            methods.append(mid)
            event = entry.event
            targets.append(rid(event.target()))
            actives.append(rid(entry.active))
            kinds.append(KIND_CODES[event.kind])
        locations = location_pool(rep.location for rep in reps)
        return cls(eids=eid_column_of(entries), tids=tids,
                   methods=KeyColumn(methods, list(method_ids)),
                   targets=KeyColumn(targets, locations),
                   actives=KeyColumn(actives, locations),
                   kinds=bytes(kinds),
                   rep_of=lambda rep_id: None if rep_id == NO_REP
                   else reps[rep_id])

    def sliced(self, positions: range, eids) -> "ViewColumns":
        """These columns restricted to ``positions``, sharing every
        pool; ``eids`` is the restricted eid column."""
        return ViewColumns(eids=eids, tids=take(self.tids, positions),
                           methods=self.methods.sliced(positions),
                           targets=self.targets.sliced(positions),
                           actives=self.actives.sliced(positions),
                           kinds=take(self.kinds, positions),
                           rep_of=self.rep_of)


def eid_column_of(entries):
    """The eids of a materialised entry sequence as a column: the
    ``range`` of positions when they coincide, else an int64 array."""
    eids = array("q", map(attrgetter("eid"), entries))
    if eids == array("q", range(len(eids))):
        return range(len(eids))
    return eids


def eids_at(eids, positions):
    """The eids at ``positions`` through an eid column — the positions
    themselves when the column is the identity."""
    if eids == range(len(eids)):
        return positions
    return map(eids.__getitem__, positions)


def pairs_to_eids(eids_l, eids_r, pairs) -> list[tuple[int, int]]:
    """``(left, right)`` position pairs as eid pairs."""
    return list(zip(eids_at(eids_l, map(itemgetter(0), pairs)),
                    eids_at(eids_r, map(itemgetter(1), pairs))))


def kind_positions(kinds, code: int) -> list[int]:
    """Positions of a kind column holding ``code``, found at C speed
    (only the matches cost Python work)."""
    data = bytes(kinds)
    needle = bytes((code,))
    found = []
    at = data.find(needle)
    while at >= 0:
        found.append(at)
        at = data.find(needle, at + 1)
    return found


def location_pool(locations) -> dict:
    """Representation id -> object location, from the locations of a
    representation pool in id order (``None`` for :data:`NO_REP` and
    for location-less values)."""
    pool = dict(enumerate(locations))
    pool[NO_REP] = None
    return pool
