"""Differencing results: the similarity set sigma, difference runs, and
difference sequences.

Both differencing semantics (Figs. 11 and 12) produce a set ``sigma`` of
entries considered *similar* between the left and right traces; the set of
differences is derived from ``sigma`` by set subtraction against the
original traces.  RPRISM then organises contiguous runs of differences
into *difference sequences* — "each representing one higher-level semantic
difference that manifests as a contiguous set of differences" — which are
the units reported to developers and consumed by the regression-cause
analysis of Sec. 4.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter

from repro.core.columns import eids_at
from repro.core.entries import EOF, TraceEntry
from repro.core.lcs import OpCounter
from repro.core.traces import Trace


@dataclass(slots=True)
class DifferenceSequence:
    """One contiguous semantic difference between the two traces.

    ``kind`` is ``"delete"`` (entries only in the left/original trace),
    ``"insert"`` (only in the right/new trace) or ``"modify"`` (both).
    """

    kind: str
    left_entries: list[TraceEntry]
    right_entries: list[TraceEntry]

    def size(self) -> int:
        """Number of raw differences in this sequence (both sides)."""
        return len(self.left_entries) + len(self.right_entries)

    def left_keys(self) -> frozenset:
        return frozenset(e.key() for e in self.left_entries)

    def right_keys(self) -> frozenset:
        return frozenset(e.key() for e in self.right_entries)

    def all_keys(self) -> frozenset:
        return self.left_keys() | self.right_keys()

    def methods(self) -> frozenset[str]:
        """Method views this sequence touches (used in signatures and
        reports)."""
        return frozenset(e.method for e in self.left_entries) | frozenset(
            e.method for e in self.right_entries)

    def signature(self) -> tuple:
        """Cross-trace-pair identity for the set algebra of Sec. 4."""
        return (self.kind, self.left_keys(), self.right_keys())

    def span(self) -> tuple[int | None, int | None]:
        """(first left eid, first right eid) for ordering and reports."""
        left = self.left_entries[0].eid if self.left_entries else None
        right = self.right_entries[0].eid if self.right_entries else None
        return (left, right)

    def brief(self, limit: int = 6) -> str:
        lines = [f"~ {self.kind} ({len(self.left_entries)} old / "
                 f"{len(self.right_entries)} new entries)"]
        for entry in self.left_entries[:limit]:
            lines.append(f"  - {entry.brief()}")
        if len(self.left_entries) > limit:
            lines.append(f"  - ... ({len(self.left_entries) - limit} more)")
        for entry in self.right_entries[:limit]:
            lines.append(f"  + {entry.brief()}")
        if len(self.right_entries) > limit:
            lines.append(f"  + ... ({len(self.right_entries) - limit} more)")
        return "\n".join(lines)


@dataclass(slots=True)
class DiffResult:
    """Outcome of differencing a (left, right) trace pair."""

    left: Trace
    right: Trace
    #: eids of left/right entries in the similarity set ``sigma``.
    similar_left: set[int]
    similar_right: set[int]
    #: Monotonic correspondence pairs (left eid, right eid) from lock-step
    #: matching / the LCS; used to segment difference sequences.
    match_pairs: list[tuple[int, int]]
    #: Entries marked similar through secondary-view exploration
    #: (the "anchors" of Fig. 13); subset of the similarity sets.
    anchor_pairs: list[tuple[int, int]] = field(default_factory=list)
    sequences: list[DifferenceSequence] = field(default_factory=list)
    counter: OpCounter = field(default_factory=OpCounter)
    algorithm: str = ""
    seconds: float = 0.0
    peak_cells: int = 0

    # -- difference accessors ------------------------------------------------

    def left_diff_eids(self) -> list[int]:
        return [eid for eid in self.left.eid_column()
                if eid not in self.similar_left]

    def right_diff_eids(self) -> list[int]:
        return [eid for eid in self.right.eid_column()
                if eid not in self.similar_right]

    def num_diffs(self) -> int:
        """Total number of raw differences (both sides) — the paper's
        "Num Diffs." column."""
        left = len(self.left) - len(self.similar_left)
        right = len(self.right) - len(self.similar_right)
        return left + right

    def num_similar(self) -> int:
        return len(self.similar_left) + len(self.similar_right)

    def total_entries(self) -> int:
        return len(self.left) + len(self.right)

    def num_sequences(self) -> int:
        return len(self.sequences)

    def compares(self) -> int:
        return self.counter.total

    def mean_sequence_size(self) -> float:
        if not self.sequences:
            return 0.0
        return sum(s.size() for s in self.sequences) / len(self.sequences)

    def render(self, limit: int = 20) -> str:
        lines = [
            f"diff {self.left.name or 'left'} vs {self.right.name or 'right'}"
            f" [{self.algorithm}]: {self.num_diffs()} differences in "
            f"{len(self.sequences)} sequences",
        ]
        for seq in self.sequences[:limit]:
            lines.append(seq.brief())
        if len(self.sequences) > limit:
            lines.append(f"... ({len(self.sequences) - limit} more sequences)")
        return "\n".join(lines)


# -- wire codec (the diff cache's disk tier) --------------------------------

#: Version stamp of the :func:`result_to_wire` encoding; bumped whenever
#: the shape changes so stale cache entries read as misses, not garbage.
RESULT_WIRE_VERSION = 1


def result_to_wire(result: DiffResult,
                   counter_totals: "tuple[int, int] | None" = None) -> dict:
    """A :class:`DiffResult` as a JSON-encodable dict.

    Entries are stored *by eid only* — a cached result is always
    rehydrated against the caller's own trace objects
    (:func:`result_from_wire`), so the wire form stays small (no trace
    bodies) and a hit hands back sequences built from the very entries
    the caller is holding.

    ``counter_totals`` overrides the stored ``(compares, charged)``
    pair: ``result.counter`` may be a caller's *shared* accumulator
    spanning several diffs, and a cache entry must record only this
    diff's own cost (the cache layer passes the measured delta).
    """
    if counter_totals is None:
        counter_totals = (result.counter.compares, result.counter.charged)
    return {
        "version": RESULT_WIRE_VERSION,
        "algorithm": result.algorithm,
        "seconds": result.seconds,
        "peak_cells": result.peak_cells,
        "similar_left": sorted(result.similar_left),
        "similar_right": sorted(result.similar_right),
        "match_pairs": list(map(list, result.match_pairs)),
        "anchor_pairs": list(map(list, result.anchor_pairs)),
        "sequences": [{"kind": seq.kind,
                       "left": [e.eid for e in seq.left_entries],
                       "right": [e.eid for e in seq.right_entries]}
                      for seq in result.sequences],
        "counter": {"compares": counter_totals[0],
                    "charged": counter_totals[1]},
    }


def result_from_wire(wire: dict, left: Trace, right: Trace) -> DiffResult:
    """Inverse of :func:`result_to_wire`, rehydrated over the caller's
    ``left``/``right`` traces.

    Entry ids resolve through each trace's eid column
    (:meth:`~repro.core.traces.Trace.eid_column`, zero-copy on v3-loaded
    traces and their slices): only the entries the difference sequences
    name are built, so the cost of a rehydrate follows the wire, not the
    length of the traces.

    Every eid field — the similarity sets, matched and anchor pairs,
    and the sequences — is checked against the pair (``EOF.eid``
    allowed, as the differs may pad with the sentinel).  Raises
    ``ValueError`` on any mismatch — unknown wire version, a malformed
    field, or an eid the traces do not contain (a digest collision or a
    hand-edited cache file) — so cache layers can treat a bad entry as
    a miss rather than returning a corrupt result.
    """
    if not isinstance(wire, dict) \
            or wire.get("version") != RESULT_WIRE_VERSION:
        version = wire.get("version") if isinstance(wire, dict) else wire
        raise ValueError(
            f"unsupported diff-result wire version: {version!r}")
    held_l, entry_l = _eid_lookup(left)
    held_r, entry_r = _eid_lookup(right)
    try:
        similar_left = set(wire["similar_left"])
        similar_right = set(wire["similar_right"])
        match_pairs = list(map(tuple, wire["match_pairs"]))
        anchor_pairs = list(map(tuple, wire["anchor_pairs"]))
        raw_sequences = [(seq["kind"], seq["left"], seq["right"])
                         for seq in wire["sequences"]]
        pairs = match_pairs + anchor_pairs
        if set(map(len, pairs)) - {2}:
            raise ValueError("malformed diff-result wire: an eid pair "
                             "is not a (left, right) pair")
        _check_eids(held_l, similar_left)
        _check_eids(held_r, similar_right)
        _check_eids(held_l, list(map(itemgetter(0), pairs)))
        _check_eids(held_r, list(map(itemgetter(1), pairs)))
        sequences = []
        for kind, left_eids, right_eids in raw_sequences:
            _check_eids(held_l, left_eids)
            _check_eids(held_r, right_eids)
            sequences.append(DifferenceSequence(
                kind=kind,
                left_entries=[EOF if eid == EOF.eid else entry_l(eid)
                              for eid in left_eids],
                right_entries=[EOF if eid == EOF.eid else entry_r(eid)
                               for eid in right_eids]))
        counter = OpCounter(compares=wire["counter"]["compares"],
                            charged=wire["counter"]["charged"])
        return DiffResult(
            left=left,
            right=right,
            similar_left=similar_left,
            similar_right=similar_right,
            match_pairs=match_pairs,
            anchor_pairs=anchor_pairs,
            sequences=sequences,
            counter=counter,
            algorithm=wire["algorithm"],
            seconds=wire["seconds"],
            peak_cells=wire["peak_cells"],
        )
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed diff-result wire: {error}") from None


def _eid_lookup(trace: Trace):
    """``(held, entry)`` for one side of a wire: the eids ``trace``
    holds — its eid column when that is a ``range``, else a dict keyed
    by eid — and a builder of the entry holding one of them."""
    column = trace.eid_column()
    entries = trace.entries
    if type(column) is range:
        return column, lambda eid: entries[column.index(eid)]
    index = dict(zip(column, count()))
    return index, lambda eid: entries[index[eid]]


def _check_eids(held, eids) -> None:
    """Raise ``ValueError`` unless every eid (``EOF.eid`` aside) is in
    ``held``.  The common case is settled at C speed — a bounds test
    when ``held`` is a contiguous range, a key-set test when it is a
    dict; the per-eid loop only runs when that fails."""
    if not eids:
        return
    # ``sum`` stays an int only when every eid is one; a JSON float
    # such as 0.5 would otherwise pass the bounds test below.
    if type(sum(eids)) is not int:
        raise ValueError("diff-result wire carries a non-integer eid")
    if type(held) is range:
        if held.step == 1 and held.start <= min(eids) \
                and max(eids) < held.stop:
            return
    elif held.keys() >= set(eids):
        return
    for eid in eids:
        if eid not in held and eid != EOF.eid:
            raise ValueError(f"diff-result wire references eid {eid!r} "
                             f"absent from the trace pair")


def result_identity(result: DiffResult) -> tuple:
    """Everything *semantically* observable about a result — similarity
    sets, matched and anchor pairs, and difference sequences — as one
    comparable value, excluding the cost accounting (compare counters,
    peak cells, timing) and the algorithm label.

    This is what "the anchored engine is bit-identical to its inner
    engine" means: the two compute the same differences while charging
    different costs (fewer ``=e`` compares is the anchored path's whole
    point), so identity is asserted over this tuple rather than
    :func:`result_signature` (which includes the counters).
    """
    return (tuple(sorted(result.similar_left)),
            tuple(sorted(result.similar_right)),
            tuple(tuple(pair) for pair in result.match_pairs),
            tuple(tuple(pair) for pair in result.anchor_pairs),
            tuple((seq.kind,
                   tuple(e.eid for e in seq.left_entries),
                   tuple(e.eid for e in seq.right_entries))
                  for seq in result.sequences))


def result_signature(result: DiffResult) -> tuple:
    """Everything semantically observable about a result, as one
    comparable value (wall-clock excluded) — what the cache tests and
    benchmark mean by "bit-identical"."""
    wire = result_to_wire(result)
    wire.pop("seconds")
    return (tuple(sorted(wire.pop("similar_left"))),
            tuple(sorted(wire.pop("similar_right"))),
            tuple(map(tuple, wire.pop("match_pairs"))),
            tuple(map(tuple, wire.pop("anchor_pairs"))),
            tuple((s["kind"], tuple(s["left"]), tuple(s["right"]))
                  for s in wire.pop("sequences")),
            tuple(sorted(wire.pop("counter").items())),
            tuple(sorted(wire.items())))


def signature_digest(result: DiffResult) -> str:
    """A fixed-size digest of :func:`result_signature`: blake2b over its
    canonical JSON, so two digests are equal exactly when the
    signatures are (what a job record carries instead of the full
    signature text, which runs to hundreds of KB on real traces)."""
    text = json.dumps(result_signature(result), sort_keys=True,
                      default=list)
    return hashlib.blake2b(text.encode("utf-8"),
                           digest_size=32).hexdigest()


def build_sequences(left: Trace, right: Trace,
                    match_pairs: list[tuple[int, int]],
                    similar_left: set[int], similar_right: set[int],
                    left_rows=None, right_rows=None,
                    ) -> list[DifferenceSequence]:
    """Group raw differences into difference sequences.

    Walks the (monotonic) correspondence mapping; the differing entries
    between consecutive matched pairs form one sequence.  ``match_pairs``
    and the similarity sets hold entry ids.  ``left_rows`` /
    ``right_rows`` restrict the walk to a sub-sequence of each trace's
    *positions* (a thread view's index column), defaulting to the whole
    trace.  The walk reads each trace's eid column, so the only entries
    built are the differences the sequences carry.
    """
    eids_l = left.eid_column()
    eids_r = right.eid_column()
    rows_l = range(len(eids_l)) if left_rows is None else left_rows
    rows_r = range(len(eids_r)) if right_rows is None else right_rows
    # eid -> index within the (restricted) rows.
    at_l = dict(zip(eids_at(eids_l, rows_l), count()))
    at_r = dict(zip(eids_at(eids_r, rows_r), count()))
    boundaries = [(-1, -1)]
    for l_eid, r_eid in match_pairs:
        row_l = at_l.get(l_eid)
        if row_l is not None:
            row_r = at_r.get(r_eid)
            if row_r is not None:
                boundaries.append((row_l, row_r))
    boundaries.append((len(rows_l), len(rows_r)))

    entries_l = left.entries
    entries_r = right.entries
    sequences: list[DifferenceSequence] = []
    for (prev_l, prev_r), (next_l, next_r) in zip(boundaries, boundaries[1:]):
        if next_l - prev_l <= 1 and next_r - prev_r <= 1:
            continue  # adjacent matches: no gap on either side
        left_gap = [entries_l[p] for p in rows_l[prev_l + 1:next_l]
                    if eids_l[p] not in similar_left]
        right_gap = [entries_r[p] for p in rows_r[prev_r + 1:next_r]
                     if eids_r[p] not in similar_right]
        if not left_gap and not right_gap:
            continue
        if left_gap and right_gap:
            kind = "modify"
        elif left_gap:
            kind = "delete"
        else:
            kind = "insert"
        sequences.append(DifferenceSequence(
            kind=kind, left_entries=left_gap, right_entries=right_gap))
    return sequences
