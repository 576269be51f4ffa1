"""The diff cache's hit path: a hit costs what the result references.

On traces loaded from the store (binary v3, lazily decoded) a warm hit
must parse neither key table and build only the entries its difference
sequences name; every rehydrate — whole result, segment cache over
sliced lazy traces, list-backed traces — must equal the cold result;
and a wire naming an eid the pair does not hold must read as a miss.
"""

import pytest

from repro.api import Session, get_engine
from repro.api.store import TraceStore
from repro.cache import DiffCache, SegmentCache
from repro.core.diffs import (result_from_wire, result_signature,
                              result_to_wire)
from repro.core.entries import EOF
from repro.core.traces import LazyEntrySequence

from helpers import myfaces_trace


def materialised(trace) -> int:
    """Entries built so far on a lazily decoded trace."""
    entries = trace.entries
    assert isinstance(entries, LazyEntrySequence)
    return sum(1 for entry in entries._cache if entry is not None)


def referenced(result) -> tuple[set, set]:
    left, right = set(), set()
    for seq in result.sequences:
        left.update(e.eid for e in seq.left_entries if e is not EOF)
        right.update(e.eid for e in seq.right_entries if e is not EOF)
    return left, right


@pytest.fixture()
def store(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.save(myfaces_trace(min_range=32, name="old"), key="old")
    store.save(myfaces_trace(min_range=1, new_version=True, name="new"),
               key="new")
    return store


@pytest.fixture()
def cold_result(store):
    return Session(store=store, cache=False).diff("old", "new")


class TestStoreLoadedHit:
    def test_hit_parses_no_key_table(self, store):
        session = Session(store=store, cache=True)
        session.diff("old", "new")
        left, right = store.load("old"), store.load("new")
        assert callable(left._key_table) and callable(right._key_table)
        session.diff(left, right)
        assert session.cache.stats().hits == 1
        assert callable(left._key_table), "hit parsed the left key table"
        assert callable(right._key_table), "hit parsed the right key table"

    def test_miss_still_resolves_the_pair_table(self, store):
        session = Session(store=store, cache=True)
        left, right = store.load("old"), store.load("new")
        session.diff(left, right)
        assert session.cache.stats().misses == 1
        assert not callable(left._key_table)

    def test_hit_builds_only_referenced_entries(self, store, cold_result):
        session = Session(store=store, cache=True)
        session.diff("old", "new")
        left, right = store.load("old"), store.load("new")
        hit = session.diff(left, right)
        assert session.cache.stats().hits == 1
        want_left, want_right = referenced(hit)
        assert want_left or want_right  # the pair really differs
        assert materialised(left) == len(want_left) < len(left)
        assert materialised(right) == len(want_right) < len(right)
        assert result_signature(hit) == result_signature(cold_result)

    def test_non_dense_eid_column_resolves_through_a_map(self, tmp_path):
        # A stored slice keeps its original eids, so its column no
        # longer equals its positions.  (The LCS engines diff slices
        # that do not start at eid 0; the views engine does not.)
        store = TraceStore(tmp_path / "store")
        store.save(myfaces_trace(min_range=32, name="old")[3:], key="old")
        store.save(myfaces_trace(min_range=1, new_version=True,
                                 name="new")[5:], key="new")
        cold = Session(store=store, cache=False,
                       engine="optimized").diff("old", "new")
        session = Session(store=store, cache=True, engine="optimized")
        session.diff("old", "new")
        left, right = store.load("old"), store.load("new")
        assert left.entries[0].eid == 3
        hit = session.diff(left, right)
        assert session.cache.stats().hits == 1
        assert result_signature(hit) == result_signature(cold)
        want_left, want_right = referenced(hit)
        # One entry per side was built above to read its eid.
        assert materialised(left) <= len(want_left | {3})
        assert materialised(right) <= len(want_right)


class TestRehydrateIdentity:
    def test_list_backed_traces(self):
        left = myfaces_trace(min_range=32, name="old")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        session = Session(cache=True)
        cold = session.diff(left, right)
        warm = session.diff(left, right)
        assert session.cache.stats().hits == 1
        assert not isinstance(left.entries, LazyEntrySequence)
        assert result_signature(warm) == result_signature(cold)

    def test_segment_cache_over_sliced_lazy_traces(self, store):
        engine = get_engine("optimized")
        full_l, full_r = store.load("old"), store.load("new")
        gap_l, gap_r = full_l[10:60], full_r[12:70]
        cold = engine.diff(gap_l, gap_r)
        segments = SegmentCache(DiffCache())
        key = segments.key_for(gap_l, gap_r, engine.name, None)
        segments.put(key, cold, gap_l, gap_r)

        fresh_l = store.load("old")[10:60]
        fresh_r = store.load("new")[12:70]
        hit = segments.get(key, fresh_l, fresh_r)
        assert hit is not None
        assert result_signature(hit) == result_signature(cold)
        want_left, want_right = referenced(hit)
        assert materialised(fresh_l) == len(want_left)
        assert materialised(fresh_r) == len(want_right)

    def test_gap_wire_over_sliced_lazy_traces(self, store):
        # The process executor's gap results come back as wires and
        # rehydrate over lazy slices of the parent's traces.
        engine = get_engine("optimized")
        gap_l = store.load("old")[5:40]
        gap_r = store.load("new")[5:45]
        cold = engine.diff(gap_l, gap_r)
        back = result_from_wire(result_to_wire(cold),
                                store.load("old")[5:40],
                                store.load("new")[5:45])
        assert result_signature(back) == result_signature(cold)

    def test_eof_eid_rehydrates_to_the_sentinel(self, store, cold_result):
        wire = result_to_wire(cold_result)
        wire["sequences"].append({"kind": "delete", "left": [EOF.eid],
                                  "right": []})
        wire["similar_left"].append(EOF.eid)
        back = result_from_wire(wire, store.load("old"),
                                store.load("new"))
        assert back.sequences[-1].left_entries == [EOF]


def _tamper(wire: dict, field: str, eid) -> None:
    """Append ``eid`` to one eid field of ``wire`` (``name:side`` for
    the pair and sequence fields)."""
    if ":" not in field:
        wire[field].append(eid)
        return
    name, side = field.split(":")
    if name == "sequences":
        sequence = {"kind": "modify", "left": [], "right": []}
        sequence[side].append(eid)
        wire["sequences"].append(sequence)
    else:
        wire[name].append([eid, 0] if side == "left" else [0, eid])


FIELDS = ["similar_left", "similar_right", "match_pairs:left",
          "match_pairs:right", "anchor_pairs:left", "anchor_pairs:right",
          "sequences:left", "sequences:right"]


class TestTamperedWires:
    @pytest.mark.parametrize("lazy", [True, False], ids=["v3", "list"])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("eid", ["past", -2, 10**9])
    def test_absent_eid_is_a_counted_miss(self, store, cold_result,
                                          lazy, field, eid):
        if lazy:
            left, right = store.load("old"), store.load("new")
        else:
            left = myfaces_trace(min_range=32, name="old")
            right = myfaces_trace(min_range=1, new_version=True,
                                  name="new")
        if eid == "past":
            side = right if field.endswith("right") else left
            eid = len(side)
        wire = result_to_wire(cold_result)
        _tamper(wire, field, eid)
        cache = DiffCache()
        cache.put_wire("k", wire)
        assert cache.get("k", left, right) is None
        assert cache.stats().misses == 1
        with pytest.raises(ValueError, match="absent"):
            result_from_wire(wire, left, right)

    @pytest.mark.parametrize("field", FIELDS)
    def test_non_integer_eid_is_a_miss(self, store, cold_result, field):
        wire = result_to_wire(cold_result)
        _tamper(wire, field, 0.5)
        with pytest.raises(ValueError):
            result_from_wire(wire, store.load("old"), store.load("new"))

    def test_malformed_pair_is_a_miss(self, store, cold_result):
        wire = result_to_wire(cold_result)
        wire["match_pairs"].append([0, 0, 0])
        with pytest.raises(ValueError, match="malformed"):
            result_from_wire(wire, store.load("old"), store.load("new"))

    def test_untampered_wire_still_hits(self, store, cold_result):
        cache = DiffCache()
        cache.put_wire("k", result_to_wire(cold_result))
        hit = cache.get("k", store.load("old"), store.load("new"))
        assert hit is not None
        assert result_signature(hit) == result_signature(cold_result)
