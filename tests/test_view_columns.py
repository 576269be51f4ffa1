"""The views engine reads view columns, not entries.

The web's views and its object/thread metadata must equal an entry
walk over the paper's nu functions (``KEY_MAPPINGS``) on every trace
representation; a stored views diff must build only the entries its
difference sequences report plus the fork entries; results must not
depend on representation, slicing or executor; and the differ must
keep positions and entry ids apart (a slice, whose eids do not start
at 0, diffs like a renumbered copy of itself).
"""

import dataclasses

import pytest

from repro.analysis.serialize import dumps_trace_bytes, loads_trace
from repro.api import Session
from repro.api.engines import accepts_kwarg
from repro.api.store import TraceStore
from repro.cache import canonical_config
from repro.capture import TraceFilter, trace_call
from repro.core.columns import FORK_CODE
from repro.core.diffs import result_identity, result_signature
from repro.core.entries import EOF
from repro.core.events import Fork, Init
from repro.core.traces import LazyEntrySequence, Trace
from repro.core.view_diff import ViewDiffConfig, view_diff
from repro.core.views import KEY_MAPPINGS, ViewType
from repro.core.web import ObjectInfo, ThreadInfo, ViewWeb
from repro.exec.diffing import executed_view_diff
from repro.exec.executors import ProcessExecutor, ThreadExecutor
from repro.workloads.harness import SCENARIOS
from repro.workloads.minidb import scenario as derby

from helpers import myfaces_trace


def derby_batch(orders: int) -> list[str]:
    """A small Derby-1633 session: the real schema and queries over a
    few rows, so the captured trace stays multi-threaded (the daemon
    forks) but small."""
    setup = ["CREATE TABLE orders (id, region, amount)",
             "CREATE TABLE customers (name, region, tier)"]
    for i in range(1, orders + 1):
        setup.append(f"INSERT INTO orders VALUES ({i}, "
                     f"'{derby.REGIONS[i % 5]}', {20 + 37 * i})")
    for i in range(1, orders // 2 + 2):
        setup.append(f"INSERT INTO customers VALUES ('cust{i}', "
                     f"'{derby.REGIONS[(3 * i) % 5]}', {1 + i % 3})")
    return setup


@pytest.fixture(scope="module")
def derby_pair():
    spec = SCENARIOS["Derby-1633"]
    trace_filter = TraceFilter(include_modules=spec.filter_modules)
    payload = (derby_batch(4), list(derby.REGRESSING_QUERIES))
    old = trace_call(spec.run_old, payload, filter=trace_filter,
                     name="old").trace
    new = trace_call(spec.run_new, payload, filter=trace_filter,
                     name="new").trace
    return old, new


@pytest.fixture(scope="module")
def myfaces_pair():
    return (myfaces_trace(min_range=32, name="old"),
            myfaces_trace(min_range=1, new_version=True, name="new"))


def v3(trace: Trace) -> Trace:
    return loads_trace(dumps_trace_bytes(trace, version=3))


#: How each trace representation is made from a captured trace.
REPRESENTATIONS = {
    "list": lambda trace: trace,
    "v3": v3,
    "v3-slice": lambda trace: v3(trace)[3:],
    "v3-step-slice": lambda trace: v3(trace)[1::2],
    "v3-reversed": lambda trace: v3(trace)[::-1],
    "stored-slice": lambda trace: v3(trace[3:]),
}


def materialised(trace) -> set:
    """Eids of the entries built so far on a lazily decoded trace."""
    entries = trace.entries
    assert isinstance(entries, LazyEntrySequence)
    return {entry.eid for entry in entries._cache if entry is not None}


# -- the entry-walk oracle --------------------------------------------------


def oracle_views(trace: Trace, vtype: ViewType) -> list:
    views: dict = {}
    for position, entry in enumerate(trace.entries):
        key = KEY_MAPPINGS[vtype](entry)
        if key is not None:
            views.setdefault(key, []).append(position)
    return list(views.items())


def oracle_metadata(trace: Trace) -> tuple[list, list]:
    objects: dict = {}
    threads: dict = {}
    for entry in trace.entries:
        event = entry.event
        if isinstance(event, Init):
            obj = event.obj
            if obj.location is not None and obj.location not in objects:
                objects[obj.location] = ObjectInfo(
                    obj.location, obj.class_name, obj.creation_seq,
                    obj.serialization, entry.eid)
        elif isinstance(event, Fork):
            threads[event.child_tid] = ThreadInfo(
                event.child_tid, event.ancestry, entry.eid)
        target = event.target()
        if target is not None and target.location is not None \
                and target.location not in objects:
            objects[target.location] = ObjectInfo(
                target.location, target.class_name, target.creation_seq,
                target.serialization, None)
    for tid in trace.thread_ids():
        threads.setdefault(tid, ThreadInfo(tid, (), None))
    return list(objects.items()), list(threads.items())


def web_views(web: ViewWeb, vtype: ViewType) -> list:
    return [(key, list(view.indices))
            for key, view in web.typed_views(vtype).items()]


class TestColumnWeb:
    @pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
    @pytest.mark.parametrize("program", ["myfaces", "derby"])
    def test_web_equals_entry_walk(self, program, representation,
                                   myfaces_pair, derby_pair):
        captured = (myfaces_pair if program == "myfaces" else derby_pair)[0]
        make = REPRESENTATIONS[representation]
        trace, oracle = make(captured), make(captured)
        web = ViewWeb(trace)
        for vtype in ViewType:
            assert web_views(web, vtype) == oracle_views(oracle, vtype)
        objects, threads = oracle_metadata(oracle)
        assert list(web.objects.items()) == objects
        assert list(web.threads.items()) == threads
        if program == "derby":
            assert len(web.threads) > 1
            assert any(info.fork_eid is not None
                       for info in web.threads.values())

    @pytest.mark.parametrize("representation", ["v3", "v3-slice",
                                                "stored-slice"])
    def test_web_builds_only_fork_entries(self, representation,
                                          derby_pair):
        make = REPRESENTATIONS[representation]
        forks = {entry.eid for entry in make(derby_pair[0]).entries
                 if isinstance(entry.event, Fork)}
        assert forks
        trace = make(derby_pair[0])
        web = ViewWeb(trace)
        web.counts()
        assert web.threads and web.objects
        assert materialised(trace) == forks

    def test_offset_of_and_position_of_on_a_slice(self, myfaces_pair):
        trace = v3(myfaces_pair[0])[3:]
        web = ViewWeb(trace)
        for view in web.all_views():
            for offset, position in enumerate(view.indices):
                assert view.offset_of(position) == offset
                assert view.position_of(trace.entries[position].eid) \
                    == offset
        view = web.thread_view(trace.thread_ids()[0])
        assert view.position_of(0) == -1  # eid 0 was sliced away
        assert view.offset_of(len(trace)) == -1


class TestStoredViewsDiff:
    def test_builds_only_reported_and_fork_entries(self, tmp_path,
                                                   derby_pair):
        store = TraceStore(tmp_path / "store")
        store.save(derby_pair[0], key="old")
        store.save(derby_pair[1], key="new")
        left, right = store.load("old"), store.load("new")
        result = Session(store=store, cache=False).diff(left, right)
        assert result.sequences
        for trace, side in ((left, "left_entries"),
                            (right, "right_entries")):
            reported = {entry.eid for seq in result.sequences
                        for entry in getattr(seq, side)
                        if entry is not EOF}
            forks = {eid for eid, code in zip(trace.eid_column(),
                                              trace.view_columns().kinds)
                     if code == FORK_CODE}
            assert forks
            assert materialised(trace) == reported | forks
            assert len(materialised(trace)) < len(trace)


class TestRepresentationIdentity:
    @pytest.fixture(scope="class")
    def expected(self, derby_pair):
        return result_signature(view_diff(*derby_pair))

    @pytest.mark.parametrize("representation", ["v3", "stored-slice"])
    def test_v3_equals_list(self, representation, derby_pair):
        make = REPRESENTATIONS[representation]
        if representation == "v3":
            want = result_signature(view_diff(*derby_pair))
        else:
            want = result_signature(view_diff(derby_pair[0][3:],
                                              derby_pair[1][3:]))
        got = view_diff(make(derby_pair[0]), make(derby_pair[1]))
        assert result_signature(got) == want

    def test_sliced_v3_equals_sliced_list(self, derby_pair):
        want = view_diff(derby_pair[0][3:], derby_pair[1][5:])
        got = view_diff(v3(derby_pair[0])[3:], v3(derby_pair[1])[5:])
        assert result_signature(got) == result_signature(want)

    def test_thread_executor(self, derby_pair, expected):
        with ThreadExecutor(max_workers=2) as executor:
            got = executed_view_diff(v3(derby_pair[0]), v3(derby_pair[1]),
                                     executor=executor)
        assert result_signature(got) == expected

    def test_process_executor(self, derby_pair, expected):
        with ProcessExecutor(max_workers=2) as executor:
            got = executed_view_diff(v3(derby_pair[0]), v3(derby_pair[1]),
                                     executor=executor)
        assert result_signature(got) == expected

    def test_process_executor_on_slices(self, derby_pair):
        want = view_diff(derby_pair[0][3:], derby_pair[1][5:])
        with ProcessExecutor(max_workers=2) as executor:
            got = executed_view_diff(v3(derby_pair[0])[3:],
                                     v3(derby_pair[1])[5:],
                                     executor=executor)
        assert result_signature(got) == result_signature(want)


# -- positions vs entry ids --------------------------------------------------


def renumbered(trace: Trace) -> Trace:
    """A copy of ``trace`` whose eids are its positions."""
    return Trace([dataclasses.replace(entry, eid=position)
                  for position, entry in enumerate(trace.entries)],
                 name=trace.name)


def shifted(identity: tuple, left: int, right: int) -> tuple:
    """A :func:`result_identity` with every eid moved by the given
    per-side offsets."""
    sim_l, sim_r, matches, anchors, sequences = identity
    return (tuple(e + left for e in sim_l),
            tuple(e + right for e in sim_r),
            tuple((a + left, b + right) for a, b in matches),
            tuple((a + left, b + right) for a, b in anchors),
            tuple((kind, tuple(e + left for e in ls),
                   tuple(e + right for e in rs))
                  for kind, ls, rs in sequences))


class TestSlicedViewsDiff:
    @pytest.mark.parametrize("representation", ["list", "v3"])
    @pytest.mark.parametrize("program", ["myfaces", "derby"])
    def test_slice_diffs_like_its_renumbered_copy(
            self, program, representation, myfaces_pair, derby_pair):
        pair = myfaces_pair if program == "myfaces" else derby_pair
        make = REPRESENTATIONS[representation]
        left, right = make(pair[0])[3:], make(pair[1])[5:]
        got = view_diff(left, right)
        want = view_diff(renumbered(left), renumbered(right))
        assert got.num_diffs() == want.num_diffs() > 0
        assert got.compares() == want.compares()
        assert result_identity(got) == shifted(result_identity(want), 3, 5)

    def test_sliced_pair_with_offset_eids(self):
        """The case that raised ``KeyError: 0`` when view positions were
        looked up as eids."""
        result = view_diff(myfaces_trace(min_range=32)[3:],
                           myfaces_trace(min_range=1, new_version=True)[5:])
        assert min(result.similar_left) >= 3
        assert min(result.similar_right) >= 5
        assert result.sequences


# -- the fixed per-call cost of Session.diff ---------------------------------


class TestSessionDiffOverhead:
    def test_canonical_config_text_is_pinned(self):
        """Disk caches are keyed by this text: it must not change."""
        assert canonical_config(None) == (
            '{"anchor_max_occurrence":1,"anchor_method_hints":[],'
            '"anchor_min_run":2,"anchored":false,"interned":true,'
            '"max_secondary_pairs":4,"radius":4,"relaxed":true,'
            '"scan_limit":null,"skip_lcs_cells":4096,'
            '"view_types":["METHOD","TARGET_OBJECT","ACTIVE_OBJECT"],'
            '"window":12}')
        config = ViewDiffConfig(window=5, anchored=True, scan_limit=7,
                                anchor_method_hints=("a.b", "c"),
                                view_types=(ViewType.METHOD,),
                                kernel="scalar")
        assert canonical_config(config) == (
            '{"anchor_max_occurrence":1,"anchor_method_hints":["a.b","c"],'
            '"anchor_min_run":2,"anchored":true,"interned":true,'
            '"max_secondary_pairs":4,"radius":4,"relaxed":true,'
            '"scan_limit":7,"skip_lcs_cells":4096,'
            '"view_types":["METHOD"],"window":5}')

    def test_signature_inspected_once_per_diff_function(self, monkeypatch):
        import inspect

        calls = []
        real = inspect.signature

        def counting(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)

        class Plain:
            name = "plain-test"

            def diff(self, left, right, *, config=None, counter=None):
                return None

        class Open:
            name = "open-test"

            def diff(self, left, right, **kwargs):
                return None

        for engine in (Plain(), Plain(), Open()):
            for _ in range(3):
                assert accepts_kwarg(engine, "config")
                assert accepts_kwarg(engine, "key_table") \
                    == isinstance(engine, Open)
        assert len(calls) == 2
