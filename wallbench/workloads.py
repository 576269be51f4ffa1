"""The three workloads: set-up, one op, and the off-the-clock oracle.

Each workload object is driven by ``run.py``: ``setup`` is called
several times (each a complete, fresh set-up; only the last one is
kept), ``settle`` then fills every corpus item's ``expected`` output
off the clock, and ``run_op`` runs in a closed loop; ``reduce`` turns
each op's output into what is compared with ``expected``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from corpus import (capture_corpus, corpus_programs, recipe_inputs,
                    recipe_items)
from repro.api import Session, TraceStore
from repro.core.diffs import result_identity, result_signature
from repro.core.regression import evaluate_against_truth
from repro.core.view_diff import view_diff
from repro.exec.executors import (shared_process_executor,
                                  shutdown_warm_pools)
from repro.exec.shm import shm_stats
from repro.service import ReproService, ServiceClient, ServiceThread
from repro.workloads.minijs.bug_registry import MINIJS_BUGS
from repro.workloads.minijs.scenario import MINIJS_FILTER

#: Poll interval of the service client: far below one cache hit
#: (tens of milliseconds), so polling adds little to an op.
POLL_SECONDS = 0.002


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode("utf-8"),
                           digest_size=16).hexdigest()


@dataclass(slots=True)
class OpOutput:
    """What one op produced, reduced off the clock to what the oracle
    compares, plus the work it represents."""

    digest: str
    entries: int
    compares: int = 0
    captured: int = 0
    job_seconds: float = 0.0


@dataclass(slots=True)
class State:
    """One set-up's live objects."""

    store: TraceStore
    items: list
    pool: object = None
    service: object = None
    client: ServiceClient | None = None
    extras: dict = field(default_factory=dict)


def tree_bytes(root: Path) -> int:
    """Total size of the ``*.jsonl`` files under ``root``."""
    if not root.is_dir():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*.jsonl"))


def store_footprint(store: TraceStore) -> tuple[int, int]:
    """``(bytes, entries)`` of the stored traces: the trace files plus
    their catalog save rows (per-diff catalog rows are left out — they
    grow with run length, not with what is stored)."""
    records = store.records()
    trace_bytes = sum(record.path.stat().st_size for record in records)
    catalog = tree_bytes(store.root / "index.d" / "traces")
    return trace_bytes + catalog, sum(record.entries for record in records)


def diff_rows(store: TraceStore) -> tuple[int, int]:
    """``(bytes, rows)`` of the catalog's per-diff stat rows."""
    base = store.root / "index.d" / "diffs"
    if not base.is_dir():
        return 0, 0
    size = rows = 0
    for path in base.glob("*.jsonl"):
        data = path.read_bytes()
        size += len(data)
        rows += data.count(b"\n")
    return size, rows


class Workload:
    name = ""

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        #: How many CPUs an op keeps busy at once.
        self.cpus = 1

    def rng(self) -> random.Random:
        # A fresh stream per set-up: every set-up of a run generates
        # the same inputs.
        return random.Random(f"{self.name}:{self.seed}")

    def settle(self, state: State) -> None:
        """Off-the-clock preparation after the last set-up."""

    def pids(self, state: State) -> list[int]:
        return [os.getpid()]

    def counters(self, state: State) -> dict:
        """Counters read from public stats APIs (before and after the
        timed phase)."""
        shm = shm_stats()
        out = {"shm_segments": shm["segments_created"],
               "shm_bytes": shm["bytes_shipped"] + shm["bytes_received"],
               "stored": len(state.store.keys())}
        out["store_bytes"], _ = store_footprint(state.store)
        out["diff_bytes"], out["diff_rows"] = diff_rows(state.store)
        return out

    def close(self, state: State) -> None:
        shutdown_warm_pools()


class StoredDiff(Workload):
    """Cold offline diffs of stored pairs: ``Session(store=...).diff``
    with the views engine, a serial executor and no cache."""

    name = "stored-diff"

    def setup(self, workdir: Path) -> State:
        store = TraceStore(workdir / "store")
        corpus = capture_corpus(corpus_programs(self.rng()), store)
        return State(store=store, items=corpus.pairs,
                     extras={"traces": corpus.traces})

    def settle(self, state: State) -> None:
        # The oracle: in-memory diffs of the captured traces, taken
        # once the set-up clock has stopped.  The traces are dropped
        # afterwards so the timed phase does not carry them.
        traces = state.extras.pop("traces")
        for pair in state.items:
            pair.expected = digest(result_identity(
                view_diff(traces[pair.left], traces[pair.right])))

    def run_op(self, state: State, item, op_id: int):
        return Session(store=state.store).diff(item.left, item.right)

    def reduce(self, state: State, item, result) -> OpOutput:
        return OpOutput(digest(result_identity(result)), item.entries,
                        compares=result.counter.total)


class ServiceRediff(Workload):
    """Repeat diff queries through ``repro.service``; set-up diffs
    every corpus pair once, so every timed request is a cache hit."""

    name = "service-rediff"

    def setup(self, workdir: Path) -> State:
        store = TraceStore(workdir / "store")
        corpus = capture_corpus(corpus_programs(self.rng()), store)
        service = ReproService(store, workers=min(2, self.nproc),
                               cache=True)
        thread = ServiceThread(service)
        thread.__enter__()
        client = ServiceClient(service.url)
        state = State(store=store, items=corpus.pairs, service=thread,
                      client=client, extras={"cache": service.session.cache})
        try:
            for pair in corpus.pairs:
                record = client.wait(client.submit_diff(pair.left,
                                                        pair.right))
                pair.expected = digest(record["result"]["signature"])
        except BaseException:
            self.close(state)
            raise
        return state

    def run_op(self, state: State, item, op_id: int):
        client = state.client
        return client.wait(client.submit_diff(item.left, item.right),
                           poll=POLL_SECONDS)

    def reduce(self, state: State, item, record) -> OpOutput:
        result = record["result"]
        return OpOutput(digest(result["signature"]), item.entries,
                        compares=0 if result["cached"]
                        else result["compares"],
                        job_seconds=record["seconds"])

    def counters(self, state: State) -> dict:
        out = super().counters(state)
        stats = state.extras["cache"].stats()
        out.update(cache_hits_memory=stats.hits_memory,
                   cache_hits_disk=stats.hits_disk,
                   cache_misses=stats.misses)
        return out

    def close(self, state: State) -> None:
        try:
            if state.service is not None:
                state.service.__exit__(None, None, None)
        finally:
            super().close(state)


class Recipe(Workload):
    """The online Sec. 4 recipe: ``Session.run_scenario`` on a seeded
    minijs (bug, scale), on a warm process pool, no cache."""

    name = "recipe"

    def __init__(self, seed: int, nproc: int):
        super().__init__(seed, nproc)
        # The pool's workers capture in parallel.
        self.cpus = nproc

    def setup(self, workdir: Path) -> State:
        items = recipe_items(self.rng())
        store = TraceStore(workdir / "store")
        shutdown_warm_pools()
        pool = shared_process_executor(self.nproc)
        state = State(store=store, items=items, pool=pool)
        # Warm the pool with one recipe op, at scale 0 on every seed: its
        # workers load the capture and minijs code now, not in the first
        # timed op.
        self.run_op(state, min(items, key=lambda item: item.scale), "warm")
        return state

    def pids(self, state: State) -> list[int]:
        return [os.getpid(), *state.pool.worker_pids]

    def run_op(self, state: State, item, op_id: int):
        old, new, bad, good = recipe_inputs(item)
        session = Session(store=state.store,
                          executor=f"processes:{self.nproc}")
        with session.with_filter(MINIJS_FILTER) as s:
            return s.run_scenario(old, new, bad, good, name=item.name,
                                  store_prefix=f"op{op_id}")

    def reduce(self, state: State, item, result) -> OpOutput:
        entries = sum(len(trace) for trace in result.traces.values())
        return OpOutput(recipe_outcome(item, result), entries,
                        compares=result.compares(), captured=entries)

    def settle(self, state: State) -> None:
        # The oracle: a serial, uncached run of each item, two at a time
        # on the warm pool's workers.
        for item, expected in zip(state.items,
                                  state.pool.map(serial_outcome, state.items)):
            item.expected = expected

    def counters(self, state: State) -> dict:
        out = super().counters(state)
        out["leases"] = state.pool.stats()["tasks_leased"]
        return out


def recipe_outcome(item, result) -> str:
    """What a recipe op is checked on: its three diff signatures and
    the false-negative count against the bug's ground truth."""
    spec = MINIJS_BUGS.get(item.bug)
    truth = evaluate_against_truth(result.report, spec.cause_predicate,
                                   expected_cause_marks=spec.cause_marks)
    return digest((tuple(result_signature(d) for d in result.diffs()),
                   truth.false_negatives))


def serial_outcome(item) -> str:
    """``recipe_outcome`` of a serial, uncached run of ``item`` (runs in
    a pool worker)."""
    old, new, bad, good = recipe_inputs(item)
    with Session().with_filter(MINIJS_FILTER) as s:
        return recipe_outcome(item, s.run_scenario(old, new, bad, good,
                                                   name=item.name))


WORKLOADS = {cls.name: cls for cls in (StoredDiff, Recipe, ServiceRediff)}
