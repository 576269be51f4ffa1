"""Wall-clock benchmark of the trace-diff system.

    python3 wallbench/run.py --workload stored-diff --seed 1 \
        --seconds 15 --trace 0

Runs one seeded workload in a closed loop (one client, one op in
flight) for ``--seconds`` (whole rounds of the corpus), checks every
op's output against an oracle computed off the clock, and prints one
JSON object as the last line of standard output: the end-to-end metrics
with ``--trace 0``, the per-layer metrics (from spans recorded around
each layer's public calls) with ``--trace 1``.  Times are scaled to a
reference host speed measured by a calibration loop between ops (see
``calibrate``).  Exit status is 0 only when every output is
correct and the run left no child process or shared-memory segment
behind.  README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh per-run scratch space (store, cache) inside the checkout.
SCRATCH = ROOT / ".wallbench_tmp"
SHM_DIR = Path("/dev/shm")
#: Complete set-ups per run; setup_s is their median.
SETUPS = 2
#: The string-hash seed every run executes under (see ``__main__``).
HASH_SEED = "0"

#: Iterations of the calibration loop.
CAL_LOOPS = 16_000
#: The calibration loop's time at reference speed: its typical time on a
#: 2.0 GHz Sapphire Rapids vCPU under Python 3.11.  Every time metric is
#: scaled to this speed.
CAL_REFERENCE_NS = 12_000_000
#: The calibration loop's pointer chase: one cycle through 65,536 list
#: slots in seeded order, about 2 MiB with its int objects.
_CHASE = list(range(1 << 16))
random.Random(0).shuffle(_CHASE)


def calibrate() -> int:
    """Nanoseconds a fixed pure-Python loop takes now.

    The host's CPU speed drifts by up to half over tens of seconds,
    which moves every time metric with it.  A run times this loop after
    every op and scales its times by the ratio of ``CAL_REFERENCE_NS``
    to the median loop time.  The loop mixes the kinds of work the
    program does: dict and integer operations, reads scattered over a
    2 MiB table, and small allocations that are sorted and freed.  In a
    probe, each kind alone followed the program's speed less closely
    than the three together.  It runs with the collector off and leaves
    no garbage, so the program's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter_ns()
    table: dict = {}
    rows = []
    chase = _CHASE
    acc = slot = 0
    for i in range(CAL_LOOPS):
        key = i & 1023
        acc += table.get(key, i) ^ (i >> 3)
        table[key] = acc & 0xFFFF
        slot = chase[slot]
        if i & 3 == 0:
            rows.append((acc & 0x3FF, str(slot)))
    rows.sort()
    elapsed = time.perf_counter_ns() - started
    if enabled:
        gc.enable()
    return elapsed


def _calibrate_on_request(conn) -> None:
    """A calibration helper: one loop per request, until told to stop."""
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """Times the calibration loop in ``width`` processes at once: this
    one and ``width - 1`` forked helpers.  The vCPUs of a guest run at
    different speeds at the same moment (two loops started together
    took 15.0 and 17.5 ms, then 17.2 and 12.9 ms), so a workload that
    keeps several busy is timed against all of them."""

    def __init__(self, width: int):
        context = multiprocessing.get_context("fork")
        self.helpers = []
        for _ in range(width - 1):
            mine, theirs = context.Pipe()
            helper = context.Process(target=_calibrate_on_request,
                                     args=(theirs,), daemon=True)
            helper.start()
            self.helpers.append((helper, mine))

    def sample(self) -> float:
        """The mean time of one loop run in every process at once."""
        for _helper, conn in self.helpers:
            conn.send(True)
        times = [calibrate()]
        times += [conn.recv() for _helper, conn in self.helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for helper, conn in self.helpers:
            conn.send(False)
            helper.join()
        self.helpers = []


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)``: the highest percentile
    with at least 10 samples beyond it (nearest rank).  Runs with fewer
    than 20 samples have no such percentile at or above the median and
    report the median, with the samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    rank = math.ceil(n / 2)
    return statistics.median(ordered), 50.0, n - rank


def reset_peak_rss(pids) -> None:
    for pid in pids:
        try:
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        except OSError:
            pass


def peak_rss_mib(pids) -> float:
    """Sum of the processes' resident high-water marks since the last
    reset (VmHWM, reset by ``clear_refs``)."""
    total_kib = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        except OSError:
            pass
    return total_kib / 1024.0


def live_children() -> list[int]:
    """Processes whose parent is this process."""
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry.name))
    return children


def stop_resource_tracker() -> None:
    """The shared-memory layer starts multiprocessing's resource
    tracker; stop it so no helper process outlives the run."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def shm_names() -> set[str]:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


class Run:
    """One benchmark run: set-ups, the timed loop, checks, metrics."""

    def __init__(self, workload, seconds: float, traced: bool,
                 order_seed: str):
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.order_rng = random.Random(order_seed)
        self.ops: list[dict] = []
        #: Set-up times as measured.
        self.setup_seconds: list[float] = []
        self.problems: list[str] = []
        self.tracer = None
        self.counters_before: dict = {}
        self.counters_after: dict = {}
        self.peak_rss = 0.0
        self.footprint = (0, 1)
        #: Calibration loop times, one after every op.
        self.cal_samples: list[float] = []
        self.calibrator = Calibrator(workload.cpus)

    def set_up(self, workdir: Path):
        state = None
        for attempt in range(SETUPS):
            if state is not None:
                self.workload.close(state)
            started = time.perf_counter()
            state = self.workload.setup(workdir / f"setup{attempt}")
            self.setup_seconds.append(time.perf_counter() - started)
        self.workload.settle(state)
        # Freeze what the set-up built: the full collection that ends
        # each op then traverses what the timed phase made, not the
        # corpus, cache and service state every op would otherwise pay
        # to walk again.
        gc.collect()
        gc.freeze()
        return state

    def timed_loop(self, state) -> None:
        from tracing import Tracer
        from workloads import store_footprint

        workload = self.workload
        if self.traced:
            self.tracer = Tracer()
        self.counters_before = workload.counters(state)
        pids = workload.pids(state)
        reset_peak_rss(pids)
        # Whole rounds: rounds start until the time is up, and a started
        # round completes, so every corpus item is sampled equally often.
        deadline = time.perf_counter() + self.seconds
        op_id = 0
        while time.perf_counter() < deadline:
            items = list(state.items)
            self.order_rng.shuffle(items)
            for item in items:
                if self.tracer is None:
                    self.ops.append(self.one_op(state, item, op_id, False))
                    op_id += 1
                    continue
                # Traced runs run each item twice back to back, traced
                # and untraced in alternating order: the pair gives the
                # tracing overhead on the same input at the same time.
                first = op_id % 4 == 0
                for traced in (first, not first):
                    self.ops.append(self.one_op(state, item, op_id, traced))
                    op_id += 1
        self.peak_rss = peak_rss_mib(pids)
        self.counters_after = workload.counters(state)
        self.footprint = store_footprint(state.store)

    def one_op(self, state, item, op_id: int, traced: bool) -> dict:
        """One op, timed from the call to the end of a full collection
        of the garbage it left: the collector's cost is the op's.  The
        calibration after it and the reduction of its output run off the
        clock."""
        if traced:
            self.tracer.install()
            self.tracer.begin_op(op_id)
        error = None
        started = time.perf_counter_ns()
        try:
            output = self.workload.run_op(state, item, op_id)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            output, error = None, f"{type(exc).__name__}: {exc}"
        if traced:
            span = self.tracer.begin("gc.collect")
            gc.collect()
            self.tracer.end(span)
        else:
            gc.collect()
        elapsed = time.perf_counter_ns() - started
        if traced:
            self.tracer.end_op()
            self.tracer.uninstall()
        self.cal_samples.append(self.calibrator.sample())
        record = {"id": op_id, "item": item, "ns": elapsed,
                  "traced": traced, "error": error, "out": None}
        if error is None:
            record["out"] = self.workload.reduce(state, item, output)
        return record

    def check(self, state) -> int:
        """Compare every op's output with the oracle; returns the
        number of failed ops (errors plus wrong outputs)."""
        failed = 0
        for op in self.ops:
            if op["error"] is not None:
                failed += 1
                self.problems.append(f"op {op['id']} ({op['item'].name}) "
                                     f"raised {op['error']}")
                continue
            if op["out"].digest != op["item"].expected:
                failed += 1
                self.problems.append(f"op {op['id']} ({op['item'].name}) "
                                     f"returned a wrong result")
        return failed

    # -- metrics -------------------------------------------------------------

    def speed_factor(self) -> float:
        """What the run's measured times are multiplied by to give them
        at reference speed.  One factor for the whole run: a loop next
        to an op samples the host's speed too briefly to scale that op
        alone, and adds its own noise to it."""
        return CAL_REFERENCE_NS / statistics.median(self.cal_samples)

    def end_to_end(self) -> dict:
        factor = self.speed_factor()
        latencies = [op["ns"] * factor / 1e6 for op in self.ops]
        done = [op for op in self.ops if op["out"] is not None]
        entries = sum(op["out"].entries for op in done)
        # The timed wall time: the ops back to back, without the
        # benchmark's own work between them.
        busy = sum(op["ns"] for op in done) * factor / 1e9
        tail_ms, percentile, beyond = tail(latencies)
        print(f"latency_tail_ms is p{percentile:.1f} of {len(latencies)} "
              f"ops ({beyond} beyond it)")
        print(f"as measured: set-ups "
              f"{[round(s, 2) for s in self.setup_seconds]} s, latency p50 "
              f"{statistics.median(latencies) / factor:.1f} ms; "
              f"speed factor {factor:.3f}")
        store_bytes, stored_entries = self.footprint
        return {
            "setup_s": statistics.median(self.setup_seconds) * factor,
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "throughput_entries_s": entries / busy if busy else 0.0,
            "peak_rss_mb": self.peak_rss,
            "store_bytes_per_entry": store_bytes / max(1, stored_entries),
        }

    def per_layer(self) -> dict:
        tracer = self.tracer
        ops = self.ops
        traced = [op for op in ops if op["traced"]]
        n_traced = max(1, len(traced))
        n_ops = max(1, len(ops))
        self_ns = tracer.self_times()

        factor = self.speed_factor()

        def per_op_ms(span: str) -> float:
            return sum(self_ns.get((op["id"], span), 0)
                       for op in traced) * factor / 1e6 / n_traced

        def per_op_calls(name: str) -> float:
            calls = tracer.calls(name)
            return sum(calls.get(op["id"], 0) for op in traced) / n_traced

        # The spans, written out: self time and calls per traced op.
        for name in sorted({name for _op, name in self_ns}):
            print(f"span {name:24s} {per_op_ms(name):10.3f} ms/op "
                  f"{per_op_calls(name):9.1f} calls/op")

        def delta(name: str) -> int:
            return (self.counters_after.get(name, 0)
                    - self.counters_before.get(name, 0))

        done = [op for op in ops if op["out"] is not None]
        entries = sum(op["out"].entries for op in done)
        # A per-layer metric in ms is its span's self time ("x.y_ms" is
        # span "x.y"), unless computed below.
        metrics = {m["name"]: per_op_ms(m["name"][:-3])
                   for m in spec()["per_layer"] if m["unit"] == "ms"}
        decoded = sum(tracer.counts.get((op["id"], "serialize.decode.bytes"),
                                        0) for op in traced)
        saves = delta("stored")
        rows = delta("diff_rows")
        hits = delta("cache_hits_memory") + delta("cache_hits_disk")
        lookups = hits + delta("cache_misses")
        metrics.update({
            "serialize.decode_bytes": decoded / n_traced,
            "store.bytes_per_save": delta("store_bytes") / saves
            if saves else 0.0,
            "index.bytes_per_diff": delta("diff_bytes") / rows
            if rows else 0.0,
            "view_diff.pairs_per_op": per_op_calls("view_diff.run_pair"),
            "kernels.calls_per_op": per_op_calls("kernels"),
            "view_diff.compares_per_entry":
                sum(op["out"].compares for op in done) / max(1, entries),
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.hits_memory": delta("cache_hits_memory"),
            "cache.hits_disk": delta("cache_hits_disk"),
            "cache.misses": delta("cache_misses"),
            "capture.entries_per_op":
                sum(op["out"].captured for op in done) / n_ops,
            "ship.shm_segments_per_op": delta("shm_segments") / n_ops
            + per_op_calls("ship.adopt"),
            "ship.shm_bytes_per_op": delta("shm_bytes") / n_ops,
            "exec.leases_per_op": delta("leases") / n_ops,
            "service.polls_per_op": per_op_calls("service.poll"),
            "service.job_ms": sum(op["out"].job_seconds for op in done)
            * factor * 1e3 / max(1, len(done)),
            "service.overhead_ms": sum(
                op["ns"] / 1e6 - op["out"].job_seconds * 1e3
                for op in done) * factor / max(1, len(done))
            if any(op["out"].job_seconds for op in done) else 0.0,
        })

        # Tracing overhead: a traced run records ops in twin pairs (ops
        # 2k and 2k+1 ran the same item, one of them traced).
        ratios = [ops[i + 1]["ns"] / ops[i]["ns"] if ops[i + 1]["traced"]
                  else ops[i]["ns"] / ops[i + 1]["ns"]
                  for i in range(0, len(ops) - 1, 2)]
        metrics["trace.overhead_pct"] = \
            (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0
        metrics["trace.unattributed_pct"] = sum(
            self_ns.get((op["id"], "op"), 0) / op["ns"]
            for op in traced) * 100.0 / n_traced
        return metrics


def spec() -> dict:
    """The benchmark's declaration, BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units() -> dict:
    """Metric units as declared in BENCHMARK.json."""
    declared = spec()
    return {m["name"]: m["unit"]
            for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    from repro.exec.executors import shutdown_warm_pools

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, os.cpu_count() or 1)
    run = Run(workload, args.seconds, bool(args.trace),
              order_seed=f"order:{args.workload}:{args.seed}")
    shm_before = shm_names()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    state = None
    failed = 0
    try:
        state = run.set_up(workdir)
        run.timed_loop(state)
        failed = run.check(state)
        sizes = {op["item"].name: op["out"].entries
                 for op in run.ops if op["out"] is not None}
        print(f"{workload.name} seed {args.seed}: {len(sizes)} corpus items, "
              f"{sum(sizes.values())} entries: {sizes}")
    finally:
        run.calibrator.close()
        if state is not None:
            workload.close(state)
        shutdown_warm_pools()
        stop_resource_tracker()
        for child in multiprocessing.active_children():
            child.join(10)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    leftovers = live_children()
    if leftovers:
        run.problems.append(f"child processes outlived the run: {leftovers}")
    stray = shm_names() - shm_before
    if stray:
        run.problems.append(f"shared-memory segments outlived the run: "
                            f"{sorted(stray)}")
    for problem in run.problems:
        print(f"FAIL: {problem}")
    metrics = run.per_layer() if args.trace else run.end_to_end()
    unit_of = units()
    print(json.dumps({
        "correct": not run.problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    # Fix the interpreter's string-hash seed: with randomised hashing,
    # set and dict iteration orders (and with them the time an op takes)
    # change from process to process.  Identical stored-diff runs spread
    # 15% in throughput with random seeds and 2% with a fixed one.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
