"""Spans recorded from outside the program, for the traced run.

The traced run wraps public calls of each layer a diff crosses (the
table in README.md).  A wrapper records one span per call — name,
start, end, parent span and op id — into an in-memory list that is
summarised when the run ends.  Kernel calls are too many and too short
for one span each: they are *leaves*, counted and timed per op and
charged to the enclosing span as child time.

Wrappers exist only while a traced op runs (:meth:`Tracer.install`
to :meth:`Tracer.uninstall`); untraced runs install none.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import threading
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns


class Tracer:
    """Span store plus the monkeypatches that feed it."""

    def __init__(self):
        #: [name, start_ns, end_ns, parent_index, op_id]
        self.spans: list[list] = []
        #: (op_id, leaf name) -> [calls, ns]
        self.leaves: dict = defaultdict(lambda: [0, 0])
        #: (op_id, counter name) -> amount
        self.counts: dict = defaultdict(int)
        #: span index -> ns of leaf time spent directly under it
        self.leaf_child_ns: dict = defaultdict(int)
        self.op_id: int | None = None
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._backends: dict = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        # A span opened on a thread with nothing open (a service worker
        # thread) was caused by the op in flight: parent it to the root.
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_ns(), 0, parent, self.op_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_ns()
        self._stack().pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.root = None
        self.root = self.begin("op")

    def end_op(self) -> None:
        self.end(self.root)
        self.root = None
        self.op_id = None

    def count(self, name: str, amount: int = 1) -> None:
        if self.op_id is not None:
            with self._lock:
                self.counts[(self.op_id, name)] += amount

    def _leaf(self, name: str, ns: int) -> None:
        stack = self._stack()
        with self._lock:
            cell = self.leaves[(self.op_id, name)]
            cell[0] += 1
            cell[1] += ns
            if stack:
                self.leaf_child_ns[stack[-1]] += ns

    # -- patching ------------------------------------------------------------

    def _spanned(self, name: str, fn, size=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)
                if size is not None:
                    tracer.count(name + ".bytes", size(args))
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, size=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(
                self._spanned(name, raw.__func__, size)))
        else:
            self._patch(owner, attr, self._spanned(name, raw, size))

    def _leafed(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            started = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf("kernels", perf_ns() - started)
        return wrapper

    def _timed_backend(self, get_backend):
        def resolve(kernel=None):
            backend = get_backend(kernel)
            timed = self._backends.get(backend.name)
            if timed is None:
                timed = self._backends[backend.name] = dataclasses.replace(
                    backend,
                    lengths_row=self._leafed(backend.lengths_row),
                    dp_table=self._leafed(backend.dp_table),
                    common_run=self._leafed(backend.common_run),
                    common_run_back=self._leafed(backend.common_run_back))
            return timed
        return resolve

    def install(self) -> None:
        """Wrap every layer call of the README's per-layer table."""
        # Packages re-export functions named like their submodules
        # (``repro.core.view_diff``), so fetch the modules themselves.
        session, store, diffcache, view_diff, capture, diffing = (
            importlib.import_module(f"repro.{name}") for name in (
                "api.session", "api.store", "cache.diffcache",
                "core.view_diff", "exec.capture", "exec.diffing"))
        from repro.api.store import TraceStore
        from repro.cache.diffcache import DiffCache
        from repro.core.keytable import KeyTable
        from repro.core.view_diff import ViewDiffPlan
        from repro.core.web import ViewWeb
        from repro.index.traceindex import TraceIndex
        from repro.service.client import ServiceClient

        def path_size(args):
            try:
                return os.stat(args[0]).st_size
            except (OSError, TypeError):
                return 0

        def data_size(args):
            return len(args[0])

        self._wrap(TraceStore, "load", "store.load")
        self._wrap(TraceStore, "save", "store.save")
        self._wrap(store, "load_trace", "serialize.decode", path_size)
        self._wrap(capture, "loads_trace", "serialize.decode", data_size)
        self._wrap(store, "save_trace", "serialize.encode")
        self._wrap(diffing, "dumps_trace_bytes", "serialize.encode")
        self._wrap(TraceIndex, "record_diff", "index.record")
        self._wrap(TraceIndex, "record_save", "index.record")
        self._wrap(KeyTable, "for_pair", "keytable.for_pair")
        self._wrap(KeyTable, "ids_for", "keytable.ids_for")
        self._wrap(ViewDiffPlan, "__init__", "view_diff.plan")
        # Webs build their views lazily, on first use by the planner.
        self._wrap(ViewWeb, "__init__", "web.build")
        self._wrap(ViewWeb, "_build_type", "web.build")
        self._wrap(ViewWeb, "_build_metadata", "web.build")
        self._wrap(ViewDiffPlan, "run_pair", "view_diff.run_pair")
        self._wrap(ViewDiffPlan, "merge", "view_diff.merge")
        self._wrap(view_diff, "build_sequences", "diffs.build_sequences")
        self._patch(view_diff, "get_backend",
                    self._timed_backend(view_diff.get_backend))
        self._wrap(DiffCache, "get_via", "cache.probe")
        self._wrap(diffcache, "result_from_wire", "cache.rehydrate")
        self._wrap(session, "run_capture_tasks", "capture.batch")
        self._wrap(diffing, "executed_view_diff", "exec.view_diff")
        # Capture workers create their segments; the parent adopts them.
        self._wrap(capture, "adopt_segment_view", "ship.adopt")
        self._wrap(session, "analyze_regression", "regression.analyze")
        self._wrap(ServiceClient, "submit_diff", "service.submit")
        self._wrap(ServiceClient, "job", "service.poll")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def self_times(self) -> dict:
        """``{(op_id, name): self ns}``: each span's duration minus the
        part of its interval covered by child spans and leaves."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        totals: dict = defaultdict(int)
        for index, (name, start, end, _parent, op_id) in \
                enumerate(self.spans):
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                lo, hi = max(child_start, cursor), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            covered += self.leaf_child_ns.get(index, 0)
            totals[(op_id, name)] += max(0, end - start - covered)
        for (op_id, name), (_calls, ns) in self.leaves.items():
            totals[(op_id, name)] += ns
        return totals

    def calls(self, name: str) -> dict:
        """``{op_id: number of spans or leaf calls named name}``."""
        out: dict = defaultdict(int)
        for span in self.spans:
            if span[0] == name:
                out[span[4]] += 1
        for (op_id, leaf), (calls, _ns) in self.leaves.items():
            if leaf == name:
                out[op_id] += calls
        return out

