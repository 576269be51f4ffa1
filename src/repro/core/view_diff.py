"""Views-based trace differencing (Sec. 3.3, Fig. 12) — the contribution.

Each pair of correlated thread views is evaluated in lock step:

* STEP-VIEW-MATCH — equal heads (``=e``) are removed and placed in the
  similarity set ``sigma``.
* STEP-VIEW-NOMATCH — on differing heads, secondary views *linked* to
  nearby entries are explored (``LinkedSimilarEntries``): entries within a
  constant distance ``delta`` of the current positions whose views of some
  type are correlated (X_chi) have the LCS computed over fixed windows
  (``omega``) of those views.  Entries in the windowed LCS are marked
  similar ("anchors" in Fig. 13) even when they are far apart in the
  thread views — this is what makes the approach resilient to reordered
  operations.  The evaluation then skips to the next point of
  correspondence and resumes lock-step scanning.

The implementation is linear in time and space: windows are constant-size,
each (view-pair, window) is explored at most once, and the
next-correspondence search's overshoot is bounded by the distance actually
skipped.

RPRISM's relaxed correlation (Sec. 5) is implemented here: when two
entries sit at the *same distance* from the current (known-correlated)
positions, their method/object views are treated as correlated even if
their names differ — providing tolerance to rename/split/merge
refactorings.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.anchors import AnchorConfig, select_anchor_runs
from repro.core.correlation import ViewCorrelator
from repro.core.columns import eids_at, pairs_to_eids
from repro.core.diffs import DiffResult, DifferenceSequence, build_sequences
from repro.core.kernels import get_backend
from repro.core.keytable import KeyTable
from repro.core.lcs import OpCounter, lcs_dp
from repro.core.traces import Trace
from repro.core.views import COLUMN_KEYS, View, ViewType
from repro.core.web import ViewWeb


@dataclass(slots=True)
class ViewDiffConfig:
    """Tunable parameters of the views-based differencing semantics."""

    #: omega — radius of the fixed-size windows over secondary views that
    #: the LCS is computed on (Fig. 9's ``win``).
    window: int = 12
    #: delta — how far around the differing entries tau_1/tau_3 to look
    #: for entries with correlated secondary views
    #: (SIMILAR-FROM-LINKED-VIEWS's first two antecedent lines).
    radius: int = 4
    #: Secondary view types explored by LinkedSimilarEntries.
    view_types: tuple[ViewType, ...] = (
        ViewType.METHOD, ViewType.TARGET_OBJECT, ViewType.ACTIVE_OBJECT)
    #: Enable RPRISM's relaxed same-distance correlation (Sec. 5).
    relaxed: bool = True
    #: Cap on distinct correlated view pairs explored per nomatch point.
    max_secondary_pairs: int = 4
    #: Cap on next-correspondence overshoot; ``None`` means scan to the end
    #: (still amortised-linear, see module docstring).
    scan_limit: int | None = None
    #: Cell cap for aligning the two skipped segments of a NOMATCH step
    #: with a small LCS (recovers equal entries inside the skipped
    #: region).  Each entry joins at most one such LCS, so the pass stays
    #: linear; 0 disables it.
    skip_lcs_cells: int = 4096
    #: Compare interned key-table ids instead of ``=e`` key tuples.
    #: Interning is a bijection on keys, so the similarity sets are
    #: identical either way; ``False`` restores the tuple path.
    interned: bool = True
    #: Anchored evaluation (:mod:`repro.core.anchors`): precompute
    #: patience-style ``=e`` anchor runs per correlated thread pair and
    #: bulk-match them without per-entry compares whenever the
    #: lock-step scan reaches a run start exactly aligned.  The scan's
    #: state trajectory — and therefore sigma, the matched pairs, the
    #: anchors, and the sequences — is identical to the unanchored
    #: evaluation; only the compare count drops.
    anchored: bool = False
    #: Anchor runs shorter than this are not trusted
    #: (:attr:`~repro.core.anchors.AnchorConfig.min_run`).
    anchor_min_run: int = 2
    #: Occurrence cap for anchor candidate keys
    #: (:attr:`~repro.core.anchors.AnchorConfig.max_occurrence`).
    anchor_max_occurrence: int = 1
    #: Method names predicted unstable (typically
    #: ``PredictedImpact.method_hints()`` from
    #: :mod:`repro.static.impact`): with ``anchored``, entries of these
    #: methods are barred from anchor candidacy so anchors land in
    #: predicted-stable regions.  Results are identical either way
    #: (anchored evaluation is trajectory-preserving); only anchor
    #: placement and compare counts shift.
    anchor_method_hints: tuple[str, ...] = ()
    #: Kernel backend for the inner compare loops
    #: (:mod:`repro.core.kernels`): ``"scalar"``, ``"stdlib"``,
    #: ``"numpy"``, or ``None``/``"auto"`` to auto-detect (the
    #: ``REPRO_KERNEL`` environment variable overrides auto).  A pure
    #: performance knob: results and compare counts are bit-identical
    #: across backends, so it does not participate in cache keys.
    kernel: str | None = None


class _ThreadPairDiffer:
    """Lock-step evaluation of one correlated thread-view pair.

    Everything here is in trace *positions* — the similarity marks, the
    matched and anchor pairs — read from the two webs' view columns;
    :meth:`ViewDiffPlan.merge` translates positions to entry ids once.
    """

    def __init__(self, left_view: View, right_view: View, web_l: ViewWeb,
                 web_r: ViewWeb, correlator: ViewCorrelator,
                 config: ViewDiffConfig, counter: OpCounter,
                 similar_left: set[int], similar_right: set[int],
                 anchor_pairs: list[tuple[int, int]],
                 ids_l=None, ids_r=None,
                 window_keys_l: dict | None = None,
                 window_keys_r: dict | None = None):
        self.lv = left_view
        self.rv = right_view
        self.web_l = web_l
        self.web_r = web_r
        self.correlator = correlator
        self.config = config
        self.counter = counter
        self.similar_left = similar_left
        self.similar_right = similar_right
        self.anchor_pairs = anchor_pairs
        # Full-trace interned id columns (None on the tuple-key path).
        self.ids_l = ids_l
        self.ids_r = ids_r
        # Secondary-view window key caches, shared across the pair's
        # thread differs: (view name, lo, hi) -> key list.
        self._window_keys_l = window_keys_l if window_keys_l is not None \
            else {}
        self._window_keys_r = window_keys_r if window_keys_r is not None \
            else {}
        # The secondary view types' key columns; their views are built
        # on the first NOMATCH step that explores them, and cached here
        # by type tag.
        self._key_columns = [
            (vtype, vtype.value, COLUMN_KEYS[vtype](web_l.columns),
             COLUMN_KEYS[vtype](web_r.columns))
            for vtype in config.view_types]
        self._views_l: dict[str, dict] = {}
        self._views_r: dict[str, dict] = {}
        self._bucket_width = max(config.window, 1)
        # Per-view key caches: position -> =e key (interned id or tuple).
        self.lkeys = self._thread_keys(left_view, ids_l)
        self.rkeys = self._thread_keys(right_view, ids_r)
        # key -> sorted positions, for the next-correspondence search.
        self.rpos: dict = {}
        for pos, key in enumerate(self.rkeys):
            self.rpos.setdefault(key, []).append(pos)
        # (left view name, right view name, window bucket) pairs already
        # explored, so each window is LCS'd at most once.
        self._explored: set[tuple] = set()
        # Anchored positions (in the two thread views) found by secondary
        # view exploration and still ahead of the scan.
        self._pending_anchors: list[tuple[int, int]] = []
        # Kernel backend for the lock-step scans and window LCS fills.
        self._backend = get_backend(config.kernel)
        # Anchored evaluation: (run start left, run start right) ->
        # run length, bulk-matched compare-free when the scan lands on
        # a start exactly aligned (see ViewDiffConfig.anchored).
        self._anchor_starts: dict[tuple[int, int], int] = {}
        # Run starts per diagonal (right - left), sorted by left
        # position: the bulk lock-step scan must stop exactly where
        # the scalar trajectory would take the anchor fast path.
        self._diag_starts: dict[int, list[int]] = {}
        if config.anchored:
            exclude_l = exclude_r = None
            if config.anchor_method_hints:
                hinted = set(config.anchor_method_hints)
                methods_l = web_l.columns.methods
                methods_r = web_r.columns.methods
                exclude_l = {pos for pos, index
                             in enumerate(left_view.indices)
                             if methods_l[index] in hinted}
                exclude_r = {pos for pos, index
                             in enumerate(right_view.indices)
                             if methods_r[index] in hinted}
            runs = select_anchor_runs(
                self.lkeys, self.rkeys,
                AnchorConfig.from_view_config(config), counter=counter,
                kernel=self._backend, exclude_left=exclude_l,
                exclude_right=exclude_r)
            self._anchor_starts = {(run.left, run.right): run.length
                                   for run in runs}
            for run in runs:
                self._diag_starts.setdefault(
                    run.right - run.left, []).append(run.left)
            for starts in self._diag_starts.values():
                starts.sort()

    @staticmethod
    def _thread_keys(view: View, ids) -> list:
        """The ``=e`` keys of a thread view's members: interned ids, or
        key tuples (built from the entries) on the tuple path."""
        if ids is not None:
            return list(map(ids.__getitem__, view.indices))
        entries = view.trace.entries
        return [entries[index].key() for index in view.indices]

    # -- driver --------------------------------------------------------------

    def run(self) -> list[tuple[int, int]]:
        """Evaluate the pair, returning the monotonic match pairs
        (left position, right position)."""
        lv, rv = self.lv, self.rv
        lkeys, rkeys = self.lkeys, self.rkeys
        indices_l, indices_r = lv.indices, rv.indices
        similar_left, similar_right = self.similar_left, self.similar_right
        n, m = len(lkeys), len(rkeys)
        match_pairs: list[tuple[int, int]] = []
        anchor_starts = self._anchor_starts
        diag_starts = self._diag_starts
        common_run = self._backend.common_run
        i = j = 0
        while i < n and j < m:
            if anchor_starts:
                # Anchored fast path: an aligned common run is matched
                # wholesale, exactly as L consecutive STEP-VIEW-MATCH
                # steps would — minus their L entry compares.  The
                # bookkeeping is bulk slice/zip work, O(1) compare
                # credit (zero: the run was verified at selection).
                run_length = anchor_starts.get((i, j))
                if run_length:
                    left_run = indices_l[i:i + run_length]
                    right_run = indices_r[j:j + run_length]
                    similar_left.update(left_run)
                    similar_right.update(right_run)
                    match_pairs.extend(zip(left_run, right_run))
                    i += run_length
                    j += run_length
                    continue
            self.counter.bump()
            if lkeys[i] == rkeys[j]:
                # STEP-VIEW-MATCH, bulk-extended: the whole equal run
                # is consumed through the kernel scan.  The scan may
                # not cross the next anchor start on this diagonal —
                # the scalar trajectory would bulk-match there with
                # zero compares — and is credited one compare per
                # matched entry, exactly the per-step bumps; the
                # stopping mismatch (or anchor/bounds check) is
                # re-examined by the next loop iteration, which bumps
                # it when (and only when) the scalar loop would.
                limit = n - i if n - i <= m - j else m - j
                if diag_starts:
                    starts = diag_starts.get(j - i)
                    if starts:
                        at = bisect_left(starts, i + 1)
                        if at < len(starts) and starts[at] - i < limit:
                            limit = starts[at] - i
                run = 1 + common_run(lkeys, rkeys, i + 1, j + 1,
                                     limit - 1)
                self.counter.bump(run - 1)
                left_run = indices_l[i:i + run]
                right_run = indices_r[j:j + run]
                similar_left.update(left_run)
                similar_right.update(right_run)
                match_pairs.extend(zip(left_run, right_run))
                i += run
                j += run
                continue
            # STEP-VIEW-NOMATCH
            self._linked_similar_entries(i, j)
            ni, nj = self._next_correspondence(i, j)
            if (ni, nj) == (i, j):  # pragma: no cover - defensive
                ni, nj = i + 1, j + 1
            self._align_skipped(i, ni, j, nj, match_pairs)
            i, j = ni, nj
        return match_pairs

    def _align_skipped(self, i: int, ni: int, j: int, nj: int,
                       match_pairs: list[tuple[int, int]]) -> None:
        """Recover equal entries inside the skipped NOMATCH region with a
        small bounded LCS over the two skipped segments."""
        cells = self.config.skip_lcs_cells
        width_l = ni - i
        width_r = nj - j
        if cells <= 0 or width_l == 0 or width_r == 0 or \
                width_l * width_r > cells:
            return
        lcs = lcs_dp(self.lkeys[i:ni], self.rkeys[j:nj],
                     counter=self.counter, kernel=self._backend)
        indices_l, indices_r = self.lv.indices, self.rv.indices
        for wi, wj in lcs.pairs:
            left = indices_l[i + wi]
            right = indices_r[j + wj]
            self.similar_left.add(left)
            self.similar_right.add(right)
            match_pairs.append((left, right))

    # -- LinkedSimilarEntries (SIMILAR-FROM-LINKED-VIEWS) ----------------------

    def _linked_similar_entries(self, i: int, j: int) -> None:
        """Explore secondary views linked near positions (i, j) and mark
        windowed-LCS entries as similar."""
        config = self.config
        indices_l, indices_r = self.lv.indices, self.rv.indices
        correlate = self.correlator.correlate_view_keys
        explore = self._explore_view_pair
        radius = config.radius
        lo_l = max(0, i - radius)
        hi_l = min(len(indices_l), i + radius + 1)
        lo_r = max(0, j - radius)
        hi_r = min(len(indices_r), j + radius + 1)
        secondary = self._key_columns
        # The secondary-view keys of every nearby entry, read once.
        near_r = [(pr, indices_r[pr],
                   [keys_r[indices_r[pr]]
                    for _vtype, _tag, _keys_l, keys_r in secondary])
                  for pr in range(lo_r, hi_r)]
        explored_now = 0
        for pl in range(lo_l, hi_l):
            tau5 = indices_l[pl]
            keys5 = [keys_l[tau5]
                     for _vtype, _tag, keys_l, _keys_r in secondary]
            for pr, tau6, keys6 in near_r:
                if explored_now >= config.max_secondary_pairs:
                    return
                relaxed = config.relaxed and (pl - i) == (pr - j)
                for (vtype, tag, _l, _r), key_l, key_r in zip(
                        secondary, keys5, keys6):
                    keys = correlate(vtype, key_l, key_r)
                    if keys is None and relaxed and key_l is not None \
                            and key_r is not None:
                        # Relaxed correlation: same distance from the
                        # current (correlated) positions.
                        keys = (key_l, key_r)
                    if keys is None:
                        continue
                    if explore(vtype, tag, key_l, key_r, tau5, tau6):
                        explored_now += 1

    def _explore_view_pair(self, vtype: ViewType, tag: str, key_l, key_r,
                           center_l: int, center_r: int) -> bool:
        """Windowed LCS over one correlated secondary-view pair, centred
        on the entries at trace positions ``center_l`` / ``center_r``
        (``tag`` is ``vtype.value``, which hashes faster).

        Returns True if a (new) exploration was performed.
        """
        views_l = self._views_l.get(tag)
        if views_l is None:
            views_l = self._views_l[tag] = self.web_l.typed_views(vtype)
            self._views_r[tag] = self.web_r.typed_views(vtype)
        view_l = views_l.get(key_l)
        view_r = self._views_r[tag].get(key_r)
        if view_l is None or view_r is None:
            return False
        # The keys are the centres' own keys of this type, so each
        # centre is a member of its view.
        pos_l = view_l.offsets[center_l]
        pos_r = view_r.offsets[center_r]
        width = self._bucket_width
        bucket = (tag, key_l, key_r, pos_l // width, pos_r // width)
        if bucket in self._explored:
            return False
        self._explored.add(bucket)
        omega = self.config.window
        index_l, keys_l = self._window_keys(view_l, pos_l, omega,
                                            self.ids_l,
                                            self._window_keys_l)
        index_r, keys_r = self._window_keys(view_r, pos_r, omega,
                                            self.ids_r,
                                            self._window_keys_r)
        if not keys_l or not keys_r:
            return True
        lcs = lcs_dp(keys_l, keys_r, counter=self.counter,
                     kernel=self._backend)
        lv, rv = self.lv, self.rv
        for wi, wj in lcs.pairs:
            left = index_l[wi]
            right = index_r[wj]
            self.similar_left.add(left)
            self.similar_right.add(right)
            self.anchor_pairs.append((left, right))
            # If both anchored entries live in the main thread views ahead
            # of the scan, they become correspondence candidates.
            apl = lv.offset_of(left)
            apr = rv.offset_of(right)
            if apl >= 0 and apr >= 0:
                self._pending_anchors.append((apl, apr))
        return True

    @staticmethod
    def _window_keys(view: View, position: int, omega: int, ids,
                     cache: dict):
        """The (index slice, key list) of one secondary-view window,
        memoised per (view, lo, hi) across every thread-pair differ of
        the trace pair."""
        lo = max(0, position - omega)
        hi = min(len(view.indices), position + omega + 1)
        # Views are owned by their web for the differ's whole lifetime,
        # so id() is a stable (and cheap) cache token here.
        token = (id(view), lo, hi)
        got = cache.get(token)
        if got is None:
            index = view.indices[lo:hi]
            if ids is not None:
                keys = list(map(ids.__getitem__, index))
            else:
                entries = view.trace.entries
                keys = [entries[i].key() for i in index]
            got = (index, keys)
            cache[token] = got
        return got

    # -- next point of correspondence -----------------------------------------

    def _next_correspondence(self, i: int, j: int) -> tuple[int, int]:
        """Find the nearest (i', j') >= (i, j) with equal heads, taking the
        closer of the scan-discovered pair and any anchor pair; entries in
        between remain outside sigma (the skipped differences of
        STEP-VIEW-NOMATCH)."""
        lkeys, rkeys = self.lkeys, self.rkeys
        n, m = len(lkeys), len(rkeys)
        best: tuple[int, int] | None = None
        best_cost: int | None = None
        # Anchor candidates strictly ahead of (i, j).
        kept_anchors = []
        for apl, apr in self._pending_anchors:
            if apl >= i and apr >= j:
                kept_anchors.append((apl, apr))
                cost = (apl - i) + (apr - j)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (apl, apr), cost
        self._pending_anchors = kept_anchors
        # Forward scan over left positions, bisecting into right positions.
        limit = n
        if self.config.scan_limit is not None:
            limit = min(n, i + self.config.scan_limit)
        for ip in range(i, limit):
            left_cost = ip - i
            if best_cost is not None and left_cost >= best_cost:
                break
            positions = self.rpos.get(lkeys[ip])
            if not positions:
                continue
            self.counter.bump()
            at = bisect_left(positions, j)
            if at == len(positions):
                continue
            jp = positions[at]
            cost = left_cost + (jp - j)
            if best_cost is None or cost < best_cost:
                best, best_cost = (ip, jp), cost
        if best is None:
            return (n, m)
        return best


@dataclass(slots=True)
class PairMarks:
    """Everything one correlated thread pair's evaluation produced.

    Marks are *independent* per pair — the lock-step evaluation only
    ever writes into the similarity sets, never reads them — which is
    what lets the execution phase run pairs in any order (or in other
    threads/processes) and still merge to a result bit-identical to the
    serial evaluation.  Marks hold trace *positions*, which every copy
    of a trace shares; :meth:`ViewDiffPlan.merge` translates them to
    entry ids.  ``compares`` carries the pair's entry-compare count so
    counters aggregate order-independently.
    """

    ltid: int
    rtid: int
    similar_left: set[int] = field(default_factory=set)
    similar_right: set[int] = field(default_factory=set)
    match_pairs: list[tuple[int, int]] = field(default_factory=list)
    anchor_pairs: list[tuple[int, int]] = field(default_factory=list)
    compares: int = 0


class ViewDiffPlan:
    """The planning phase of a views-based diff.

    Construction does all the pair-independent work: build (or adopt)
    the two view webs, intern the ``=e`` id columns, correlate the
    webs' views, and enumerate the correlated thread pairs
    (``plan.pairs``).  The execution phase is then embarrassingly
    parallel — :meth:`run_pair` per enumerated pair, in any order,
    through any executor — and :meth:`merge` folds the
    :class:`PairMarks` back together deterministically (always in
    ``plan.pairs`` order, regardless of completion order).
    """

    def __init__(self, left: Trace, right: Trace,
                 config: ViewDiffConfig | None = None,
                 web_left: ViewWeb | None = None,
                 web_right: ViewWeb | None = None,
                 key_table: KeyTable | None = None):
        self.left = left
        self.right = right
        self.config = config if config is not None else ViewDiffConfig()
        self.web_l = web_left if web_left is not None else ViewWeb(left)
        self.web_r = web_right if web_right is not None else ViewWeb(right)
        # Interning the two id columns is deferred to the first local
        # run_pair: a parent plan whose execution phase runs entirely
        # in worker processes (which re-intern from the wire) never
        # pays the two O(n) passes.
        self.ids_l = self.ids_r = None
        self._key_table = key_table
        self._ids_built = not self.config.interned
        self._ids_lock = threading.Lock()
        self.correlator = ViewCorrelator(self.web_l, self.web_r)
        #: Correlated thread pairs with a materialised view on both
        #: sides — the execution phase's work list.
        self.pairs: list[tuple[int, int]] = [
            (ltid, rtid)
            for ltid, rtid in self.correlator.thread_pairs()
            if self.web_l.thread_view(ltid) is not None
            and self.web_r.thread_view(rtid) is not None]
        # Secondary-view window key caches, shared across this plan's
        # pair evaluations (pure memoisation: values are deterministic,
        # so concurrent fills are benign).
        self._window_keys_l: dict = {}
        self._window_keys_r: dict = {}

    def _ensure_ids(self) -> None:
        """Intern both traces' ``=e`` id columns once, on first local
        pair evaluation (thread-safe: pairs may run concurrently)."""
        if self._ids_built:
            return
        with self._ids_lock:
            if self._ids_built:
                return
            table = self._key_table if self._key_table is not None \
                else KeyTable.for_pair(self.left, self.right)
            self.ids_l = table.ids_for(self.left)
            self.ids_r = table.ids_for(self.right)
            self._ids_built = True

    def run_pair(self, pair: tuple[int, int]) -> PairMarks:
        """Execution phase for one correlated thread pair: the
        lock-step evaluation, into pair-private marks."""
        self._ensure_ids()
        ltid, rtid = pair
        marks = PairMarks(ltid=ltid, rtid=rtid)
        counter = OpCounter()
        differ = _ThreadPairDiffer(
            self.web_l.thread_view(ltid), self.web_r.thread_view(rtid),
            self.web_l, self.web_r, self.correlator, self.config,
            counter, marks.similar_left, marks.similar_right,
            marks.anchor_pairs, ids_l=self.ids_l, ids_r=self.ids_r,
            window_keys_l=self._window_keys_l,
            window_keys_r=self._window_keys_r)
        marks.match_pairs = differ.run()
        marks.compares = counter.total
        return marks

    def merge(self, marks: "list[PairMarks]",
              counter: OpCounter | None = None,
              started: float | None = None) -> DiffResult:
        """Fold per-pair marks into the final :class:`DiffResult`.

        ``marks`` must be ordered like ``plan.pairs`` (executors
        preserve submission order); the union/concatenation below then
        reproduces the serial evaluation exactly.  Positions become
        entry ids here, once, through each trace's eid column, and the
        only entries built are the differences the sequences report.
        """
        if counter is None:
            counter = OpCounter()
        eids_l = self.left.eid_column()
        eids_r = self.right.eid_column()
        marked_left: set[int] = set()
        marked_right: set[int] = set()
        anchors: list[tuple[int, int]] = []
        for mark in marks:
            marked_left |= mark.similar_left
            marked_right |= mark.similar_right
            anchors.extend(mark.anchor_pairs)
            counter.bump(mark.compares)
        similar_left = set(eids_at(eids_l, marked_left))
        similar_right = set(eids_at(eids_r, marked_right))
        anchor_pairs = pairs_to_eids(eids_l, eids_r, anchors)
        # Sequences are segmented only after every thread pair has
        # contributed to sigma, so cross-thread anchors are honoured
        # everywhere.
        all_match_pairs: list[tuple[int, int]] = []
        sequences: list[DifferenceSequence] = []
        for mark in marks:
            match_pairs = pairs_to_eids(eids_l, eids_r, mark.match_pairs)
            all_match_pairs.extend(match_pairs)
            sequences.extend(build_sequences(
                self.left, self.right, match_pairs,
                similar_left, similar_right,
                left_rows=self.web_l.thread_view(mark.ltid).indices,
                right_rows=self.web_r.thread_view(mark.rtid).indices))

        # Uncorrelated threads: every entry is a difference.
        matched_left_tids = {mark.ltid for mark in marks}
        matched_right_tids = {mark.rtid for mark in marks}
        for tid in self.left.thread_ids():
            if tid in matched_left_tids:
                continue
            lv = self.web_l.thread_view(tid)
            if lv is None:
                continue
            entries = _unmarked(self.left, lv.indices, eids_l,
                                similar_left)
            if entries:
                sequences.append(DifferenceSequence(
                    kind="delete", left_entries=entries, right_entries=[]))
        for tid in self.right.thread_ids():
            if tid in matched_right_tids:
                continue
            rv = self.web_r.thread_view(tid)
            if rv is None:
                continue
            entries = _unmarked(self.right, rv.indices, eids_r,
                                similar_right)
            if entries:
                sequences.append(DifferenceSequence(
                    kind="insert", left_entries=[], right_entries=entries))

        elapsed = 0.0 if started is None else time.perf_counter() - started
        return DiffResult(
            left=self.left,
            right=self.right,
            similar_left=similar_left,
            similar_right=similar_right,
            match_pairs=sorted(all_match_pairs),
            anchor_pairs=anchor_pairs,
            sequences=sequences,
            counter=counter,
            algorithm="views",
            seconds=elapsed,
        )


def _unmarked(trace: Trace, positions, eids, similar: set[int]) -> list:
    """The entries at ``positions`` whose eid is outside ``similar``
    (only those entries are built)."""
    entries = trace.entries
    return [entries[position] for position in positions
            if eids[position] not in similar]


def plan_view_diff(left: Trace, right: Trace,
                   config: ViewDiffConfig | None = None,
                   web_left: ViewWeb | None = None,
                   web_right: ViewWeb | None = None,
                   key_table: KeyTable | None = None) -> ViewDiffPlan:
    """The planning phase alone (webs + interning + correlation + the
    correlated-thread-pair work list), for callers that drive the
    execution phase themselves."""
    return ViewDiffPlan(left, right, config=config, web_left=web_left,
                        web_right=web_right, key_table=key_table)


def view_diff(left: Trace, right: Trace,
              config: ViewDiffConfig | None = None,
              counter: OpCounter | None = None,
              web_left: ViewWeb | None = None,
              web_right: ViewWeb | None = None,
              key_table: KeyTable | None = None,
              executor=None) -> DiffResult:
    """Difference two traces with the views-based semantics of Fig. 12.

    Every pair of correlated thread views (X_TH) is evaluated under the
    lock-step semantics; the per-pair similarity sets are unioned into the
    final ``sigma`` and the differences derived by subtraction.  Threads
    with no correlated partner contribute all their entries as
    insertions/deletions.

    With ``config.interned`` (the default) both traces are expressed as
    dense id columns of one shared :class:`KeyTable` — ``key_table`` if
    given, the table the traces already carry when it is common to both,
    a fresh pair table otherwise — and every ``=e`` compare below is an
    int compare.  The similarity sets are identical to the tuple path's.

    ``executor`` runs the per-thread-pair execution phase through an
    *in-process* executor (anything with an order-preserving
    ``map(fn, items)``); the merged result is bit-identical to the
    serial evaluation.  Process executors cannot share the in-memory
    webs — route those through
    :func:`repro.exec.diffing.executed_view_diff`.
    """
    started = time.perf_counter()
    plan = ViewDiffPlan(left, right, config=config, web_left=web_left,
                        web_right=web_right, key_table=key_table)
    if executor is None:
        marks = [plan.run_pair(pair) for pair in plan.pairs]
    else:
        if not getattr(executor, "in_process", True):
            raise ValueError(
                "process executors cannot share in-memory view webs; "
                "use repro.exec.diffing.executed_view_diff instead")
        marks = executor.map(plan.run_pair, plan.pairs)
    return plan.merge(marks, counter=counter, started=started)
