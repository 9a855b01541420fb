"""The two-stage lookup engine and the plain-walk resolver it is compared to.

`StageLookupEngine.lookup` is the engine's one lookup body. `stage_lookup`
passes it an `out` list that receives the pivot and depth the lookup kept,
which costs a plain lookup one `is not None` test.

Stage One scans the working pivot pool for the pivot sharing the deepest
prefix with the query. On a threadsafe tree the pool is pinned by a token id
that the manager's reader registry holds from `reader_enter` to
`reader_exit`; on a single-threaded tree the same calls register nothing
(see `epoch`), and a whole-path hit there makes none of them: the engine
probes the working pool's path map itself, tests the pool's `freed` flag,
and reads off the entry the pair, the scan's chars and the matched
component, whose AND of modes it tests and whose dentry is the target. A
query equal to the pivot's path has nothing left to walk, so that branch
indexes no component array, compares no lengths and never splits the path
(see `paths`); it keeps the pair the map stores, so it builds no tuple
either. Only a path-map miss calls `find_best_pivot`, and every threadsafe
lookup does. The two branches share the histogram bump, the `out` append
and the heat log's append. Stage Two resolves the remaining components
through the children maps exactly like the original walk, starting from the
matched component's dentry, which the pivot holds per depth (so landing on
an ancestor of the pivot is a direct array index, recorded as rolled_up,
and no id is looked up in `tree.nodes`). The skipped prefix's permission
check is the walk's own exec-bit test, `mode & cred`, made once on the AND
of the skipped components' modes taken at build time.

A lookup applies no heat: it appends its target to the engine's heat log,
which is atomic under the GIL, so it takes no lock and calls nothing for
heat on either tree kind. The period end that the engine hands the manager
(`_end_period`) applies the log before it reads the members and advances the
set, all under the heat lock (`apply_heat`), as BP-Wrapper (Ding, Jiang and
Zhang, ICDE 2009) commits its access queue in batches; a lookup applies it
in order itself when it reaches `HEAT_LOG_BOUND` entries. Only the period
end reads heat and the candidate set, so it sees what a heat call per
lookup would have left. The heat is the candidate set's per-period
dict, as BP-Wrapper keeps it in the policy's state, and the dentries hold
none of it, so engines built on one tree keep separate heat.

A scanned hit decides from the path's length whether anything is left to
walk: the matched component holds the length of the pivot's path text
through it, and the query shares that text, so the query has names past the
matched depth exactly when its text is longer. Stage Two reads
`components`, which the scan that found its pivot has already split, and
passes the walk the length of the text past the matched one, from which the
walk counts its chars. The miss walk is `DirTree.lookup_original`, which
splits the path where no scan did: on an empty pool, or after a hit that a
modification raced. A counted hit bumps only the skipped-prefix histogram,
whose total is `Metrics.pivot_hits`.

A lookup that calls Stage One sees one state of the tree, as the kernel's
RCU-walk does: it samples the manager's `metadata_seq` before it enters,
and if the count has moved by the end of Stage Two, a modification (rename,
chmod or unlink, whose hook bumps the count before the change applies)
raced it. The lookup then drops the pivot's result, or the PermissionDenied
or NotFound it raised, and walks from the root under the tree read lock;
`fallbacks` counts these retries. A count that did not move means no
modification began since the sample, and the pool a reader pins holds no
pivot that a modification before the sample covered, so a cached AND of
modes is never stale when consulted. A single-threaded whole-path hit takes
no sample: on one thread no hook runs between its probe and its result, and
its pool is the working pool, which every earlier hook has already
repaired, so its AND of modes is current (the Tiny RCU argument of
`epoch`).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

from .errors import ConfigError, ContractViolation, NotFound, PermissionDenied
from .heat import CandidateSet, observe_target
from .epoch import PivotManager
from .metrics import Metrics
from .paths import PathBuf
from .pivots import Pivot, ScanStats, find_best_pivot
from .tree import DIR, FILE, Credential, Dentry, DirTree

# logged targets at which a lookup applies the log itself, which bounds the
# log's memory for a caller that seldom ticks (BP-Wrapper's batch threshold)
HEAT_LOG_BOUND = 4096


@dataclass(slots=True)
class StageResult:
    target: int
    skipped_components: int
    walked_components: int
    pivot_used: Optional[str]
    rolled_up: bool


@dataclass(slots=True)
class MetadataView:
    node_id: int
    kind: str
    mode: int
    size: int


_new = object.__new__  # bound once: `stat` runs on every stat event


class _ResolverBase:
    """Shared stat and open over a strategy's lookup.

    `stat` builds its `MetadataView` as `paths._trusted` builds a path, with
    `object.__new__` and a store per slot, so it pays no dataclass
    `__init__`; the view's fields, `repr` and `==` are the dataclass's.
    `open` is a read-only property returning `self.lookup`, so an open pays
    no wrapper frame and takes what `lookup` takes, stage's `out` included.
    It looks `lookup` up on each access, so a wrapper installed on the class
    after the resolver was built still sees every open; a class-body
    `open = lookup` would not.
    """

    tree: DirTree
    metrics: Metrics

    def __init__(self, tree: DirTree):
        self.tree = tree
        self.metrics = Metrics()

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        raise NotImplementedError

    def stat(self, path: PathBuf, cred: Credential = Credential.OWNER) -> MetadataView:
        d = self.tree.nodes[self.lookup(path, cred)]
        view = _new(MetadataView)
        view.node_id = d.id
        view.kind = FILE if d.children is None else DIR
        view.mode = d.mode
        view.size = d.size
        return view

    @property
    def open(self) -> Callable[..., int]:
        """`lookup`, bound: `open(path, cred)` returns the target's id."""
        return self.lookup

    def tick(self, periods: int = 1) -> None:
        """`periods` period boundaries in a row; a no-op for strategies
        without a manager. ConfigError when `periods` is below 1."""
        if periods < 1:
            raise ConfigError(f"periods must be >= 1, got {periods}")


class OriginalLookup(_ResolverBase):
    """Component-wise walk from the root; the kernel-style baseline."""

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        self.metrics.lookups += 1
        return self.tree.lookup_original(path, cred, self.metrics)


class StageLookupEngine(_ResolverBase):
    def __init__(
        self,
        tree: DirTree,
        pool_size: int = 16,
        heat_threshold: int = 4,
        heat_capacity: int = 64,
    ):
        super().__init__(tree)
        self.candidates = CandidateSet(heat_capacity, heat_threshold)
        self.heat_lock = threading.Lock()
        self._heat_log: list[Dentry] = []
        self.manager = PivotManager(tree, self._end_period, pool_bound=pool_size)
        # a single-threaded engine reuses one ScanStats; a threadsafe one
        # makes one per lookup, since threads would share a reused one
        self._stats = None if tree.threadsafe else ScanStats()
        tree.register_hook(self._on_metadata)

    def _on_metadata(self, path: PathBuf, _dentry: Dentry) -> None:
        self.metrics.entries_touched += self.manager.invalidate_for_metadata(path)

    def tick(self, periods: int = 1) -> None:
        super().tick(periods)
        self.manager.periodic_update(periods)

    def _end_period(self) -> dict[Dentry, int]:
        """The manager's period end: apply the heat log, then take the
        period's popular candidates and start the next period, all under
        the heat lock, so no drain lands between the read and the advance."""
        with self.heat_lock:
            self.apply_heat(True)
            return self.candidates.end_period()

    def apply_heat(self, period_end: bool = False) -> None:
        """Apply the logged targets' heat, oldest first, and empty the log.
        The caller holds the heat lock on a threadsafe tree.

        The batch is the log's first `n` entries, so a target that another
        thread appends meanwhile stays for the next drain. By default, and
        whenever the candidate set already has members, the batch is
        replayed in order, one `observe_target` per lookup. A `period_end`
        drain into an empty set, `_end_period`'s, may instead make one call
        per distinct target with its count, for the first `capacity`
        targets in first-seen order, when each later target was looked up
        at most threshold + 1 times. That is exact: each of the first
        `capacity` is admitted at its first lookup and ends with its count
        as its heat, and no later one ever exceeds threshold + 1 heat, so a
        full set never offers it to `maybe_admit`, which alone reads the
        cursor. The later targets get no heat, so only a drain that the
        period's advance follows may take this path."""
        log = self._heat_log
        n = len(log)
        batch = log[:n]
        del log[:n]
        candidates = self.candidates
        if period_end and not len(candidates):
            counts = Counter(batch)  # keys in first-seen order
            capacity = candidates.capacity
            if max(islice(counts.values(), capacity, None), default=0) <= candidates.threshold + 1:
                for target, hits in islice(counts.items(), capacity):
                    observe_target(target, candidates, hits)
                return
        for target in batch:
            observe_target(target, candidates)

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER, out: Optional[list] = None) -> int:
        """Both stages; returns the target's id. When `out` is a list, a
        lookup that kept a pivot's result appends `(pivot, depth)` to it,
        after the `metadata_seq` re-check when it sampled the count; a full
        walk appends nothing."""
        metrics = self.metrics
        metrics.lookups += 1
        manager = self.manager
        stats = self._stats
        entry = None
        if stats is not None:  # a single-threaded tree: nothing runs inside the lookup
            pool = manager.working_pool
            entry = pool.by_path.get(path.text)
        if entry is not None:  # a whole-path hit, answered from the path map
            if pool.freed:
                raise ContractViolation("pivot pool used after reclaim")
            hit, _visited, chars, matched = entry
            metrics.char_comparisons += chars  # Stage One single scan
            # the modes' AND cached on the matched component clears components 1..depth-1
            if not matched.prefix_trav & cred:
                raise PermissionDenied(f"skipped prefix of {hit[0].path!r} not traversable for {cred.name.lower()}")
            target = matched.node
        else:
            if stats is None:  # a threadsafe tree
                stats = ScanStats()
            seq = manager.metadata_seq
            token_id, pool = manager.reader_enter()
            try:
                hit = find_best_pivot(pool, path, stats)
            finally:
                manager.reader_exit(token_id)
            metrics.char_comparisons += stats.char_comparisons  # Stage One single scan
            tree = self.tree
            if hit is not None:
                pivot, depth = hit
                matched = pivot.components[depth - 1]
                try:
                    if not matched.prefix_trav & cred:
                        raise PermissionDenied(
                            f"skipped prefix of {pivot.path!r} not traversable for {cred.name.lower()}"
                        )
                    target = matched.node
                    # the query shares the matched text, so a longer one has names left,
                    # which the rest of its text spells; an empty walk_from checks and counts nothing
                    if len(path.text) > matched.text_len:
                        rest = len(path.text) - matched.text_len
                        target = tree.walk_from(target, path.components[depth:], cred, metrics, rest)
                except (PermissionDenied, NotFound):
                    if manager.metadata_seq == seq:
                        raise
                if manager.metadata_seq != seq:
                    metrics.fallbacks += 1  # a modification raced the lookup
                    hit = None
            if hit is None:
                target = tree.nodes[tree.lookup_original(path, cred, metrics)]

        if hit is not None:
            depth = hit[1]
            hist = metrics.skipped_prefix_histogram
            hist[depth] = hist.get(depth, 0) + 1
            if out is not None:
                out.append(hit)
        log = self._heat_log
        log.append(target)  # atomic under the GIL: the read side takes no lock
        if len(log) >= HEAT_LOG_BOUND:
            with self.heat_lock:
                self.apply_heat()
        return target.id

    def stage_lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> StageResult:
        """`lookup`, reporting the pivot it used and the components it skipped."""
        used: list[tuple[Pivot, int]] = []
        target = self.lookup(path, cred, used)  # positional: the benchmark's spans take no keywords
        if not used:
            return StageResult(target, 0, path.depth, None, False)
        pivot, depth = used[0]
        return StageResult(target, depth, path.depth - depth, pivot.path, depth < pivot.depth)
