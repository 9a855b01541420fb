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
and takes the pair and the scan's chars from the entry. Only a path-map
miss calls `find_best_pivot`. The probe picks where the pair comes from,
and everything after it is shared. Stage Two resolves the remaining
components through the children maps exactly like the original walk,
starting from the matched component's dentry, which the pivot holds per
depth (so landing on an ancestor of the pivot is a direct array index,
recorded as rolled_up, and no id is looked up in `tree.nodes`). The skipped
prefix's permission check is the walk's own exec-bit test, `mode & cred`,
made once on the AND of the skipped components' modes taken at build time.
The heat update is one call, `observe_target`, taken under the heat lock on
a threadsafe tree only. The candidate set holds the engine's heat version
and members, and the heat itself lives on the tree's dentries, so a tree
takes at most one stage engine: building a second raises ConfigError, as a
kernel keeps one dcache.

A hit decides from the path's length that nothing is left to walk: the
matched component holds the length of the pivot's path text through it, and
the query shares that text, so the query has names past the matched depth
exactly when its text is longer. A whole-path hit therefore never splits
the path (see `paths`), and it returns the pair the pool's path map stores,
so it builds no tuple either. Stage Two reads `components`, which the
scan that found its pivot has already split, and passes the walk the
length of the text past the matched one, from which the walk counts its
chars. The miss walk is `DirTree.lookup_original`, which splits the path
where no scan did: on an empty pool, or after a hit that a modification
raced. A counted hit bumps only the skipped-prefix histogram,
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
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ContractViolation, NotFound, PermissionDenied
from .heat import CandidateSet, observe_target
from .epoch import PivotManager
from .metrics import Metrics
from .paths import PathBuf
from .pivots import Pivot, ScanStats, find_best_pivot
from .tree import DIR, FILE, Credential, DirTree


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


class _ResolverBase:
    """Shared stat/open wrappers over a strategy's lookup."""

    tree: DirTree
    metrics: Metrics

    def __init__(self, tree: DirTree):
        self.tree = tree
        self.metrics = Metrics()
        self._next_handle = 1

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        raise NotImplementedError

    def stat(self, path: PathBuf, cred: Credential = Credential.OWNER) -> MetadataView:
        d = self.tree.nodes[self.lookup(path, cred)]
        return MetadataView(d.id, FILE if d.children is None else DIR, d.mode, d.size)

    def open(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        self.lookup(path, cred)
        handle = self._next_handle
        self._next_handle += 1
        return handle

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
        if tree.stage_engine is not None:
            raise ConfigError("a tree takes one stage engine: its dentries hold that engine's heat")
        super().__init__(tree)
        self.candidates = CandidateSet(heat_capacity, heat_threshold)
        self.heat_lock = threading.Lock()
        self.manager = PivotManager(tree, self.candidates, self.heat_lock, pool_bound=pool_size)
        # a single-threaded engine reuses one ScanStats; a threadsafe one
        # makes one per lookup, since threads would share a reused one
        self._stats = None if tree.threadsafe else ScanStats()
        tree.register_hook(self._on_metadata)
        tree.stage_engine = self

    def _on_metadata(self, path: PathBuf) -> None:
        self.metrics.entries_touched += self.manager.invalidate_for_metadata(path)

    def tick(self, periods: int = 1) -> None:
        super().tick(periods)
        self.manager.periodic_update(periods)

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
            hit, _visited, chars = entry
            seq = None
        else:
            if stats is None:  # a threadsafe tree
                stats = ScanStats()
            seq = manager.metadata_seq
            token_id, pool = manager.reader_enter()
            try:
                hit = find_best_pivot(pool, path, stats)
            finally:
                manager.reader_exit(token_id)
            chars = stats.char_comparisons
        metrics.char_comparisons += chars  # Stage One single scan

        tree = self.tree
        if hit is not None:
            pivot, depth = hit
            matched = pivot.components[depth - 1]
            try:
                # the modes' AND cached on the matched component clears components 1..depth-1
                if not matched.prefix_trav & cred:
                    raise PermissionDenied(f"skipped prefix of {pivot.path!r} not traversable for {cred.name.lower()}")
                target = matched.node
                # the query shares the matched text, so a longer one has names left,
                # which the rest of its text spells; an empty walk_from checks and counts nothing
                if len(path.text) > matched.text_len:
                    rest = len(path.text) - matched.text_len
                    target = tree.walk_from(target, path.components[depth:], cred, metrics, rest)
            except (PermissionDenied, NotFound):
                if seq is None or manager.metadata_seq == seq:
                    raise
            if seq is None or manager.metadata_seq == seq:
                hist = metrics.skipped_prefix_histogram
                hist[depth] = hist.get(depth, 0) + 1
                if out is not None:
                    out.append(hit)
            else:
                metrics.fallbacks += 1  # a modification raced the lookup
                hit = None
        if hit is None:
            target = tree.nodes[tree.lookup_original(path, cred, metrics)]

        if tree.threadsafe:  # heat updates take heat_lock only then
            with self.heat_lock:
                observe_target(target, self.candidates)
        else:
            observe_target(target, self.candidates)
        return target.id

    def stage_lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> StageResult:
        """`lookup`, reporting the pivot it used and the components it skipped."""
        used: list[tuple[Pivot, int]] = []
        target = self.lookup(path, cred, used)  # positional: the benchmark's spans take no keywords
        if not used:
            return StageResult(target, 0, path.depth, None, False)
        pivot, depth = used[0]
        return StageResult(target, depth, path.depth - depth, pivot.path, depth < pivot.depth)
