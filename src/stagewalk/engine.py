"""The two-stage lookup engine and the plain-walk resolver it is compared to.

Stage One scans the working pivot pool, pinned by a token id that the
manager's reader registry holds from `reader_enter` to `reader_exit`, for
the pivot sharing the deepest prefix with the query; Stage Two resolves the
remaining components through the children maps exactly like the original
walk, starting from the matched component's dentry, which the pivot stores
per depth (so landing on an ancestor of the pivot is a direct array index,
recorded as rolled_up). The skipped prefix's permission check is one mask
test against traversal bits aggregated at build time; metadata modification
invalidates covering pivots, so a cached mask is never stale when consulted.
A pivot whose component dentry has been unlinked silently falls back to a
full walk from the root.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from .errors import PermissionDenied
from .heat import CandidateSet, HeatEpoch, observe_target
from .epoch import PivotManager
from .metrics import Metrics
from .paths import PathBuf
from .pivots import Pivot, ScanStats, find_best_pivot
from .tree import CRED_MASK_BIT, Credential, Dentry, DirTree


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

    def __init__(self, tree: DirTree, metrics: Optional[Metrics] = None):
        self.tree = tree
        self.metrics = metrics if metrics is not None else Metrics()
        self._next_handle = 1

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        raise NotImplementedError

    def stat(self, path: PathBuf, cred: Credential = Credential.OWNER) -> MetadataView:
        d = self.tree.node(self.lookup(path, cred))
        return MetadataView(d.id, d.kind, d.mode, d.size)

    def open(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        self.lookup(path, cred)
        handle = self._next_handle
        self._next_handle += 1
        return handle

    def tick(self) -> None:
        """Period boundary; a no-op for strategies without a manager."""


class OriginalLookup(_ResolverBase):
    """Component-wise walk from the root; the kernel-style baseline."""

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        self.metrics.lookups += 1
        return self.tree.lookup_original(path, cred, self.metrics)


class _ScanSlot(threading.local):
    """One ScanStats per thread, reused by every scan the thread makes;
    find_best_pivot writes both counts on every return."""

    def __init__(self) -> None:
        self.stats = ScanStats()


class StageLookupEngine(_ResolverBase):
    def __init__(
        self,
        tree: DirTree,
        pool_size: int = 16,
        heat_threshold: int = 4,
        heat_capacity: int = 64,
        metrics: Optional[Metrics] = None,
    ):
        super().__init__(tree, metrics)
        self.epoch = HeatEpoch()
        self.candidates = CandidateSet(heat_capacity, heat_threshold)
        self.heat_lock = threading.Lock()
        self._threadsafe = tree.threadsafe  # heat updates take heat_lock only then
        self.manager = PivotManager(tree, self.candidates, self.epoch, self.heat_lock, pool_bound=pool_size)
        self._scan = _ScanSlot()
        tree.register_hook(self._on_metadata)

    def _on_metadata(self, path: PathBuf) -> None:
        self.metrics.entries_touched += self.manager.invalidate_for_metadata(path)

    def tick(self) -> None:
        self.manager.periodic_update()

    def check_prefix_permissions(self, pivot: Pivot, depth: int, cred: Credential) -> None:
        """Clear components 1..depth-1 with the mask cached on the matched component."""
        if not pivot.components[depth - 1].prefix_trav & CRED_MASK_BIT[cred]:
            raise PermissionDenied(f"skipped prefix of {pivot.path!r} not traversable for {cred.value}")

    def _resolve(self, path: PathBuf, cred: Credential) -> tuple[Dentry, Optional[Pivot], int]:
        """Both stages; returns the target, the pivot used (None on a full walk)
        and the number of components it skipped."""
        metrics = self.metrics
        metrics.lookups += 1
        manager = self.manager
        stats = self._scan.stats
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
            target = tree.nodes.get(matched.node_id)
            if target is not None and not target.dead:
                if not matched.prefix_trav & CRED_MASK_BIT[cred]:
                    self.check_prefix_permissions(pivot, depth, cred)  # raises
                comps = path.components
                if depth < len(comps):  # an empty walk_from checks and counts nothing
                    target = tree.walk_from(target, comps[depth:], cred, metrics)
                metrics.pivot_hits += 1
                hist = metrics.skipped_prefix_histogram
                hist[depth] = hist.get(depth, 0) + 1
            else:
                metrics.fallbacks += 1  # component dentry unlinked between build and use
                hit = None
        if hit is None:
            pivot = None
            depth = 0
            target = tree.walk_from(tree.root, path.components, cred, metrics)

        if self._threadsafe:
            with self.heat_lock:
                observe_target(target, self.epoch, self.candidates)
        else:
            observe_target(target, self.epoch, self.candidates)
        return target, pivot, depth

    def stage_lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> StageResult:
        target, pivot, depth = self._resolve(path, cred)
        if pivot is None:
            return StageResult(target.id, 0, path.depth, None, False)
        return StageResult(target.id, depth, path.depth - depth, pivot.path, depth < pivot.depth)

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        return self._resolve(path, cred)[0].id
