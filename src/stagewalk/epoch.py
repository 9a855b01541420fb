"""Pivot manager lifecycle: one working pool, reader tokens, deferred reclamation.

Readers enter a read-side section and get a token that pins the working pool
of that instant. Each period the manager builds a fresh pool off to the side;
that pool is the waiting pool until `_install` swaps it in atomically, so a
reader never observes a partial build. Retired pools and pivots go on a
reclaim queue and are poisoned (freed flag) only once every token issued
before their retirement has exited, which the sentinel checks in
find_best_pivot turn into hard failures on any protocol bug.

Metadata modification invalidates the working pool in place: the first pivot
covered by the modified path and everything after it is flagged invalid,
covered pivots are dropped (survivors get their overlap repaired on fresh
objects so old snapshots stay self-consistent), survivors are re-validated,
and `metadata_seq` is bumped. A period reads that count under the tree read
lock before it builds, and installs its build only if the count has not moved
by the time it holds the pool mutex, so no pool built before a modification is
ever installed. A modification that completed before the build is already in
it (the build walks the live tree's parent links) and costs no swap. Hooks
fire under the tree write lock, so a racing modification lands between the
build and the swap, never inside the build.

The reader registry takes a lock only on a threadsafe tree. On a
single-threaded tree a reader registers the current generation before it
reads the working pool, and `_install` publishes a pool before it bumps the
generation, so every pool a reader can see is at least as new as the
generation it registered and stays pinned until it exits (the same order
epoch-based reclamation uses).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ContractViolation
from .heat import CandidateSet, HeatEpoch
from .paths import PathBuf
from .pivots import Pivot, PivotPool, _lcp_components, build_pool
from .tree import Dentry, DirTree


@dataclass(slots=True)
class ReadToken:
    token_id: int
    generation: int
    pool: PivotPool


class ReclaimQueue:
    """Retired pools / pivot batches awaiting their grace period."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[tuple[object, int]] = []

    def push(self, payload: PivotPool | list[Pivot], retire_gen: int) -> None:
        self._entries.append((payload, retire_gen))

    @property
    def pending(self) -> int:
        return len(self._entries)

    def reclaim(self, min_active_gen: Optional[int]) -> int:
        """Poison every entry retired before the oldest active reader. Idempotent."""
        keep: list[tuple[object, int]] = []
        freed = 0
        for payload, gen in self._entries:
            if min_active_gen is not None and gen >= min_active_gen:
                keep.append((payload, gen))
                continue
            if isinstance(payload, PivotPool):
                payload.freed = True
                for pv in payload.pivots:
                    pv.freed = True
            else:
                for pv in payload:
                    pv.freed = True
            freed += 1
        self._entries = keep
        return freed


class PivotManager:
    """Owns the working pool, the heat epoch, and the candidate set lifecycle."""

    def __init__(
        self,
        tree: DirTree,
        candidates: CandidateSet,
        epoch: HeatEpoch,
        heat_lock: threading.Lock,
        pool_bound: int = 16,
    ):
        self._tree = tree
        self._candidates = candidates
        self._epoch = epoch
        self._heat_lock = heat_lock
        self.pool_bound = pool_bound
        self.generation = 0
        self.working_pool = PivotPool([])
        self.working_pool.published = True
        self.metadata_seq = 0
        self.reclaim_queue = ReclaimQueue()
        self._pool_mutex = threading.Lock()
        self._reader_lock = threading.Lock() if tree.threadsafe else None
        self._readers: dict[int, int] = {}
        self._token_seq = itertools.count(1)
        self.ticks = 0
        self.swaps = 0

    # -- read side ------------------------------------------------------------

    def reader_enter(self) -> ReadToken:
        lock = self._reader_lock
        if lock is None:
            tid = next(self._token_seq)
            # register before reading the pool: see the module docstring
            gen = self._readers[tid] = self.generation
            return ReadToken(tid, gen, self.working_pool)
        with lock:
            pool = self.working_pool
            tid = next(self._token_seq)
            self._readers[tid] = pool.generation
            return ReadToken(tid, pool.generation, pool)

    def reader_exit(self, token: ReadToken) -> None:
        lock = self._reader_lock
        if lock is None:
            released = self._readers.pop(token.token_id, None) is not None
        else:
            with lock:
                released = self._readers.pop(token.token_id, None) is not None
        if not released:
            raise ContractViolation(f"token {token.token_id} released twice")

    @property
    def active_reader_count(self) -> int:
        with self._reader_lock or nullcontext():
            return len(self._readers)

    def oldest_active_generation(self) -> Optional[int]:
        with self._reader_lock or nullcontext():
            # a snapshot: without the lock, readers enter and exit meanwhile
            return min(list(self._readers.values()), default=None)

    # -- manager side -----------------------------------------------------------

    def periodic_update(self, candidates: Optional[Iterable[Dentry]] = None) -> bool:
        """One manager period: rebuild, maybe swap, then advance and drain heat.

        A metadata modification between the start of the build and the swap
        discards the fresh build and keeps the current working pool for another
        period; in that case the heat version does not advance and nothing is
        drained. Returns whether a swap happened.
        """
        self.ticks += 1
        if candidates is None:
            with self._heat_lock:
                candidates = self._candidates.members()
        self._tree.lock.acquire_read()
        try:
            seq = self.metadata_seq
            new_pool = build_pool(candidates, self.pool_bound)
        finally:
            self._tree.lock.release_read()

        with self._pool_mutex:
            swapped = self.metadata_seq == seq
            if swapped:
                self._install(new_pool)
        if swapped:
            with self._heat_lock:
                self._epoch.advance()
                self._candidates.drain_overdue(self._epoch)
        self.reclaim()
        return swapped

    def publish_pool(self, pool: PivotPool) -> None:
        """Directly install a hand-built pool (benches and tests)."""
        with self._pool_mutex:
            self._install(pool)

    def _install(self, pool: PivotPool) -> None:
        """Publish `pool` as the working pool and retire the old one; the caller
        holds the pool mutex."""
        gen = self.generation + 1
        pool.generation = gen
        pool.published = True
        old = self.working_pool
        with self._reader_lock or nullcontext():
            self.working_pool = pool
        self.generation = gen  # only after the publish: see the module docstring
        self.reclaim_queue.push(old, old.generation)
        self.swaps += 1

    def invalidate_for_metadata(self, path: PathBuf) -> int:
        """Drop every working-pool pivot covered by `path`; called pre-mutation.

        Bumps `metadata_seq` whether or not anything matched, so a build that
        this modification raced is never swapped in.
        """
        with self._pool_mutex:
            wp = self.working_pool
            pivots = wp.pivots
            prefix = path.components
            plen = len(prefix)
            covered = [i for i, p in enumerate(pivots) if p.names[:plen] == prefix]
            removed: list[Pivot] = []
            if covered:
                first = covered[0]
                # flag the suffix while the list is rearranged; old snapshots
                # skip these pivots instead of observing the surgery
                for p in pivots[first:]:
                    p.valid = False
                covered_set = set(covered)
                removed = [pivots[i] for i in covered]
                survivors = [p for i, p in enumerate(pivots) if i not in covered_set]
                repaired: list[Pivot] = []
                retired_clones: list[Pivot] = []
                prev_names: tuple[str, ...] = ()
                for j, p in enumerate(survivors):
                    want = _lcp_components(prev_names, p.names) if j else 0
                    if want != p.overlap:
                        retired_clones.append(p)
                        p = p.clone_with_overlap(want)
                    repaired.append(p)
                    prev_names = p.names
                for p in repaired:
                    p.valid = True  # reactivate the survivors
                wp.pivots = repaired
                self.reclaim_queue.push(removed + retired_clones, self.generation)
            self.metadata_seq += 1
            return len(removed)

    def reclaim(self) -> int:
        return self.reclaim_queue.reclaim(self.oldest_active_generation())
