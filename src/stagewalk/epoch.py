"""Pivot manager lifecycle: one working pool, a reader registry, deferred reclamation.

A reader's `reader_enter` registers a fresh token id under a generation and
returns the id with the working pool of that instant; the registration pins
that pool until `reader_exit` releases the id. Every change of the working
pool builds a fresh pool off to the side and publishes it through
`_install`, so a reader never observes a partial build. Retired pools go on
a reclaim queue and are poisoned (freed flag) only once every reader
registered before their retirement has exited, which the sentinel checks in
find_best_pivot turn into hard failures on any protocol bug.

Each period the manager builds a pool from the candidates. A metadata
modification clears `valid` on the working pool's pivots that its path
covers, so readers still scanning that pool skip them, installs a pool of
fresh copies of the survivors and bumps `metadata_seq`. A period reads that
count under the tree read lock before it builds, and installs its build only
if the count has not moved by the time it holds the pool mutex, so no pool
built before a modification is ever installed. A modification that completed
before the build is already in it (the build walks the live tree's parent
links) and costs no swap. Hooks fire under the tree write lock, so a racing
modification lands between the build and the swap, never inside the build.

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
from typing import Iterable, Optional

from .errors import ContractViolation
from .heat import CandidateSet, HeatEpoch
from .paths import PathBuf
from .pivots import PivotPool, _index_pool, build_pool, pool_from_sorted
from .tree import Dentry, DirTree


class ReclaimQueue:
    """Retired pools awaiting their grace period; a pool owns its pivots, so
    poisoning the pool poisons them."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[tuple[PivotPool, int]] = []

    def push(self, pool: PivotPool, retire_gen: int) -> None:
        self._entries.append((pool, retire_gen))

    @property
    def pending(self) -> int:
        return len(self._entries)

    def reclaim(self, min_active_gen: Optional[int]) -> int:
        """Poison every pool retired before the oldest active reader. Idempotent."""
        keep: list[tuple[PivotPool, int]] = []
        freed = 0
        for pool, gen in self._entries:
            if min_active_gen is not None and gen >= min_active_gen:
                keep.append((pool, gen))
                continue
            pool.freed = True
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

    def reader_enter(self) -> tuple[int, PivotPool]:
        """Register a reader; returns its token id and the pool it pins.

        Every reader draws its own id, so a second release of one id is
        caught even while another reader of the same generation is active,
        which a count of readers per generation would miss."""
        lock = self._reader_lock
        if lock is None:
            tid = next(self._token_seq)
            # register before reading the pool: see the module docstring
            self._readers[tid] = self.generation
            return tid, self.working_pool
        with lock:
            pool = self.working_pool
            tid = next(self._token_seq)
            self._readers[tid] = pool.generation
            return tid, pool

    def reader_exit(self, token_id: int) -> None:
        lock = self._reader_lock
        if lock is None:
            released = self._readers.pop(token_id, None) is not None
        else:
            with lock:
                released = self._readers.pop(token_id, None) is not None
        if not released:
            raise ContractViolation(f"token {token_id} released twice")

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
        discards the fresh build, and the working pool stays as the
        modification left it for another period; in that case the heat version
        does not advance and nothing is drained. Returns whether a swap
        happened. `swaps` counts these period swaps only.
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
            self.swaps += 1
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
        """Index `pool`, publish it as the working pool and retire the old one;
        the caller holds the pool mutex. Indexing here keeps the build off the
        read path, and readers never race to build the same index."""
        _index_pool(pool)
        gen = self.generation + 1
        pool.generation = gen
        pool.published = True
        old = self.working_pool
        with self._reader_lock or nullcontext():
            self.working_pool = pool
        self.generation = gen  # only after the publish: see the module docstring
        self.reclaim_queue.push(old, old.generation)

    def invalidate_for_metadata(self, path: PathBuf) -> int:
        """Retire the working pool for one without the pivots covered by
        `path`; called pre-mutation. Returns how many pivots were covered.

        Bumps `metadata_seq` whether or not anything matched, so a build that
        this modification raced is never swapped in.
        """
        with self._pool_mutex:
            prefix = path.components
            plen = len(prefix)
            pivots = self.working_pool.pivots
            covered = [p for p in pivots if p.names[:plen] == prefix]
            if covered:
                self.working_pool.linear_only = True  # before any flag clears: see find_best_pivot
                for p in covered:
                    p.valid = False  # readers still scanning the old pool skip it
                survivors = [p for p in pivots if p.names[:plen] != prefix]
                self._install(pool_from_sorted((p.path, p.names, p.components) for p in survivors))
            self.metadata_seq += 1
            return len(covered)

    def reclaim(self) -> int:
        return self.reclaim_queue.reclaim(self.oldest_active_generation())
