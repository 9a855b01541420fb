"""Pivot manager lifecycle: one working pool, a reader registry, deferred reclamation.

On a threadsafe tree a reader's `reader_enter` registers a fresh token id
under a generation and returns the id with the working pool of that instant;
the registration pins that pool until `reader_exit` releases the id. Every
change of the working pool builds a fresh pool off to the side and publishes
it through `_install`, so a reader never observes a partial build. Retired pools go on
a reclaim queue and are poisoned (freed flag) only once every reader
registered before their retirement has exited, which the sentinel checks in
find_best_pivot turn into hard failures on any protocol bug.

Each period the manager builds a pool from the candidates looked up at least
POPULAR_HEAT times in that period; a period whose kept names equal the
working pool's keeps that pool, and so does an idle period, one with no
candidate looked up twice: shortcuts outlive a quiet spell, or a spell of
targets each seen once, as dcache entries stay until something displaces
them. A metadata modification finds the pivots its path covers by bisecting
the working pool's sorted list on that path's names (one run of the sorted
pool, so the cost is a bisection and the run, not a pass over the pool),
installs a pool of the other pivots, the same pivot objects, then bumps `metadata_seq`;
readers still scanning the old pool may find a covered pivot there, and the
engine drops such a result because the count moved under it. A period holds
the tree read lock from its build through its install, as an RCU updater
serializes with other updaters: every rename, chmod and unlink fires its hook
under the tree write lock, so a modification lands wholly before the build
(which walks the live tree's parent links and so already sees it) or wholly
after the install (whose pool its hook then repairs), never in between. Lock
order is the hook's: tree lock, pool mutex, reader lock.

Only a threadsafe tree keeps the registry, under a lock. A single-threaded
tree registers nothing: `reader_enter` returns token 0 with the working pool
and `reader_exit` returns at once. On one thread no `reclaim` can run between
a lookup's enter and exit (ticks, hooks and lookups are calls on that thread,
and the engine reclaims only inside `periodic_update`), so no registration
could change what is freed. This is the kernel's reasoning for Tiny RCU,
whose read-side lock does almost nothing on a non-preemptible uniprocessor.
For the same reason the engine answers a whole-path hit on such a tree from
the working pool's path map without calling either, and without sampling
`metadata_seq`: no hook can run between its probe and its result either.
A caller that holds a pool across a tick anyway trips the sentinel.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from typing import Optional

from .errors import ConfigError, ContractViolation
from .heat import CandidateSet
from .paths import PathBuf
from .pivots import PivotPool, build_pool
from .tree import DirTree

# a candidate becomes a pivot only on its second lookup in a period: a target
# seen once is not popular, the rule 2Q (Johnson & Shasha, VLDB 1994) and
# TinyLFU (Einziger, Friedman & Manes, ACM ToS 2017) use to keep one-off
# references out of a cache
POPULAR_HEAT = 2


class ReclaimQueue:
    """Retired pools awaiting their grace period. Poisoning a pool poisons
    scans of it, not the pivots it shares with a later pool."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[PivotPool] = []

    def push(self, pool: PivotPool) -> None:
        self._entries.append(pool)

    @property
    def pending(self) -> int:
        return len(self._entries)

    def reclaim(self, min_active_gen: Optional[int]) -> int:
        """Poison every pool retired before the oldest active reader. Idempotent."""
        keep: list[PivotPool] = []
        freed = 0
        for pool in self._entries:
            if min_active_gen is not None and pool.generation >= min_active_gen:
                keep.append(pool)
                continue
            pool.freed = True
            freed += 1
        self._entries = keep
        return freed


class PivotManager:
    """Owns the working pool and the candidate set's period lifecycle. A
    negative `pool_bound` raises ConfigError."""

    def __init__(
        self,
        tree: DirTree,
        candidates: CandidateSet,
        heat_lock: threading.Lock,
        pool_bound: int = 16,
    ):
        if pool_bound < 0:
            raise ConfigError(f"pool size must be >= 0, got {pool_bound}")
        self._tree = tree
        self._candidates = candidates
        self._heat_lock = heat_lock
        self.pool_bound = pool_bound
        self.working_pool = PivotPool([])
        self.working_pool.published = True
        self.metadata_seq = 0
        self.reclaim_queue = ReclaimQueue()
        self._pool_mutex = threading.Lock()
        self._reader_lock = threading.Lock() if tree.threadsafe else None
        self._readers: dict[int, int] = {}
        self._token_seq = itertools.count(1)
        self.ticks = 0

    # -- read side ------------------------------------------------------------

    def reader_enter(self) -> tuple[int, PivotPool]:
        """Register a reader; returns its token id and the pool it pins.

        Every reader draws its own id, so a second release of one id is
        caught even while another reader of the same generation is active,
        which a count of readers per generation would miss. A single-threaded
        tree registers nothing and returns id 0 (see the module docstring)."""
        lock = self._reader_lock
        if lock is None:
            return 0, self.working_pool
        with lock:
            pool = self.working_pool
            tid = next(self._token_seq)
            self._readers[tid] = pool.generation
            return tid, pool

    def reader_exit(self, token_id: int) -> None:
        lock = self._reader_lock
        if lock is None:
            return
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
            return min(self._readers.values(), default=None)

    # -- manager side -----------------------------------------------------------

    def periodic_update(self, periods: int = 1) -> None:
        """One manager period, or `periods` in a row: rebuild, install the
        build unless it keeps the working pool, then advance the candidate
        set, which bumps the heat version and drops every member.

        `periods` > 1 runs that many periods back to back with no lookup or
        modification between them (a replay's idle gap). The first leaves
        the set empty, so each later one would build nothing, keep the
        working pool and advance: they are counted at once.
        """
        self._period()
        rest = periods - 1
        if rest > 0:
            with self._heat_lock:
                self._candidates.advance(rest)
            self.ticks += rest

    @property
    def swaps(self) -> int:
        """Every period swaps, also one that keeps the working pool."""
        return self.ticks

    def _period(self) -> None:
        """One period: build from the members at heat POPULAR_HEAT or more
        (every member holds the current version, so its heat is this
        period's) and install the build under the same tree read lock. With
        none, `build_pool` returns the working pool, which the period keeps
        while it still advances."""
        self.ticks += 1
        with self._heat_lock:
            candidates = [d for d in self._candidates.members() if d.heat >= POPULAR_HEAT]
        self._tree.lock.acquire_read()
        try:
            new_pool = build_pool(candidates, self.pool_bound, self.working_pool)
            if new_pool is not self.working_pool:
                with self._pool_mutex:
                    self._install(new_pool)
        finally:
            self._tree.lock.release_read()
        with self._heat_lock:
            self._candidates.advance()
        self.reclaim()

    def publish_pool(self, pool: PivotPool) -> None:
        """Directly install a hand-built pool (benches and tests)."""
        with self._pool_mutex:
            self._install(pool)

    def _install(self, pool: PivotPool) -> None:
        """Publish `pool` as the working pool and retire the old one; the
        caller holds the pool mutex."""
        old = self.working_pool
        pool.generation = old.generation + 1
        pool.published = True
        with self._reader_lock or nullcontext():
            self.working_pool = pool
        self.reclaim_queue.push(old)

    def invalidate_for_metadata(self, path: PathBuf) -> int:
        """Retire the working pool for one without the pivots covered by
        `path`; called pre-mutation. Returns how many pivots were covered.

        The covered pivots are one run of the sorted pool, found by
        bisecting the pool's list on `path`'s names
        (`PivotPool.covered_run`): the hook costs a bisection and the run,
        not a compare with every pivot, even when it covers nothing,
        churn's common case.

        Bumps `metadata_seq` whether or not anything matched, so a lookup
        that sampled the count before this call drops its pivot's result.
        """
        with self._pool_mutex:
            pool = self.working_pool
            start, end = pool.covered_run(path.components)
            covered = end - start
            if covered:
                pivots = pool.pivots
                self._install(PivotPool(pivots[:start] + pivots[end:]))
            # only after the install: a reader that samples the count after
            # the bump must read the repaired pool
            self.metadata_seq += 1
            return covered

    def reclaim(self) -> int:
        return self.reclaim_queue.reclaim(self.oldest_active_generation())
