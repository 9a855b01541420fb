from __future__ import annotations

import random
import threading

import pytest

import stagewalk.epoch as epoch_module
import stagewalk.pivots as pivots_module
from stagewalk import (
    CandidateSet,
    ContractViolation,
    HeatEpoch,
    PivotManager,
    build_pool,
    find_best_pivot,
    verify_pool,
)
from conftest import FIG4_PATHS, mkpath, make_tree, random_tree_paths


def make_manager(tree=None, bound=16):
    tree = tree if tree is not None else make_tree("/seed")
    cset = CandidateSet(64, 4)
    epoch = HeatEpoch()
    mgr = PivotManager(tree, cset, epoch, threading.Lock(), pool_bound=bound)
    return tree, cset, epoch, mgr


def heat_up(tree, cset, epoch, paths):
    for p in paths:
        d = tree._resolve_admin(mkpath(p))
        d.heat, d.heat_version = d.heat + 5, epoch.global_version
        if d not in cset:
            cset.maybe_admit(d)


def fig4_manager(threadsafe=False):
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",), threadsafe=threadsafe)
    tree, cset, epoch, mgr = make_manager(tree)
    heat_up(tree, cset, epoch, FIG4_PATHS)
    mgr.periodic_update()
    return tree, cset, epoch, mgr


def on_both_trees(test):
    """Run `test(threadsafe)` on a single-threaded tree, whose manager keeps
    its reader registry without a lock, and on a threadsafe tree, whose
    manager locks it; the test keeps one id."""

    def run():
        for threadsafe in (False, True):
            test(threadsafe)

    run.__name__ = test.__name__
    return run


# -- reader tokens --------------------------------------------------------------


@on_both_trees
def test_reader_snapshot_survives_swap(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    token_id, pool = mgr.reader_enter()
    gen_before = pool.generation
    heat_up(tree, cset, epoch, FIG4_PATHS)
    mgr.periodic_update()  # publishes a new generation
    assert mgr.working_pool.generation == gen_before + 1
    assert pool.generation == gen_before
    # the pinned snapshot still answers queries consistently
    hit = find_best_pivot(pool, mkpath("/a1/b1/c1"))
    assert hit[0].path == "/a1/b1/c1"
    mgr.reader_exit(token_id)


@on_both_trees
def test_nested_tokens_independent(threadsafe):
    _tree, _cset, _epoch, mgr = fig4_manager(threadsafe)
    t1, _pool1 = mgr.reader_enter()
    t2, _pool2 = mgr.reader_enter()
    assert t1 != t2
    mgr.reader_exit(t2)
    mgr.reader_exit(t1)
    assert mgr.active_reader_count == 0


@on_both_trees
def test_double_exit_detected(threadsafe):
    _tree, _cset, _epoch, mgr = fig4_manager(threadsafe)
    token_id, _pool = mgr.reader_enter()
    mgr.reader_exit(token_id)
    with pytest.raises(ContractViolation):
        mgr.reader_exit(token_id)


@on_both_trees
def test_double_exit_detected_while_a_reader_of_its_generation_is_active(threadsafe):
    _tree, _cset, _epoch, mgr = fig4_manager(threadsafe)
    t1, pool1 = mgr.reader_enter()
    t2, pool2 = mgr.reader_enter()
    assert pool1 is pool2  # one generation
    mgr.reader_exit(t1)
    with pytest.raises(ContractViolation):
        mgr.reader_exit(t1)
    assert mgr.active_reader_count == 1
    mgr.reader_exit(t2)
    assert mgr.active_reader_count == 0


class InterleavedManager(PivotManager):
    """Runs `on_read` just after the working pool is read and `on_write` just
    before it is replaced, once each: a step another thread could take there
    while the single-threaded tree leaves the reader registry unlocked."""

    on_read = on_write = None

    @property
    def working_pool(self):
        pool = self._pool
        step, self.on_read = self.on_read, None
        if step is not None:
            step()
        return pool

    @working_pool.setter
    def working_pool(self, pool):
        step, self.on_write = self.on_write, None
        if step is not None:
            step()
        self._pool = pool


def interleaved_manager():
    tree = make_tree(*FIG4_PATHS)
    mgr = InterleavedManager(tree, CandidateSet(64, 4), HeatEpoch(), threading.Lock())
    cands = [tree._resolve_admin(mkpath(p)) for p in FIG4_PATHS]
    mgr.publish_pool(build_pool(cands, 16))
    return mgr, lambda: build_pool(cands, 16)


def test_unlocked_reader_registers_before_reading_the_pool():
    mgr, fresh = interleaved_manager()
    # the pool the reader just read is swapped out and reclaimed before it
    # can use it; its registration must already pin that pool
    mgr.on_read = lambda: (mgr.publish_pool(fresh()), mgr.reclaim())
    token_id, pool = mgr.reader_enter()
    assert not pool.freed
    assert find_best_pivot(pool, mkpath("/a1/b1/c1")) is not None
    mgr.reader_exit(token_id)


def test_unlocked_swap_publishes_before_bumping_the_generation():
    mgr, fresh = interleaved_manager()
    tokens = []
    # a reader enters while a swap is about to publish its pool
    mgr.on_write = lambda: tokens.append(mgr.reader_enter())
    mgr.publish_pool(fresh())
    mgr.reclaim()
    token_id, pool = tokens[0]
    assert not pool.freed
    mgr.reader_exit(token_id)


# -- periodic_update --------------------------------------------------------------


def test_selector_alternates_in_steady_state():
    tree, cset, epoch, mgr = make_manager()
    seen = [mgr.working_pool]
    for _ in range(3):
        heat_up(tree, cset, epoch, ["/seed"])
        assert mgr.periodic_update()
        seen.append(mgr.working_pool)
    assert [p.generation for p in seen] == [0, 1, 2, 3]  # a fresh pool every period
    assert [p.freed for p in seen] == [True, True, True, False]  # the old one retired


def tick_raced_by(mgr, cset, epoch, path):
    """Tick once with a metadata modification of `path` injected between the
    build and the swap, and check that the swap was suppressed: the raced
    build is not installed, no swap is counted, the heat version does not
    advance and nothing is drained. Returns how many pivots the modification
    removed."""
    swaps = mgr.swaps
    version, members = epoch.global_version, [d.id for d in cset.members()]
    removed, builds = [], []
    real_build = epoch_module.build_pool

    def racing_build(candidates, bound):
        builds.append(real_build(candidates, bound))
        removed.append(mgr.invalidate_for_metadata(mkpath(path)))
        return builds[0]

    epoch_module.build_pool = racing_build
    try:
        assert not mgr.periodic_update()
    finally:
        epoch_module.build_pool = real_build
    assert not builds[0].published  # the raced build was never installed
    assert mgr.swaps == swaps
    assert epoch.global_version == version
    assert [d.id for d in cset.members()] == members
    return removed[0]


@on_both_trees
def test_metadata_mid_period_suppresses_next_swap(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    pool = mgr.working_pool
    heat_up(tree, cset, epoch, ["/a1/b1/c1"])
    assert tick_raced_by(mgr, cset, epoch, "/a1/b2") == 1
    assert "/a1/b2/c3" not in [p.path for p in mgr.working_pool.pivots]
    assert mgr.periodic_update()  # the following period swaps again
    assert mgr.working_pool is not pool


@on_both_trees
def test_rename_before_the_tick_does_not_suppress_the_swap(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    pool = mgr.working_pool
    mgr.invalidate_for_metadata(mkpath("/a1/b2"))  # no hook registered; call directly
    tree.rename_node(mkpath("/a1/b2"), mkpath("/a1/zz9"))
    heat_up(tree, cset, epoch, ["/a1/b1/c1", "/a1/zz9/c3"])
    assert mgr.periodic_update()  # the build already saw the rename
    paths = [p.path for p in mgr.working_pool.pivots]
    assert mgr.working_pool is not pool and "/a1/zz9/c3" in paths
    assert not any(p.startswith("/a1/b2/") for p in paths)
    assert verify_pool(mgr.working_pool) == []


def test_version_advances_and_drains_only_on_swap():
    tree, cset, epoch, mgr = make_manager()
    v0 = epoch.global_version
    heat_up(tree, cset, epoch, ["/seed"])
    mgr.periodic_update()
    assert epoch.global_version == v0 + 1
    assert len(cset) == 0  # everyone carried the old version
    heat_up(tree, cset, epoch, ["/seed"])
    tick_raced_by(mgr, cset, epoch, "/nonexistent")  # no swap, no advance, no drain
    assert epoch.global_version == v0 + 1
    assert len(cset) == 1
    assert mgr.periodic_update()  # the following period swaps, advances and drains
    assert epoch.global_version == v0 + 2
    assert len(cset) == 0


def test_empty_candidates_publish_empty_pool():
    _tree, _cset, _epoch, mgr = make_manager()
    assert mgr.periodic_update()
    assert mgr.working_pool.size == 0 and mgr.working_pool.published


# -- invalidate_for_metadata --------------------------------------------------------


def test_invalidate_removes_covered_run_and_repairs_overlap():
    tree, cset, epoch, mgr = fig4_manager()
    removed = mgr.invalidate_for_metadata(mkpath("/a1/b1/c2"))
    assert removed == 2  # pivots 2 and 3
    wp = mgr.working_pool
    assert [p.path for p in wp.pivots] == ["/a1/b1/c1", "/a1/b2/c3"]
    assert [p.overlap for p in wp.pivots] == [0, 1]  # survivor recomputed against pivot 1
    assert verify_pool(wp) == []
    assert all(p.valid for p in wp.pivots)


def test_invalidate_replaces_the_pivot_list_never_edits_it():
    # find_best_pivot iterates pool.pivots without copying it, so a scan that
    # started before the invalidation must keep seeing the list it started on
    tree, cset, epoch, mgr = fig4_manager()
    held = mgr.working_pool.pivots
    before = list(held)
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c2")) == 2
    assert len(held) == len(before)
    assert all(a is b for a, b in zip(held, before))
    assert mgr.working_pool.pivots is not held


def test_invalidate_no_match_touches_only_waiting_pool():
    tree, cset, epoch, mgr = fig4_manager()
    before = [p.path for p in mgr.working_pool.pivots]
    assert tick_raced_by(mgr, cset, epoch, "/zz") == 0  # the racing build is discarded
    assert [p.path for p in mgr.working_pool.pivots] == before
    assert mgr.periodic_update()


def test_invalidate_root_removes_everything():
    tree, cset, epoch, mgr = fig4_manager()
    removed = mgr.invalidate_for_metadata(mkpath("/"))
    assert removed == 4
    assert mgr.working_pool.size == 0


def test_invalidation_completeness():
    tree, cset, epoch, mgr = fig4_manager()
    mgr.invalidate_for_metadata(mkpath("/a1/b1"))
    for q in ("/a1/b1/c1", "/a1/b1/c2/d2/e2/x", "/a1/b1/c2/d2/e3/f3/foo"):
        hit = find_best_pivot(mgr.working_pool, mkpath(q))
        assert hit is None or not mkpath("/a1/b1").is_component_prefix_of(mkpath(hit[0].path))


def test_exact_path_counts_as_covered():
    tree, cset, epoch, mgr = fig4_manager()
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c1")) == 1
    assert "/a1/b1/c1" not in [p.path for p in mgr.working_pool.pivots]


@on_both_trees
def test_pinned_pool_scans_linearly_after_invalidation(threadsafe):
    """The old pool's index was built before the call, but its counts assume
    every pivot valid: a token pinned across the call scans linearly and
    never gets a covered pivot."""
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    old = mgr.working_pool
    assert find_best_pivot(old, mkpath("/a1/b1/c2/d2/e3/f3/foo"))[1] == 6
    assert old.index is not None
    token_id, pool = mgr.reader_enter()
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c2")) == 2
    linear = []
    real_scan = pivots_module._scan_linear
    pivots_module._scan_linear = lambda *args: linear.append(args[1].text) or real_scan(*args)
    try:
        queries = FIG4_PATHS + ("/a1/b1/c2/d2/e3/f3/foo",)
        for q in queries:
            hit = find_best_pivot(pool, mkpath(q))
            assert hit is not None and hit[0].names[:3] != ("a1", "b1", "c2"), q
    finally:
        pivots_module._scan_linear = real_scan
    assert linear == list(queries)
    mgr.reader_exit(token_id)


@on_both_trees
def test_installed_pools_are_indexed_before_any_scan(threadsafe):
    """A tick swap and a covering invalidation both install an indexed pool,
    so no scan of either builds an index."""
    tree, cset, epoch, mgr = fig4_manager(threadsafe)  # one tick swap
    queries = FIG4_PATHS + ("/a1/b1/c2/d2/e3/f3/foo", "/zz")

    def no_build(pool):
        raise AssertionError("index built by a scan")

    real_build = pivots_module._index_pool
    pivots_module._index_pool = no_build
    try:
        swapped = mgr.working_pool
        assert swapped.index is not None
        assert [find_best_pivot(swapped, mkpath(q)) is not None for q in queries] == [True] * 5 + [False]
        assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c2")) == 2
        repaired = mgr.working_pool
        assert repaired.index is not None and not repaired.linear_only
        hits = [find_best_pivot(repaired, mkpath(q)) for q in queries]
        assert [h[0].path if h else None for h in hits] == ["/a1/b1/c1"] * 3 + ["/a1/b2/c3", "/a1/b1/c1", None]
    finally:
        pivots_module._index_pool = real_build


@on_both_trees
def test_invalidate_matches_oracle_on_random_pools(threadsafe):
    """Random pools, random covering prefixes, a reader pinned across each
    call: the installed pool is the old one minus the covered pivots, and the
    pinned pool keeps serving its survivors until the reader exits."""
    rng = random.Random(8)
    for _ in range(60):
        paths = random_tree_paths(rng, rng.randint(1, 20))
        tree = make_tree(*paths, threadsafe=threadsafe)
        _tree, _cset, _epoch, mgr = make_manager(tree, bound=len(paths))
        mgr.publish_pool(build_pool([tree._resolve_admin(mkpath(p)) for p in paths], len(paths)))
        for _ in range(4):
            old = mgr.working_pool
            held = old.pivots
            if rng.random() < 0.2:
                prefix = mkpath("/zz")  # covers nothing
            else:
                names = mkpath(rng.choice(paths)).components
                prefix = mkpath("/" + "/".join(names[: rng.randint(0, len(names))]))
            covered = [p for p in held if prefix.is_component_prefix_of(mkpath(p.path))]
            survivors = [p for p in held if p not in covered]
            token_id, pool = mgr.reader_enter()
            assert mgr.invalidate_for_metadata(prefix) == len(covered)

            new = mgr.working_pool
            assert (new is old) == (not covered)  # nothing covered, nothing installed
            assert [p.path for p in new.pivots] == [p.path for p in survivors]
            assert [[(c.node_id, c.prefix_trav) for c in p.components] for p in new.pivots] == [
                [(c.node_id, c.prefix_trav) for c in p.components] for p in survivors
            ]
            assert verify_pool(new) == []

            assert pool is old and old.pivots is held
            assert all(p.valid for p in survivors) and not any(p.valid for p in covered)
            for p in survivors:  # a scan still running on the old pool finds them
                assert find_best_pivot(old, mkpath(p.path))[0] is p
            mgr.reclaim()
            assert not old.freed
            mgr.reader_exit(token_id)
            mgr.reclaim()
            assert old.freed == bool(covered)


# -- reclamation ---------------------------------------------------------------------


@on_both_trees
def test_reclaim_all_without_readers(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    old_pool = mgr.working_pool
    heat_up(tree, cset, epoch, FIG4_PATHS)
    mgr.periodic_update()  # retires old_pool
    assert mgr.reclaim_queue.pending == 0  # tick reclaims opportunistically
    assert old_pool.freed


@on_both_trees
def test_reader_pins_generation(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    old_pool = mgr.working_pool
    token_id, pool = mgr.reader_enter()
    heat_up(tree, cset, epoch, FIG4_PATHS)
    mgr.periodic_update()
    assert not old_pool.freed  # grace period: retired at the reader's generation
    # the pinned snapshot is still fully usable
    assert find_best_pivot(pool, mkpath("/a1/b1/c1")) is not None
    mgr.reader_exit(token_id)
    assert mgr.reclaim() >= 1
    assert old_pool.freed


@on_both_trees
def test_use_after_reclaim_trips_sentinel(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    old_pool = mgr.working_pool
    heat_up(tree, cset, epoch, FIG4_PATHS)
    mgr.periodic_update()
    assert old_pool.freed
    with pytest.raises(ContractViolation):
        find_best_pivot(old_pool, mkpath("/a1/b1/c1"))


@on_both_trees
def test_removed_pivots_reclaimed_after_grace(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    token_id, pool = mgr.reader_enter()
    mgr.invalidate_for_metadata(mkpath("/a1/b1/c2"))
    mgr.reclaim()
    assert not pool.freed  # reader from the same generation still live
    mgr.reader_exit(token_id)
    mgr.reclaim()
    assert pool.freed


@on_both_trees
def test_reclaim_idempotent(threadsafe):
    tree, cset, epoch, mgr = fig4_manager(threadsafe)
    heat_up(tree, cset, epoch, FIG4_PATHS)
    mgr.periodic_update()
    assert mgr.reclaim() == 0
    assert mgr.reclaim() == 0


def test_unpublished_pool_rejected():
    from stagewalk import build_pool

    pool = build_pool([], 16)
    with pytest.raises(ContractViolation):
        find_best_pivot(pool, mkpath("/a"))


def test_swap_retire_stress_no_use_after_retire():
    """10^4 publish/retire cycles with 8 concurrent readers: the poisoning
    sentinel must never trip inside a read-side section."""
    from stagewalk import build_pool

    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",))
    tree2, cset, epoch, mgr = make_manager(make_tree("/seed"))
    cands = [tree._resolve_admin(mkpath(p)) for p in FIG4_PATHS]
    errors: list[str] = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            token_id, pool = mgr.reader_enter()
            try:
                find_best_pivot(pool, mkpath("/a1/b1/c2/d2/e3/f3/foo"))
            except ContractViolation as exc:
                errors.append(str(exc))
            finally:
                mgr.reader_exit(token_id)

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(8)]
    for t in threads:
        t.start()
    for _ in range(10_000):
        mgr.publish_pool(build_pool(cands, 16))
        mgr.reclaim()
    stop.set()
    for t in threads:
        t.join()
    mgr.reclaim()
    assert errors == []
    assert mgr.active_reader_count == 0
