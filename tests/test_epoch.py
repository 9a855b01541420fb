from __future__ import annotations

import collections
import random
import threading
import time

import pytest

import stagewalk.epoch as epoch_module
from stagewalk import (
    DIR,
    FILE,
    CandidateSet,
    ContractViolation,
    EngineError,
    PathBuf,
    PivotManager,
    PivotPool,
    StageLookupEngine,
    build_pool,
    find_best_pivot,
)
from stagewalk.epoch import POPULAR_HEAT
from stagewalk.pivots import ScanStats, verify_pool
from conftest import (
    FIG4_PATHS,
    mkpath,
    make_tree,
    pool_shape,
    random_tree_paths,
    reference_build_pool,
    reference_scan,
)


def make_manager(tree=None, bound=16):
    tree = tree if tree is not None else make_tree("/seed")
    cset = CandidateSet(64, 4)
    mgr = PivotManager(tree, cset, threading.Lock(), pool_bound=bound)
    return tree, cset, mgr


def heat_up(tree, cset, paths):
    for p in paths:
        d = tree._resolve_admin(mkpath(p))
        d.heat, d.heat_version = d.heat + 5, cset.version
        if d not in cset:
            cset.maybe_admit(d)


def fig4_manager(threadsafe=False):
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",), threadsafe=threadsafe)
    tree, cset, mgr = make_manager(tree)
    heat_up(tree, cset, FIG4_PATHS)
    mgr.periodic_update()
    return tree, cset, mgr


def heat_a_changed_set(tree, cset):
    """Heat a hot set other than fig4_manager's, so the next period builds
    and installs a fresh pool instead of keeping the working one."""
    heat_up(tree, cset, FIG4_PATHS[1:])


def on_both_trees(test):
    """Run `test(threadsafe)` on a single-threaded tree, whose manager keeps
    no reader registry, and on a threadsafe tree, whose manager keeps one
    under a lock; the test keeps one id. Tests of the registry itself run on
    threadsafe trees only."""

    def run():
        for threadsafe in (False, True):
            test(threadsafe)

    run.__name__ = test.__name__
    return run


# -- reader tokens --------------------------------------------------------------


def test_reader_snapshot_survives_swap():
    tree, cset, mgr = fig4_manager(threadsafe=True)
    token_id, pool = mgr.reader_enter()
    gen_before = pool.generation
    heat_a_changed_set(tree, cset)
    mgr.periodic_update()  # publishes a new generation
    assert mgr.working_pool.generation == gen_before + 1
    assert pool.generation == gen_before
    # the pinned snapshot still answers queries consistently
    hit = find_best_pivot(pool, mkpath("/a1/b1/c1"))
    assert hit[0].path == "/a1/b1/c1"
    mgr.reader_exit(token_id)


def test_nested_tokens_independent():
    _tree, _cset, mgr = fig4_manager(threadsafe=True)
    t1, _pool1 = mgr.reader_enter()
    t2, _pool2 = mgr.reader_enter()
    assert t1 != t2
    mgr.reader_exit(t2)
    mgr.reader_exit(t1)
    assert mgr.active_reader_count == 0


def test_double_exit_detected():
    _tree, _cset, mgr = fig4_manager(threadsafe=True)
    token_id, _pool = mgr.reader_enter()
    mgr.reader_exit(token_id)
    with pytest.raises(ContractViolation):
        mgr.reader_exit(token_id)


def test_double_exit_detected_while_a_reader_of_its_generation_is_active():
    _tree, _cset, mgr = fig4_manager(threadsafe=True)
    t1, pool1 = mgr.reader_enter()
    t2, pool2 = mgr.reader_enter()
    assert pool1 is pool2  # one generation
    mgr.reader_exit(t1)
    with pytest.raises(ContractViolation):
        mgr.reader_exit(t1)
    assert mgr.active_reader_count == 1
    mgr.reader_exit(t2)
    assert mgr.active_reader_count == 0


def test_single_threaded_reader_registers_nothing():
    """A single-threaded tree's manager hands out the working pool under id 0
    and registers nothing."""
    _tree, _cset, mgr = fig4_manager()
    token_id, pool = mgr.reader_enter()
    assert (token_id, pool) == (0, mgr.working_pool) and mgr.active_reader_count == 0
    assert mgr.oldest_active_generation() is None
    mgr.reader_exit(token_id)
    mgr.reader_exit(token_id)  # nothing was registered, so nothing is released twice


def test_single_threaded_tick_inside_a_read_section_trips_the_sentinel():
    """On one thread the engine never ticks between `reader_enter` and its
    scan; a caller that does gets the pool reclaimed under it, and the scan
    raises instead of reading a freed pool."""
    tree, cset, mgr = fig4_manager()
    token_id, pool = mgr.reader_enter()
    heat_a_changed_set(tree, cset)
    mgr.periodic_update()
    assert pool.freed
    with pytest.raises(ContractViolation):
        find_best_pivot(pool, mkpath("/a1/b1/c1"))
    mgr.reader_exit(token_id)


def test_single_threaded_engine_leaves_no_reader_behind():
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",))
    engine = StageLookupEngine(tree)
    queries = [mkpath(p) for p in FIG4_PATHS + ("/a1/b1/c2/d2/e3/f3/foo",)]
    for q in queries * 5:
        engine.lookup(q)
    engine.tick()
    for q in queries:
        engine.lookup(q)
    assert engine.metrics.pivot_hits == len(queries)  # the lookups after the tick used the pool
    assert engine.manager.active_reader_count == 0
    assert engine.manager.oldest_active_generation() is None


# -- periodic_update --------------------------------------------------------------


def test_selector_alternates_in_steady_state():
    tree, cset, mgr = make_manager(make_tree("/seed", "/next"))
    seen = [mgr.working_pool]
    for hot in ("/seed", "/next", "/seed"):
        heat_up(tree, cset, [hot])
        mgr.periodic_update()
        seen.append(mgr.working_pool)
    assert [p.generation for p in seen] == [0, 1, 2, 3]  # a fresh pool every changed period
    assert [p.freed for p in seen] == [True, True, True, False]  # the old one retired


@on_both_trees
def test_unchanged_hot_set_keeps_the_working_pool(threadsafe):
    """A period that keeps the same names keeps the working pool itself: no
    new generation and nothing retired, yet the tick still counts as a swap,
    advances the heat version and clears the candidates."""
    tree, cset, mgr = fig4_manager(threadsafe)
    old, gen, swaps, version = mgr.working_pool, mgr.working_pool.generation, mgr.swaps, cset.version
    token_id, held = mgr.reader_enter()
    heat_up(tree, cset, FIG4_PATHS)
    assert len(cset) > 0
    mgr.periodic_update()
    assert mgr.working_pool is old and old.generation == gen
    assert mgr.swaps == swaps + 1 and cset.version == version + 1 and len(cset) == 0
    assert mgr.reclaim_queue.pending == 0
    mgr.reader_exit(token_id)
    mgr.reclaim()
    assert held is old and old.published and not old.freed
    assert find_best_pivot(old, mkpath(FIG4_PATHS[0]))[0].path == FIG4_PATHS[0]


@on_both_trees
def test_working_pool_equals_a_fresh_build_of_its_targets_randomized(threadsafe):
    """Lookups, ticks, and creates, renames, chmods and unlinks through the
    tree API, in random order: after every step the working pool equals the
    reference build of its own targets, and a tick's pool equals the
    reference build of the candidates it ranked (those looked up at least
    POPULAR_HEAT times in the period), whether it kept the pool before it or
    built a fresh one."""
    rng = random.Random(2119 + threadsafe)
    seen = collections.Counter()
    modes = (0o755, 0o755, 0o750, 0o711, 0o700, 0o644)
    for _trial in range(12):
        paths = random_tree_paths(rng, rng.randint(6, 20), max_depth=4)
        tree = make_tree(*paths, threadsafe=threadsafe)
        engine = StageLookupEngine(
            tree, pool_size=rng.choice((2, 4, 8)), heat_threshold=rng.choice((0, 2)), heat_capacity=rng.choice((4, 16))
        )
        mgr = engine.manager
        hot = rng.sample(paths, rng.randint(1, 5))
        n_new = 0
        for _step in range(300):
            live = [d for d in tree.nodes[1:] if not d.dead]
            roll = rng.random()
            before = mgr.working_pool
            try:
                if roll < 0.7:
                    engine.lookup(mkpath(rng.choice(hot)))
                elif roll < 0.8:
                    cands = [d for d in engine.candidates.members() if d.heat >= POPULAR_HEAT]
                    mgr.periodic_update()
                    want = reference_build_pool(cands, mgr.pool_bound, before)
                    assert pool_shape(mgr.working_pool) == pool_shape(want)
                    if before.size:
                        seen["kept" if mgr.working_pool is before else "built"] += 1
                elif roll < 0.85:
                    parent = rng.choice([d for d in live if d.kind == DIR] or [tree.root])
                    n_new += 1
                    tree.create_node(tree.materialize_path(parent), f"n{n_new}", rng.choice((DIR, FILE)), 0o755)
                elif roll < 0.9:
                    d, new_parent = rng.choice(live), rng.choice([d for d in live if d.kind == DIR] or [tree.root])
                    n_new += 1
                    new = tree.materialize_path(new_parent).components + (f"n{n_new}",)
                    tree.rename_node(tree.materialize_path(d), PathBuf(new))
                elif roll < 0.95:
                    tree.chmod_node(tree.materialize_path(rng.choice(live)), rng.choice(modes))
                else:
                    tree.unlink_node(tree.materialize_path(rng.choice([d for d in live if not d.children])))
            except EngineError:
                seen["refused"] += 1
            pool = mgr.working_pool
            if 0.8 <= roll and pool is not before:
                seen["retired by a modification"] += 1
            targets = [pv.components[-1].node for pv in pool.pivots]
            assert pool_shape(pool) == pool_shape(reference_build_pool(targets, pool.size))
            assert verify_pool(pool) == []
    assert {"kept", "built", "refused", "retired by a modification"} <= set(seen), seen


@on_both_trees
def test_periods_in_a_row_end_as_single_periods_do(threadsafe):
    """periodic_update(4) ends as four single periods do: the first builds
    from the candidates, and the rest are idle and keep the pool."""
    states = []
    for periods in ((4,), (1, 1, 1, 1)):
        tree, cset, mgr = fig4_manager(threadsafe)
        heat_up(tree, cset, ["/a1/b1/c1"])
        for n in periods:
            mgr.periodic_update(n)
        states.append((mgr.ticks, mgr.swaps, cset.version, len(cset), mgr.working_pool.generation,
                       mgr.reclaim_queue.pending, [pv.names for pv in mgr.working_pool.pivots]))
    assert states[0] == states[1]
    assert states[0][:2] == (5, 5)


@on_both_trees
def test_the_build_sees_a_rename_made_before_the_tick(threadsafe):
    tree, cset, mgr = fig4_manager(threadsafe)
    pool = mgr.working_pool
    mgr.invalidate_for_metadata(mkpath("/a1/b2"))  # no hook registered; call directly
    tree.rename_node(mkpath("/a1/b2"), mkpath("/a1/zz9"))
    heat_up(tree, cset, ["/a1/b1/c1", "/a1/zz9/c3"])
    mgr.periodic_update()
    paths = [p.path for p in mgr.working_pool.pivots]
    assert mgr.working_pool is not pool and "/a1/zz9/c3" in paths
    assert not any(p.startswith("/a1/b2/") for p in paths)
    assert verify_pool(mgr.working_pool) == []


def test_a_rename_during_a_period_waits_for_its_install():
    """A rename that starts while a period builds blocks on the tree lock
    until the period has installed its build, however slow the install: its
    hook then finds that build working and repairs it, and the period still
    swaps and advances the heat version."""
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",), threadsafe=True)
    engine = StageLookupEngine(tree)
    mgr, cset = engine.manager, engine.candidates
    for p in FIG4_PATHS * POPULAR_HEAT:
        engine.lookup(mkpath(p))
    engine.tick()
    for p in FIG4_PATHS[1:] * POPULAR_HEAT:  # a new hot set: the next period installs a fresh pool
        engine.lookup(mkpath(p))
    version, old = cset.version, mgr.working_pool
    builds, hook_saw_build, threads, errors = [], [], [], []
    real_build, real_install, real_hook = epoch_module.build_pool, mgr._install, mgr.invalidate_for_metadata

    def start(fn):
        def run():
            try:
                fn()
            except BaseException as exc:
                errors.append(exc)

        threads.append(threading.Thread(target=run, daemon=True))
        threads[-1].start()

    def build_then_rename(candidates, bound, current):
        builds.append(real_build(candidates, bound, current))
        start(lambda: tree.rename_node(mkpath("/a1/b1/c2"), mkpath("/a1/b1/z9")))
        time.sleep(0.05)
        return builds[0]

    def slow_install(pool):
        time.sleep(0.05)
        real_install(pool)

    def hook(path):
        hook_saw_build.append(mgr.working_pool is builds[0])
        return real_hook(path)

    mgr._install, mgr.invalidate_for_metadata = slow_install, hook
    epoch_module.build_pool = build_then_rename
    try:
        start(engine.tick)
        threads[0].join(timeout=10)  # the tick, which starts the rename thread
        for t in threads:
            t.join(timeout=10)
    finally:
        epoch_module.build_pool = real_build
    assert not any(t.is_alive() for t in threads) and errors == []
    assert builds[0] is not old and hook_saw_build == [True]
    renamed = mkpath("/a1/b1/c2")
    assert not any(renamed.is_component_prefix_of(mkpath(pv.path)) for pv in mgr.working_pool.pivots)
    assert [pv.path for pv in mgr.working_pool.pivots] == ["/a1/b2/c3"]
    assert verify_pool(mgr.working_pool) == []
    assert cset.version == version + 1
    assert mgr.ticks == mgr.swaps == 2


def test_a_period_advances_the_version_and_empties_the_candidate_set():
    tree, cset, mgr = make_manager()
    v0 = cset.version
    heat_up(tree, cset, ["/seed"])
    mgr.periodic_update()
    assert cset.version == v0 + 1
    assert len(cset) == 0  # the swap clears the set


def test_empty_candidates_publish_empty_pool():
    _tree, _cset, mgr = make_manager()
    mgr.periodic_update()
    assert mgr.working_pool.size == 0 and mgr.working_pool.published


@on_both_trees
def test_a_tick_with_no_lookups_keeps_the_working_pool(threadsafe):
    tree = make_tree(files=("/a/b/f", "/c/d/g"), threadsafe=threadsafe)
    engine = StageLookupEngine(tree)
    mgr, cset = engine.manager, engine.candidates
    engine.lookup(mkpath("/a/b/f"))
    engine.lookup(mkpath("/a/b/f"))  # twice: popular enough to become a pivot
    engine.tick()
    pool = mgr.working_pool
    assert [p.path for p in pool.pivots] == ["/a/b/f"]
    version, swaps = cset.version, mgr.swaps
    mgr.periodic_update()  # an idle period
    assert mgr.working_pool is pool and not pool.freed
    assert (cset.version, mgr.swaps) == (version + 1, swaps + 1)  # the heat version still advances
    assert engine.stage_lookup(mkpath("/a/b/f")).pivot_used == "/a/b/f"


# -- the popularity floor: a pivot only for a target looked up twice in its period --


def popular_engine(threadsafe):
    tree = make_tree(files=("/a/b/f", "/c/d/g"), threadsafe=threadsafe)
    engine = StageLookupEngine(tree)
    return engine, engine.manager, engine.candidates


@on_both_trees
def test_a_target_looked_up_twice_in_its_period_becomes_a_pivot(threadsafe):
    engine, mgr, cset = popular_engine(threadsafe)
    engine.lookup(mkpath("/a/b/f"))
    engine.lookup(mkpath("/a/b/f"))
    engine.lookup(mkpath("/c/d/g"))
    mgr.periodic_update()
    assert [p.path for p in mgr.working_pool.pivots] == ["/a/b/f"]
    assert engine.stage_lookup(mkpath("/a/b/f")).pivot_used == "/a/b/f"


@on_both_trees
def test_a_target_looked_up_once_does_not_become_a_pivot(threadsafe):
    engine, mgr, cset = popular_engine(threadsafe)
    engine.lookup(mkpath("/a/b/f"))
    assert [d.name for d in cset.members()] == ["f"]  # a candidate all the same
    empty = mgr.working_pool
    mgr.periodic_update()
    assert mgr.working_pool is empty and mgr.working_pool.size == 0
    assert engine.stage_lookup(mkpath("/a/b/f")).pivot_used is None


@on_both_trees
def test_one_lookup_in_each_of_two_periods_does_not_make_a_pivot(threadsafe):
    """Heat resets with the version, so lookups in different periods do not
    add up."""
    engine, mgr, cset = popular_engine(threadsafe)
    for _period in range(2):
        engine.lookup(mkpath("/a/b/f"))
        mgr.periodic_update()
        assert mgr.working_pool.size == 0
    assert engine.tree._resolve_admin(mkpath("/a/b/f")).heat == 1


@on_both_trees
def test_a_period_of_targets_seen_once_keeps_the_working_pool(threadsafe):
    """A period whose candidates were all looked up once is idle: the
    working pool stays, the same object and not freed, while the period
    still swaps and advances the heat version."""
    engine, mgr, cset = popular_engine(threadsafe)
    engine.lookup(mkpath("/a/b/f"))
    engine.lookup(mkpath("/a/b/f"))
    engine.tick()
    pool = mgr.working_pool
    assert pool.size == 1
    engine.lookup(mkpath("/a/b/f"))
    engine.lookup(mkpath("/c/d/g"))
    assert len(cset) == 2 and all(d.heat == 1 for d in cset.members())
    version, swaps = cset.version, mgr.swaps
    mgr.periodic_update()
    assert mgr.working_pool is pool and not pool.freed
    assert (cset.version, mgr.swaps) == (version + 1, swaps + 1)
    assert len(cset) == 0


# -- invalidate_for_metadata --------------------------------------------------------


def test_invalidate_removes_covered_run_and_repairs_overlap():
    tree, cset, mgr = fig4_manager()
    removed = mgr.invalidate_for_metadata(mkpath("/a1/b1/c2"))
    assert removed == 2  # pivots 2 and 3
    wp = mgr.working_pool
    assert [p.path for p in wp.pivots] == ["/a1/b1/c1", "/a1/b2/c3"]
    assert wp.dump() == "0\t/a1/b1/c1\n1\t/a1/b2/c3"  # survivor's overlap against pivot 1
    assert verify_pool(wp) == []


@on_both_trees
def test_covering_rename_keeps_the_surviving_pivot_objects(threadsafe):
    """A repair installs a pool of the old pool's own surviving pivots, equal
    to a fresh build of their names, and the old pool is still freed."""
    tree, cset, mgr = fig4_manager(threadsafe)
    tree.register_hook(mgr.invalidate_for_metadata)  # as an engine's hook calls it
    old = mgr.working_pool
    _check_components(tree, old)
    tree.rename_node(mkpath("/a1/b1/c2"), mkpath("/a1/b1/z9"))
    new = mgr.working_pool
    _check_components(tree, new)
    assert new is not old and new.size == 2
    by_names = {pv.names: pv for pv in old.pivots}
    assert all(pv is by_names[pv.names] for pv in new.pivots)
    fresh = build_pool([tree._resolve_admin(PathBuf(pv.names)) for pv in new.pivots], 16)
    assert pool_shape(new) == pool_shape(fresh)
    assert mgr.reclaim() == 1 and old.freed and not new.freed
    with pytest.raises(ContractViolation):
        find_best_pivot(old, mkpath("/a1/b1/c1"))
    assert find_best_pivot(new, mkpath("/a1/b1/c1"))[0] is by_names[("a1", "b1", "c1")]


def _check_path_map(pool):
    """The pool's path map holds one entry per pivot, keyed by its path, and
    a scan of that path, canonical or with a trailing slash, returns the
    pivot at full depth with the reference scan's counts."""
    assert sorted(pool.by_path) == sorted(pv.path for pv in pool.pivots)
    for pv in pool.pivots:
        pair = pool.by_path[pv.path][0]
        assert pair[0] is pv and pair[1] == pv.depth
        for text in (pv.path, pv.path + "/"):
            q, stats = PathBuf.parse(text), ScanStats()
            ref = reference_scan(pool, q)
            assert find_best_pivot(pool, q, stats) == ref.result == (pv, pv.depth)
            assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)


def _check_components(tree, pool):
    """Each component holds the dentry its id names, and that dentry is the
    live one at the component's depth of the pivot's path."""
    for pv in pool.pivots:
        for k, c in enumerate(pv.components, start=1):
            assert c.node is tree.nodes[c.node_id]
            assert c.node is tree._resolve_admin(PathBuf(pv.names[:k])) and not c.node.dead


@on_both_trees
def test_path_map_holds_each_pivot_with_its_scan_counts(threadsafe):
    """Random pools of single pivots and of pivots that prefix another; a
    rename that covers a pivot installs a pool whose map has no entry for it,
    and whose survivors' entries carry the repaired pool's counts."""
    rng = random.Random(2626)
    seen = collections.Counter()
    for _trial in range(40):
        paths = random_tree_paths(rng, rng.randint(3, 12), max_depth=4)
        prefixes = sorted({p.rsplit("/", k)[0] for p in paths for k in range(p.count("/"))})
        tree, cset, mgr = make_manager(make_tree(*paths, threadsafe=threadsafe))
        tree.register_hook(mgr.invalidate_for_metadata)
        heat_up(tree, cset, rng.sample(prefixes, rng.randint(1, min(len(prefixes), 16))))
        mgr.periodic_update()
        pool = mgr.working_pool
        _check_path_map(pool)
        _check_components(tree, pool)
        for a, b in zip(pool.pivots, pool.pivots[1:] + [None]):
            seen["prefix of another" if b is not None and b.names[: a.depth] == a.names else "single"] += 1
        covered = rng.choice(pool.pivots)
        k = rng.randint(1, covered.depth)
        tree.rename_node(PathBuf(covered.names[:k]), PathBuf(covered.names[: k - 1] + ("zz",)))
        repaired = mgr.working_pool
        assert repaired is not pool and covered.path not in repaired.by_path
        _check_path_map(repaired)
        _check_components(tree, repaired)
        seen["repaired to empty" if repaired.size == 0 else "repaired"] += 1
    assert len(seen) == 4 and all(seen.values()), seen


def _slice_rule(pivots, prefix):
    """The indices of the pivots a modification of `prefix` covers, by
    comparing every pivot's leading names: the rule the bisection
    replaces."""
    return [i for i, p in enumerate(pivots) if p.names[: len(prefix)] == prefix]


# names beside /a/b that sort between "/a" and "/a/b" as path text, or right
# after "a" as names: a bisection on the wrong order splits the run under /a
_CLOSE_NAMES = ("a", "a.d", "a-b", "ab", "b")


def _close_name_paths(rng: random.Random, n_dirs: int) -> list[str]:
    paths = {"/a/b"}
    while len(paths) < n_dirs:
        paths.add("/" + "/".join(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(1, 3))))
    return sorted(paths)


def _split_by_text(pivots, run):
    """Whether the run's pivots would not be contiguous in a pool sorted by
    path text: "/a.d" falls between "/a" and "/a/b"."""
    texts = sorted(p.path for p in pivots)
    at = sorted(texts.index(pivots[i].path) for i in run)
    return at != list(range(at[0], at[0] + len(at)))


@on_both_trees
def test_covered_run_is_the_slice_rules_run_randomized(threadsafe):
    """`covered_run` bisects the pool to the run the slice rule finds for
    every prefix of every pivot, the root, prefixes that run past a pivot's
    names, names no pivot has and random tree paths, over random paths and
    over close names. The hook installs the slice rule's pool over the old
    pool's own pivot objects."""
    rng = random.Random(2525)
    seen = collections.Counter()
    for trial in range(60):
        close = trial >= 40
        if close:
            paths = _close_name_paths(rng, rng.randint(3, 14))
        else:
            paths = random_tree_paths(rng, rng.randint(3, 14), max_depth=5)
        prefixes = sorted({p.rsplit("/", k)[0] for p in paths for k in range(p.count("/"))})
        tree, cset, mgr = make_manager(make_tree(*paths, threadsafe=threadsafe))
        heat_up(tree, cset, rng.sample(prefixes, rng.randint(1, min(len(prefixes), 16))))
        mgr.periodic_update()
        pool = mgr.working_pool
        pivots = pool.pivots
        queries = {(): "root"}
        for pv in pivots:
            for k in range(1, pv.depth + 1):
                queries[pv.names[:k]] = "prefix of a pivot"
            queries.setdefault(pv.names + ("zz",), "past a pivot's names")
            k = rng.randrange(pv.depth)
            queries.setdefault(pv.names[:k] + ("zz",) + pv.names[k + 1 :], "a name no pivot has")
        for d in rng.sample(tree.nodes[1:], min(8, len(tree.nodes) - 1)):
            queries.setdefault(tree.materialize_path(d).components, "tree path")
        for prefix, kind in queries.items():
            start, end = pool.covered_run(prefix)
            want = _slice_rule(pivots, prefix)
            assert list(range(start, end)) == want, (prefix, [p.path for p in pivots])
            seen[kind] += 1
            seen["covers none" if not want else "covers one" if len(want) == 1 else "covers several"] += 1
            seen["close names, split by text"] += close and bool(want) and _split_by_text(pivots, want)
        for prefix in rng.sample(sorted(queries), 3):
            old = mgr.working_pool
            want = _slice_rule(old.pivots, prefix)
            path = PathBuf(prefix) if prefix else mkpath("/")
            assert mgr.invalidate_for_metadata(path) == len(want)
            new = mgr.working_pool
            survivors = [p for i, p in enumerate(old.pivots) if i not in want]
            assert (new is old) == (not want)
            assert pool_shape(new) == pool_shape(PivotPool(survivors))
            assert len(new.pivots) == len(survivors) and all(a is b for a, b in zip(new.pivots, survivors))
    kinds = {"root", "prefix of a pivot", "past a pivot's names", "a name no pivot has", "tree path"}
    runs = {"covers none", "covers one", "covers several", "close names, split by text"}
    assert kinds | runs == {k for k, v in seen.items() if v}, seen


def test_invalidate_replaces_the_pivot_list_never_edits_it():
    # find_best_pivot iterates pool.pivots without copying it, so a scan that
    # started before the invalidation must keep seeing the list it started on
    tree, cset, mgr = fig4_manager()
    held = mgr.working_pool.pivots
    before = list(held)
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c2")) == 2
    assert len(held) == len(before)
    assert all(a is b for a, b in zip(held, before))
    assert mgr.working_pool.pivots is not held


def test_invalidate_covering_nothing_keeps_the_working_pool():
    tree, cset, mgr = fig4_manager()
    pool, gen = mgr.working_pool, mgr.working_pool.generation
    assert mgr.invalidate_for_metadata(mkpath("/zz")) == 0
    assert mgr.working_pool is pool and pool.generation == gen


def test_invalidate_root_removes_everything():
    tree, cset, mgr = fig4_manager()
    removed = mgr.invalidate_for_metadata(mkpath("/"))
    assert removed == 4
    assert mgr.working_pool.size == 0


def test_invalidation_completeness():
    tree, cset, mgr = fig4_manager()
    mgr.invalidate_for_metadata(mkpath("/a1/b1"))
    for q in ("/a1/b1/c1", "/a1/b1/c2/d2/e2/x", "/a1/b1/c2/d2/e3/f3/foo"):
        hit = find_best_pivot(mgr.working_pool, mkpath(q))
        assert hit is None or not mkpath("/a1/b1").is_component_prefix_of(mkpath(hit[0].path))


def test_exact_path_counts_as_covered():
    tree, cset, mgr = fig4_manager()
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c1")) == 1
    assert "/a1/b1/c1" not in [p.path for p in mgr.working_pool.pivots]


@on_both_trees
def test_pinned_pool_is_unchanged_by_invalidation(threadsafe):
    """A token pinned across the call keeps the old pool as it was, covered
    pivots included, and its scans still equal the reference scan."""
    tree, cset, mgr = fig4_manager(threadsafe)
    old = mgr.working_pool
    held = list(old.pivots)
    token_id, pool = mgr.reader_enter()
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c2")) == 2
    assert pool is old and old.pivots == held
    for q in FIG4_PATHS + ("/a1/b1/c2/d2/e3/f3/foo", "/zz"):
        stats = ScanStats()
        got = find_best_pivot(pool, mkpath(q), stats)
        ref = reference_scan(pool, mkpath(q))
        assert got == ref.result, q
        assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)
    mgr.reader_exit(token_id)


@on_both_trees
def test_every_pool_carries_its_path_map_from_construction(threadsafe):
    """A tick swap and a covering invalidation both install a pool whose
    path map was filled when it was built; the map is empty only for an
    empty pool."""
    assert PivotPool([]).by_path == {} and build_pool([], 16).by_path == {}
    tree, cset, mgr = fig4_manager(threadsafe)  # one tick swap
    queries = FIG4_PATHS + ("/a1/b1/c2/d2/e3/f3/foo", "/zz")
    swapped = mgr.working_pool
    assert swapped.size == 4
    _check_path_map(swapped)
    assert [find_best_pivot(swapped, mkpath(q)) is not None for q in queries] == [True] * 5 + [False]
    assert mgr.invalidate_for_metadata(mkpath("/a1/b1/c2")) == 2
    repaired = mgr.working_pool
    assert repaired.size == 2
    _check_path_map(repaired)
    hits = [find_best_pivot(repaired, mkpath(q)) for q in queries]
    assert [h[0].path if h else None for h in hits] == ["/a1/b1/c1"] * 3 + ["/a1/b2/c3", "/a1/b1/c1", None]
    assert mgr.invalidate_for_metadata(mkpath("/")) == 2
    assert mgr.working_pool.size == 0 and mgr.working_pool.by_path == {}
    assert find_best_pivot(mgr.working_pool, mkpath("/a1/b1/c1")) is None


def test_invalidate_matches_oracle_on_random_pools():
    """Random pools, random covering prefixes, a reader pinned across each
    call: the installed pool is the old one minus the covered pivots, and the
    pinned pool keeps serving its survivors until the reader exits."""
    rng = random.Random(8)
    for _ in range(60):
        paths = random_tree_paths(rng, rng.randint(1, 20))
        tree = make_tree(*paths, threadsafe=True)
        _tree, _cset, mgr = make_manager(tree, bound=len(paths))
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
    tree, cset, mgr = fig4_manager(threadsafe)
    old_pool = mgr.working_pool
    heat_a_changed_set(tree, cset)
    mgr.periodic_update()  # retires old_pool
    assert mgr.reclaim_queue.pending == 0  # tick reclaims opportunistically
    assert old_pool.freed


def test_reader_pins_generation():
    tree, cset, mgr = fig4_manager(threadsafe=True)
    old_pool = mgr.working_pool
    token_id, pool = mgr.reader_enter()
    heat_a_changed_set(tree, cset)
    mgr.periodic_update()
    assert not old_pool.freed  # grace period: retired at the reader's generation
    # the pinned snapshot is still fully usable
    assert find_best_pivot(pool, mkpath("/a1/b1/c1")) is not None
    mgr.reader_exit(token_id)
    assert mgr.reclaim() >= 1
    assert old_pool.freed


@on_both_trees
def test_use_after_reclaim_trips_sentinel(threadsafe):
    tree, cset, mgr = fig4_manager(threadsafe)
    old_pool = mgr.working_pool
    heat_a_changed_set(tree, cset)
    mgr.periodic_update()
    assert old_pool.freed
    with pytest.raises(ContractViolation):
        find_best_pivot(old_pool, mkpath("/a1/b1/c1"))


def test_removed_pivots_reclaimed_after_grace():
    tree, cset, mgr = fig4_manager(threadsafe=True)
    token_id, pool = mgr.reader_enter()
    mgr.invalidate_for_metadata(mkpath("/a1/b1/c2"))
    mgr.reclaim()
    assert not pool.freed  # reader from the same generation still live
    mgr.reader_exit(token_id)
    mgr.reclaim()
    assert pool.freed


@on_both_trees
def test_reclaim_idempotent(threadsafe):
    tree, cset, mgr = fig4_manager(threadsafe)
    heat_a_changed_set(tree, cset)
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
    tree2, cset, mgr = make_manager(make_tree("/seed", threadsafe=True))
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
