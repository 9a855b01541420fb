from __future__ import annotations

import random
import threading

import pytest

from stagewalk import (
    DIR,
    FILE,
    Credential,
    Metrics,
    NotFound,
    OriginalLookup,
    PermissionDenied,
    StageLookupEngine,
    build_pool,
)
from stagewalk import engine as engine_module
from stagewalk.pivots import find_best_pivot
from conftest import make_node, make_tree, mkpath, oracle_resolve, outcome

OWNER = Credential.OWNER


def engine_with_pool(tree, pivot_paths, pool_size=16, **kwargs):
    engine = StageLookupEngine(tree, pool_size=pool_size, **kwargs)
    cands = [tree._resolve_admin(mkpath(p)) for p in pivot_paths]
    engine.manager.publish_pool(build_pool(cands, pool_size))
    return engine


# -- the two walk shapes ------------------------------------------------------------


def test_forward_walk_from_pivot():
    # pivot at c1; target two components below it
    tree = make_tree("/a1/b1/c1/d1", files=("/a1/b1/c1/d1/foo",))
    engine = engine_with_pool(tree, ["/a1/b1/c1"])
    res = engine.stage_lookup(mkpath("/a1/b1/c1/d1/foo"))
    assert res.walked_components == 2
    assert res.rolled_up is False
    assert res.skipped_components == 3
    assert res.pivot_used == "/a1/b1/c1"
    assert res.target == tree._resolve_admin(mkpath("/a1/b1/c1/d1/foo")).id


def test_backward_rollup_to_ancestor():
    # pivot at d2, but the target branches off at its parent c2
    tree = make_tree("/a1/b1/c2/d2", "/a1/b1/c2/d3", files=("/a1/b1/c2/d3/bar",))
    engine = engine_with_pool(tree, ["/a1/b1/c2/d2"])
    res = engine.stage_lookup(mkpath("/a1/b1/c2/d3/bar"))
    assert res.rolled_up is True  # matched depth 3 < pivot depth 4
    assert res.skipped_components == 3  # start component is c2
    assert res.walked_components == 2  # d3, bar
    assert res.target == tree._resolve_admin(mkpath("/a1/b1/c2/d3/bar")).id


def test_empty_pool_identical_to_original():
    tree = make_tree(files=("/a1/b1/c1/f",))
    engine = StageLookupEngine(tree)
    baseline = OriginalLookup(tree)
    p = mkpath("/a1/b1/c1/f")
    res = engine.stage_lookup(p)
    assert res.pivot_used is None and res.walked_components == 4
    assert res.target == baseline.lookup(p)
    assert engine.metrics.dentries_visited == baseline.metrics.dentries_visited
    assert engine.metrics.char_comparisons == baseline.metrics.char_comparisons


def test_counter_law_walked_equals_total_minus_matched():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    p = mkpath("/a0/b0/c0/d0/e0/f0/g0/h0")
    for cover in range(1, 8):
        engine = engine_with_pool(tree, ["/" + "/".join(p.components[:cover])])
        baseline = OriginalLookup(tree)
        before = engine.metrics.dentries_visited
        res = engine.stage_lookup(p)
        baseline.lookup(p)
        assert res.skipped_components == cover
        assert res.walked_components == 8 - cover
        # conservation: on a pivot hit the stage walk never visits more than original
        assert engine.metrics.dentries_visited - before <= baseline.metrics.dentries_visited


def test_heat_discipline_target_only():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    engine = engine_with_pool(tree, ["/a0/b0/c0"])
    path = mkpath("/a0/b0/c0/d0/e0/f0/g0/h0")
    engine.stage_lookup(path)
    target = tree._resolve_admin(path)
    assert target.heat == 1
    cur = target.parent
    while cur is not None:
        assert cur.heat == 0  # ancestors never heat up
        cur = cur.parent
    engine.stage_lookup(path)
    assert target.heat == 2


def test_pool_size_zero_fallback_counter_identity():
    tree = make_tree(files=("/a1/b1/c1/f", "/a2/b2/f"))
    engine = StageLookupEngine(tree, pool_size=0)
    baseline = OriginalLookup(tree)
    rng = random.Random(3)
    paths = ["/a1/b1/c1/f", "/a2/b2/f", "/a1/b1", "/a2"]
    for _ in range(50):
        p = mkpath(rng.choice(paths))
        engine.tick() if rng.random() < 0.1 else None
        assert engine.stage_lookup(p).target == baseline.lookup(p)
    assert engine.metrics.dentries_visited == baseline.metrics.dentries_visited
    assert engine.metrics.char_comparisons == baseline.metrics.char_comparisons
    assert engine.metrics.pivot_hits == 0


# -- permissions --------------------------------------------------------------------


def test_prefix_permissions_ok_and_vacuous():
    tree = make_tree(files=("/a/b/c/f",))
    engine = engine_with_pool(tree, ["/a/b/c", "/a"])
    res = engine.stage_lookup(mkpath("/a/b/c/f"))
    assert res.skipped_components == 3  # mask over a,b passed
    # depth-1 pivot: no skipped ancestors at all
    pv = [p for p in engine.manager.working_pool.pivots if p.path == "/a"][0]
    engine.check_prefix_permissions(pv, 1, OWNER)


def test_prefix_mask_denies_per_class():
    tree = make_tree(files=("/a/b/c/f",))
    tree.chmod_node(mkpath("/a"), 0o750)  # other loses traversal
    engine = engine_with_pool(tree, ["/a/b/c"])  # mask built after the chmod
    assert engine.stage_lookup(mkpath("/a/b/c/f"), Credential.GROUP).target
    with pytest.raises(PermissionDenied):
        engine.stage_lookup(mkpath("/a/b/c/f"), Credential.OTHER)
    # identical classification to the original walk
    assert oracle_resolve(tree, mkpath("/a/b/c/f"), Credential.OTHER) == "err:PermissionDenied"


def test_chmod_invalidates_before_masks_go_stale():
    tree = make_tree(files=("/a/b/c/f",))
    engine = engine_with_pool(tree, ["/a/b/c"])
    assert engine.stage_lookup(mkpath("/a/b/c/f")).pivot_used == "/a/b/c"
    tree.chmod_node(mkpath("/a"), 0o644)  # hook removes every covered pivot
    assert engine.manager.working_pool.size == 0
    with pytest.raises(PermissionDenied):
        engine.stage_lookup(mkpath("/a/b/c/f"))
    # the denial came from the walk, not from a stale cached mask
    assert engine.metrics.pivot_hits == 1


def test_stage_two_checks_start_component():
    # matched component itself loses traversal: the walk must deny like the original
    tree = make_tree(files=("/a/b/c/f",))
    engine = engine_with_pool(tree, ["/a/b"])
    tree.chmod_node(mkpath("/a/b"), 0o644)
    # chmod removed the covering pivot; rebuild one to simulate a fresh period
    engine.manager.publish_pool(build_pool([tree._resolve_admin(mkpath("/a/b"))], 16))
    for cred in Credential:
        assert outcome(engine.lookup, mkpath("/a/b/c/f"), cred) == oracle_resolve(tree, mkpath("/a/b/c/f"), cred)
        assert outcome(engine.lookup, mkpath("/a/b"), cred) == oracle_resolve(tree, mkpath("/a/b"), cred)


# -- staleness and fallback ------------------------------------------------------------


def test_unlinked_component_falls_back_silently():
    tree = make_tree("/a/b", files=("/a/b/f",))
    engine = engine_with_pool(tree, ["/a/b/f"])
    victim = tree._resolve_admin(mkpath("/a/b/f"))
    victim.dead = True  # simulate an unlink racing the pool (no hook fired)
    try:
        # the children maps are intact, so the fallback walk still resolves;
        # the stale pivot is simply not trusted
        res = engine.stage_lookup(mkpath("/a/b/f"))
    finally:
        victim.dead = False
    assert engine.metrics.fallbacks == 1
    assert res.pivot_used is None


def test_unlink_through_hook_removes_pivots():
    tree = make_tree("/a/b", files=("/a/b/f",))
    engine = engine_with_pool(tree, ["/a/b/f"])
    tree.unlink_node(mkpath("/a/b/f"))
    assert engine.manager.working_pool.size == 0
    with pytest.raises(NotFound):
        engine.stage_lookup(mkpath("/a/b/f"))


# -- the scan's counts -------------------------------------------------------------------


def test_each_thread_reuses_its_own_scan_stats(monkeypatch):
    tree = make_tree("/a/b", files=("/a/b/f", "/a/g"), threadsafe=True)
    engine = engine_with_pool(tree, ["/a/b"])
    seen = []  # (thread, stats passed to the scan, the slot's stats in that thread)

    def recording_scan(pool, path, stats):
        seen.append((threading.current_thread(), stats, engine._scan.stats))
        return find_best_pivot(pool, path, stats)

    monkeypatch.setattr(engine_module, "find_best_pivot", recording_scan)

    def lookups():
        for text in ("/a/b/f", "/a/g", "/a/b/f"):
            engine.lookup(mkpath(text))

    worker = threading.Thread(target=lookups)
    worker.start()
    worker.join()
    lookups()
    by_thread = {}
    for thread, stats, slot in seen:
        assert stats is slot
        by_thread.setdefault(thread, set()).add(id(stats))
    assert len(seen) == 6 and len(by_thread) == 2
    assert all(len(ids) == 1 for ids in by_thread.values())
    assert len(set.union(*by_thread.values())) == 2
    # the same six lookups in one thread count the same
    serial = engine_with_pool(make_tree("/a/b", files=("/a/b/f", "/a/g")), ["/a/b"])
    for _ in range(2):
        for text in ("/a/b/f", "/a/g", "/a/b/f"):
            serial.lookup(mkpath(text))
    assert engine.metrics.counter_rows() == serial.metrics.counter_rows()


# -- stat / open -------------------------------------------------------------------------


def test_stat_skips_six_of_eight():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    engine = engine_with_pool(tree, ["/a0/b0/c0/d0/e0/f0"])
    view = engine.stat(mkpath("/a0/b0/c0/d0/e0/f0/g0/h0"))
    assert view.kind == FILE
    assert engine.metrics.skipped_prefix_histogram == {6: 1}
    assert engine.metrics.pivot_hits == 1


def test_open_root():
    tree = make_tree("/a")
    engine = StageLookupEngine(tree)
    handle = engine.open(mkpath("/"))
    assert handle == 1
    assert engine.metrics.dentries_visited == 0


def test_stat_missing():
    tree = make_tree("/a")
    engine = StageLookupEngine(tree)
    with pytest.raises(NotFound):
        engine.stat(mkpath("/a/missing"))


def test_open_handles_are_distinct():
    tree = make_tree(files=("/a/f",))
    engine = StageLookupEngine(tree)
    handles = {engine.open(mkpath("/a/f")) for _ in range(5)}
    assert len(handles) == 5


# -- randomized equivalence (small; the acceptance suite runs the big one) ----------------


def test_small_randomized_equivalence_with_mutations():
    rng = random.Random(42)
    tree = make_tree()
    paths = []
    for _ in range(150):
        depth = rng.randint(1, 6)
        p = "/" + "/".join(f"{chr(ord('a') + d)}{rng.randint(0, 4)}" for d in range(depth))
        try:
            make_node(tree, p, FILE if depth >= 4 and rng.random() < 0.4 else DIR)
            paths.append(p)
        except Exception:
            pass
    engine = StageLookupEngine(tree, pool_size=8)
    baseline = OriginalLookup(tree)
    ops = 0
    for step in range(4000):
        roll = rng.random()
        if roll < 0.04:
            src = rng.choice(paths)
            try:
                tree.rename_node(mkpath(src), mkpath(src).parent().child(f"r{step}"))
            except Exception:
                pass
        elif roll < 0.08:
            try:
                tree.chmod_node(mkpath(rng.choice(paths)), rng.choice([0o755, 0o750, 0o700, 0o644]))
            except Exception:
                pass
        else:
            p = mkpath(rng.choice(paths))
            cred = rng.choice(list(Credential))
            assert outcome(engine.lookup, p, cred) == outcome(baseline.lookup, p, cred), (step, p.text)
            ops += 1
        if step % 400 == 0:
            engine.tick()
    assert ops > 3000
