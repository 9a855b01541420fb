from __future__ import annotations

import collections
import itertools
import random
import sys
import threading

import pytest

from stagewalk import (
    DIR,
    FILE,
    PathBuf,
    ScanStats,
    build_pool,
    compute_overlap,
    find_best_pivot,
    pool_footprint_bytes,
    verify_pool,
)
from stagewalk import pivots
from stagewalk.pivots import pool_from_sorted
from conftest import (
    FIG4_PATHS,
    brute_force_best,
    lcp_components,
    make_node,
    make_tree,
    mkpath,
    reference_scan,
)


# -- build_pool -------------------------------------------------------------------


def test_worked_example_overlaps(fig4):
    _tree, _cands, pool = fig4
    assert [p.path for p in pool.pivots] == list(FIG4_PATHS)
    assert [p.overlap for p in pool.pivots] == [0, 2, 4, 1]
    assert pool.dump() == "0\t/a1/b1/c1\n2\t/a1/b1/c2/d2/e2\n4\t/a1/b1/c2/d2/e3/f3/g3\n1\t/a1/b2/c3"


def test_single_candidate():
    tree = make_tree("/q/w/e")
    pool = build_pool([tree._resolve_admin(mkpath("/q/w/e"))], 16)
    assert pool.size == 1 and pool.pivots[0].overlap == 0


def test_duplicates_dedup():
    tree = make_tree("/q/w")
    cand = tree._resolve_admin(mkpath("/q/w"))
    pool = build_pool([cand, cand, cand], 16)
    assert pool.size == 1


def test_dead_candidate_skipped():
    tree = make_tree("/q", files=("/q/gone",))
    cand = tree._resolve_admin(mkpath("/q/gone"))
    tree.unlink_node(mkpath("/q/gone"))
    pool = build_pool([cand, tree._resolve_admin(mkpath("/q"))], 16)
    assert [p.path for p in pool.pivots] == ["/q"]


def test_truncation_by_heat_then_path():
    tree = make_tree("/a/p1", "/a/p2", "/a/p3")
    d1 = tree._resolve_admin(mkpath("/a/p1"))
    d2 = tree._resolve_admin(mkpath("/a/p2"))
    d3 = tree._resolve_admin(mkpath("/a/p3"))
    d1.heat, d2.heat, d3.heat = 5, 9, 5
    pool = build_pool([d1, d2, d3], 2)
    # d2 wins on heat; the 5-heat tie breaks to the ascending path /a/p1
    assert [p.path for p in pool.pivots] == ["/a/p1", "/a/p2"]


def test_component_arrays(fig4):
    tree, _cands, pool = fig4
    pv = pool.pivots[2]  # /a1/b1/c2/d2/e3/f3/g3
    for c, name in zip(pv.components, pv.names):
        assert tree.node(c.node_id).name == name
    # depth-1 mask is vacuous; deeper masks AND the ancestors
    assert pv.components[0].prefix_trav == 0b111


# -- compute_overlap ------------------------------------------------------------------


def test_overlap_pairs(fig4):
    _tree, _cands, pool = fig4
    p1, p2, p3, p4 = pool.pivots
    assert compute_overlap(p1, p2) == 2
    assert compute_overlap(p2, p3) == 4
    assert compute_overlap(p3, p4) == 1


def test_overlap_full_prefix():
    tree = make_tree("/a/b", "/a/b/c/d")
    pool = build_pool([tree._resolve_admin(mkpath("/a/b")), tree._resolve_admin(mkpath("/a/b/c/d"))], 16)
    assert compute_overlap(pool.pivots[0], pool.pivots[1]) == pool.pivots[0].depth


def test_overlap_divergent_first_component():
    tree = make_tree("/a1/x", "/a2/x")
    pool = build_pool([tree._resolve_admin(mkpath("/a1/x")), tree._resolve_admin(mkpath("/a2/x"))], 16)
    # root is implicit, not a component: nothing shared
    assert compute_overlap(pool.pivots[0], pool.pivots[1]) == 0


# -- find_best_pivot -------------------------------------------------------------------


def test_worked_example_best_pivot(fig4):
    _tree, _cands, pool = fig4
    stats = ScanStats()
    pivot, depth = find_best_pivot(pool, mkpath("/a1/b1/c2/d2/e3/f3/foo"), stats)
    assert pivot.path == "/a1/b1/c2/d2/e3/f3/g3"
    assert depth == 6
    assert stats.pivots_visited == 4  # the stop happens at the fourth pivot
    ref = reference_scan(pool, mkpath("/a1/b1/c2/d2/e3/f3/foo"))
    assert ref.cursor_monotone
    assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)


def test_empty_pool():
    pool = build_pool([], 16)
    pool.published = True
    assert find_best_pivot(pool, mkpath("/a/b")) is None


def test_no_shared_first_component(fig4):
    _tree, _cands, pool = fig4
    assert find_best_pivot(pool, mkpath("/zz/yy")) is None
    assert brute_force_best(pool, mkpath("/zz/yy")) is None


def test_first_pivot_wins_ties():
    tree = make_tree("/a/b/x1", "/a/b/x2")
    pool = build_pool(
        [tree._resolve_admin(mkpath("/a/b/x1")), tree._resolve_admin(mkpath("/a/b/x2"))], 16
    )
    pool.published = True
    pivot, depth = find_best_pivot(pool, mkpath("/a/b/zz"))
    assert depth == 2 and pivot.path == "/a/b/x1"


def test_invalid_pivots_skipped_as_absent(fig4):
    _tree, _cands, pool = fig4
    pool.pivots[2].valid = False  # hide the deepest match
    got = find_best_pivot(pool, mkpath("/a1/b1/c2/d2/e3/f3/foo"))
    want = brute_force_best(pool, mkpath("/a1/b1/c2/d2/e3/f3/foo"))
    assert got[1] == want[1] == 4
    assert got[0].path == want[0].path == "/a1/b1/c2/d2/e2"


def test_descent_that_finds_an_invalidated_pivot_redoes_the_scan_linearly(fig4):
    # a reader that checked `linear_only` just before a modification cleared
    # the flag of the pivot its descent then finds
    _tree, _cands, pool = fig4
    q = mkpath("/a1/b1/c2/d2/e3/f3/foo")
    assert find_best_pivot(pool, q)[1] == 6 and pool.index is not None
    pool.pivots[2].valid = False
    stats = ScanStats()
    pivot, depth = find_best_pivot(pool, q, stats)
    assert (pivot.path, depth) == ("/a1/b1/c2/d2/e2", 4)
    # the linear scan's counts alone: a redo that added to the descent's would exceed them
    ref = reference_scan(pool, q)
    assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)


_UNIVERSES: dict[tuple[int, bool], tuple[list[str], list]] = {}

# suffixes whose first byte sorts below '/': as path text, "/a.d" falls
# between "/a" and "/a/b" and would split the run of pivots under /a
_SPLIT_SUFFIXES = ("", ".d", "-b", " b", "0")


def _name(rng: random.Random, level: int, split: bool) -> str:
    letter = chr(ord("a") + level % 26)
    return letter + rng.choice(_SPLIT_SUFFIXES) if split else f"{letter}{rng.randint(0, 3)}"


def _universe(rng: random.Random, split: bool = False) -> tuple[list[str], list]:
    """A few cached path universes; pools sample candidates from them. A
    split universe's sibling names extend each other with bytes below '/'."""
    key = rng.randrange(6)
    if (key, split) not in _UNIVERSES:
        mk = random.Random((2000 if split else 1000) + key)
        tree = make_tree()
        universe: list[str] = []
        while len(universe) < 40:
            depth = mk.randint(1, 7)
            p = "/" + "/".join(_name(mk, lv, split) for lv in range(depth))
            if p not in universe:
                universe.append(p)
        nodes = []
        for p in universe:
            try:
                nodes.append(make_node(tree, p, DIR))
            except Exception:
                pass
        _UNIVERSES[key, split] = (universe, nodes)
    return _UNIVERSES[key, split]


def _random_pool_and_queries(rng: random.Random, n_pivots: int, n_queries: int, split: bool = False):
    universe, nodes = _universe(rng, split)
    cands = rng.sample(nodes, min(n_pivots, len(nodes)))
    for c in cands:
        c.heat = rng.randint(1, 50)
    pool = build_pool(cands, n_pivots)
    pool.published = True
    queries = []
    for _ in range(n_queries):
        base = mkpath(rng.choice(universe))
        keep = rng.randint(0, base.depth)
        comps = list(base.components[:keep])
        for lv in range(keep, keep + rng.randint(0, 3)):
            comps.append(_name(rng, lv, split))
        queries.append(PathBuf(tuple(comps)) if comps else mkpath("/"))
    return pool, queries


def test_pool_orders_by_components_not_path_text():
    tree = make_tree("/a", "/a.d", "/a/b")
    pool = build_pool([tree._resolve_admin(mkpath(p)) for p in ("/a", "/a.d", "/a/b")], 16)
    pool.published = True
    assert [p.path for p in pool.pivots] == ["/a", "/a/b", "/a.d"]
    pivot, depth = find_best_pivot(pool, mkpath("/a/b/x"))
    assert (pivot.path, depth) == ("/a/b", 2)
    by_text = pool_from_sorted((p.path, p.names, p.components) for p in sorted(pool.pivots, key=lambda p: p.path))
    assert any("order violation" in problem for problem in verify_pool(by_text))


def test_optimality_vs_brute_force_randomized():
    rng = random.Random(2024)
    checked = 0
    for round_, split in itertools.product(range(40), (False, True)):
        pool, queries = _random_pool_and_queries(rng, rng.choice([1, 2, 4, 8, 16]), 50, split)
        for q in queries:
            got = find_best_pivot(pool, q)
            want = brute_force_best(pool, q)
            if want is None:
                assert got is None
            else:
                assert got is not None and got[1] == want[1]
                # depth ties may pick different pivots only if scan order says so;
                # the contract pins the first deepest match
                assert got[0] is want[0] or lcp_components(got[0].names, q.components) == want[1]
            checked += 1
    assert checked == 4000


def test_overlap_skipping_with_invalid_flags_randomized():
    rng = random.Random(77)
    for round_ in range(30):
        pool, queries = _random_pool_and_queries(rng, 16, 30)
        for pv in pool.pivots:
            if rng.random() < 0.3:
                pv.valid = False
        for q in queries:
            got = find_best_pivot(pool, q)
            want = brute_force_best(pool, q)
            assert (got is None) == (want is None)
            if got:
                assert got[1] == want[1]


def test_single_scan_properties_randomized():
    rng = random.Random(31337)
    for round_ in range(20):
        pool, queries = _random_pool_and_queries(rng, 16, 50)
        for q in queries:
            stats = ScanStats()
            got = find_best_pivot(pool, q, stats)
            ref = reference_scan(pool, q)
            assert ref.cursor_monotone
            assert got == ref.result
            assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)
            assert stats.char_comparisons <= len(q.text) + 4 * stats.pivots_visited


def _stop_kind(pool, path) -> str:
    """Where a descent of the pool's index stops for `path`."""
    comps = path.components
    node, m = pool.index, 0
    while m < len(comps) and comps[m] in node.children:
        node, m = node.children[comps[m]], m + 1
    if node.pivot is not None:
        end = min(len(node.pivot.names), len(comps))
        return "leaf hit" if comps[:end] == node.pivot.names[:end] else "leaf mismatch"
    if m == len(comps):
        return "query ends in run"
    return "miss below terminal" if node.terminal else "miss"


# sibling names that are prefixes of each other or share leading chars, or
# extend another with a byte below '/'
_CLOSE_NAMES = ("a", "ab", "abc", "abd", "abcd", "b", "ba", "bab", "a.d", "a-b")


@pytest.mark.parametrize("valid_share", [0.7, 1.0])
def test_counts_match_char_by_char_reference_randomized(valid_share):
    """With invalid pivots in the pool the scan is linear; with every pivot
    valid it descends the pool's index. Both must count as the reference."""
    rng = random.Random(5150)
    tree = make_tree()
    nodes = []
    for _ in range(300):
        p = "/" + "/".join(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(1, 5)))
        nodes.append(make_node(tree, p, DIR))
    scans = prefix_mismatches = indexed = 0
    stops: collections.Counter[str] = collections.Counter()
    for _ in range(300):
        cands = rng.sample(nodes, rng.randint(1, 24))
        for c in cands:
            c.heat = rng.randint(1, 50)
        pool = build_pool(cands, 16)
        pool.published = True
        for pv in pool.pivots:
            pv.valid = rng.random() < valid_share
        queries = [PathBuf(tuple(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(0, 6)))) for _ in range(10)]
        # the first pass finds the index nodes' miss memos empty, the second warm
        for warm in (False, True):
            for q in queries:
                got_stats = ScanStats()
                got = find_best_pivot(pool, q, got_stats)
                ref = reference_scan(pool, q)
                want = ref.result
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[0] is want[0] and got[1] == want[1]
                assert got_stats.pivots_visited == ref.pivots_visited
                assert got_stats.char_comparisons == ref.char_comparisons
                if warm:
                    continue
                scans += 1
                if pool.index is not None:
                    stops[_stop_kind(pool, q)] += 1
                prefix_mismatches += any(
                    a != b and (a.startswith(b) or b.startswith(a))
                    for pv in pool.pivots
                    for a, b in zip(q.components, pv.names)
                )
        indexed += pool.index is not None
    assert scans == 3000 and prefix_mismatches > 100
    if valid_share == 1.0:
        assert indexed == 300  # every pool was scanned through its index
        # every place a descent can stop was checked against the reference
        kinds = ("leaf hit", "leaf mismatch", "query ends in run", "miss below terminal", "miss")
        assert sorted(stops) == sorted(kinds) and sum(stops.values()) == scans, stops
    else:
        assert indexed < 300


def _index_nodes(node):
    yield node
    for child in node.children.values():
        yield from _index_nodes(child)


def _scan_matches_reference(pool, q, stats=None):
    stats = stats if stats is not None else ScanStats()
    got = find_best_pivot(pool, q, stats)
    ref = reference_scan(pool, q)
    assert got == ref.result
    assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)


_MEMO_PATHS = ("/a/x", "/a/xy", "/a/b", "/d")
# five distinct names that miss the groups at the root, and five at /a
_MEMO_MISSES = ("/xa", "/c", "/ab", "/dd", "/e", "/a/xa", "/a/c", "/a/bb", "/a/x.d", "/a/y")


def _memo_pool():
    tree = make_tree(*_MEMO_PATHS)
    pool = build_pool([tree._resolve_admin(mkpath(p)) for p in _MEMO_PATHS], 16)
    pool.published = True
    find_best_pivot(pool, mkpath("/d"))  # indexes the pool; a leaf hit fills no memo
    return pool


def test_miss_memo_stays_exact_at_its_bound(monkeypatch):
    monkeypatch.setattr(pivots, "_MISMATCH_CACHE_SIZE", 2)
    pool = _memo_pool()
    for _ in range(2):
        for text in _MEMO_MISSES:
            _scan_matches_reference(pool, mkpath(text))
    assert max(len(node.misses) for node in _index_nodes(pool.index)) == 2
    assert pool.index.misses and pool.index.children["a"].misses


def test_miss_memo_stays_exact_when_threads_fill_it_at_once(monkeypatch):
    bound, workers = 3, 4
    monkeypatch.setattr(pivots, "_MISMATCH_CACHE_SIZE", bound)
    pool = _memo_pool()
    queries = [mkpath(text) for text in _MEMO_MISSES]
    want = {}
    for q in queries:
        ref = reference_scan(pool, q)
        want[q.text] = (ref.result, ref.pivots_visited, ref.char_comparisons)
    wrong = []

    def scans(seed):
        rng, stats = random.Random(seed), ScanStats()
        for _ in range(3000):
            q = rng.choice(queries)
            got = find_best_pivot(pool, q, stats)
            if (got, stats.pivots_visited, stats.char_comparisons) != want[q.text]:
                wrong.append(q.text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scans, args=(seed,)) for seed in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong
    assert all(len(node.misses) <= bound + workers for node in _index_nodes(pool.index))


def test_miss_memo_belongs_to_its_pool():
    # the same name misses at /a in both pools, against different groups
    tree = make_tree("/a/x", "/a/y", "/a/xyz", "/a/qq")
    pools = []
    for paths in (("/a/x", "/a/y"), ("/a/xyz", "/a/qq")):
        pool = build_pool([tree._resolve_admin(mkpath(p)) for p in paths], 16)
        pool.published = True
        pools.append(pool)
    q = mkpath("/a/xa")
    assert [reference_scan(pool, q).char_comparisons for pool in pools] == [3, 4]
    for _ in range(2):
        for pool in pools:
            _scan_matches_reference(pool, q)


_STOP_PATHS = ("/a", "/a/b", "/a/c", "/d/e")
_STOP_QUERIES = {
    "leaf hit": "/a/b/x",
    "leaf mismatch": "/d/f",
    "query ends in run": "/a",
    "miss below terminal": "/a/z",
    "miss": "/z",
}


def test_every_scan_overwrites_both_counts_of_a_reused_stats():
    tree = make_tree(*_STOP_PATHS)
    cands = [tree._resolve_admin(mkpath(p)) for p in _STOP_PATHS]
    indexed, linear = build_pool(cands, 16), build_pool(cands, 16)
    linear.pivots[1].valid = False  # the pool is scanned linearly from its first scan
    for pool in (indexed, linear):
        pool.published = True
    stats = ScanStats()
    for kind, text in _STOP_QUERIES.items():
        q = mkpath(text)
        for pool in (indexed, linear):
            stats.pivots_visited = stats.char_comparisons = -1
            _scan_matches_reference(pool, q, stats)
        assert _stop_kind(indexed, q) == kind
    assert indexed.index is not None and linear.linear_only


# -- verify_pool -------------------------------------------------------------------------


def test_verify_clean(fig4):
    _tree, _cands, pool = fig4
    assert verify_pool(pool) == []


def test_verify_detects_corruption(fig4):
    _tree, _cands, pool = fig4
    pool.pivots[2].overlap = 1  # hand-corrupted
    problems = verify_pool(pool)
    assert any("[2]" in p and "overlap" in p for p in problems)


def test_verify_random_pools_clean():
    rng = random.Random(4)
    for _ in range(1000):
        pool, _ = _random_pool_and_queries(rng, rng.choice([1, 2, 4, 8, 16]), 0)
        assert verify_pool(pool) == []


# -- space accounting ----------------------------------------------------------------------


def test_footprint_within_2x_of_seven_kib():
    tree = make_tree()
    cands = []
    rng = random.Random(9)
    while len(cands) < 16:
        depth = rng.randint(4, 8)
        p = "/" + "/".join(f"{chr(ord('a') + lv)}{rng.randint(0, 9)}" for lv in range(depth))
        try:
            cands.append(make_node(tree, p, FILE if depth == 8 else DIR))
        except Exception:
            pass
    pool = build_pool(cands, 16)
    footprint = pool_footprint_bytes(pool)
    assert pool.size == 16
    assert 7 * 1024 / 2 <= footprint <= 7 * 1024 * 2, footprint
