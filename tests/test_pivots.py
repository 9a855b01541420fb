from __future__ import annotations

import collections
import itertools
import random
import sys
import threading

from stagewalk import DIR, PathBuf, PivotPool, build_pool, find_best_pivot
from stagewalk import pivots
from stagewalk.pivots import ScanStats, verify_pool
from conftest import (
    FIG4_PATHS,
    brute_force_best,
    lcp_components,
    make_node,
    make_tree,
    mkpath,
    pool_shape,
    random_tree_paths,
    reference_build_pool,
    reference_scan,
)


# -- build_pool -------------------------------------------------------------------


def test_worked_example_overlaps(fig4):
    _tree, _cands, pool = fig4
    assert [p.path for p in pool.pivots] == list(FIG4_PATHS)
    assert pool.dump() == "0\t/a1/b1/c1\n2\t/a1/b1/c2/d2/e2\n4\t/a1/b1/c2/d2/e3/f3/g3\n1\t/a1/b2/c3"


def test_single_candidate():
    tree = make_tree("/q/w/e")
    pool = build_pool({tree._resolve_admin(mkpath("/q/w/e")): 0}, 16)
    assert pool.size == 1 and pool.dump() == "0\t/q/w/e"


def test_duplicates_dedup():
    """Two dentries with the same names make one pivot, of the hotter."""
    cand, twin = (make_tree("/q/w")._resolve_admin(mkpath("/q/w")) for _ in range(2))
    pool = build_pool({cand: 1, twin: 2}, 16)
    assert pool.size == 1 and pool.pivots[0].components[-1].node is twin


def test_dead_candidate_skipped():
    tree = make_tree("/q", files=("/q/gone",))
    cand = tree._resolve_admin(mkpath("/q/gone"))
    tree.unlink_node(mkpath("/q/gone"))
    pool = build_pool({cand: 0, tree._resolve_admin(mkpath("/q")): 0}, 16)
    assert [p.path for p in pool.pivots] == ["/q"]


def test_truncation_by_heat_then_path():
    tree = make_tree("/a/p1", "/a/p2", "/a/p3")
    d1 = tree._resolve_admin(mkpath("/a/p1"))
    d2 = tree._resolve_admin(mkpath("/a/p2"))
    d3 = tree._resolve_admin(mkpath("/a/p3"))
    pool = build_pool({d1: 5, d2: 9, d3: 5}, 2)
    # d2 wins on heat; the 5-heat tie breaks to the ascending path /a/p1
    assert [p.path for p in pool.pivots] == ["/a/p1", "/a/p2"]


def test_component_arrays(fig4):
    tree, _cands, pool = fig4
    pv = pool.pivots[2]  # /a1/b1/c2/d2/e3/f3/g3
    for c, name in zip(pv.components, pv.names):
        assert tree.nodes[c.node.id] is c.node and c.node.name == name
    # nothing is skipped at depth 1, so its AND of modes is all 0o777
    assert pv.components[0].prefix_trav == 0o777


def _names_of(d) -> tuple[str, ...]:
    names = []
    while d.parent is not None:
        names.append(d.name)
        d = d.parent
    return tuple(reversed(names))


def test_build_pool_matches_reference_randomized():
    """build_pool ranks on names before it materializes; its pools must equal
    the reference's, which materializes every candidate first."""
    rng = random.Random(1515)
    seen = collections.Counter()
    for _trial in range(60):
        paths = random_tree_paths(rng, rng.randint(3, 30), max_depth=5)
        tree = make_tree(*paths)
        # the same names under other ids: a repeat whose hotter dentry must win
        twin = make_tree(*rng.sample(paths, len(paths)))
        for d in tree.nodes[2:] + twin.nodes[2:]:
            if rng.random() < 0.3:
                d.mode = rng.choice((0o750, 0o711, 0o700, 0o644, 0o055))
        # few heat values: ties everywhere, across the cut too
        picked = rng.sample(tree.nodes[1:] + twin.nodes[2:], rng.randint(1, 2 * len(tree.nodes) - 3))
        cands = {d: rng.randint(0, 3) for d in picked}
        leaves = [d for d in cands if d in tree.nodes[2:] and not d.children]
        for d in rng.sample(leaves, min(len(leaves), rng.randint(0, 2))):
            tree.unlink_node(PathBuf(_names_of(d)))
        hottest: dict[tuple[str, ...], int] = {}
        dentries: dict[tuple[str, ...], set] = collections.defaultdict(set)
        for d, heat in cands.items():
            if not d.dead and d.parent is not None:
                hottest[_names_of(d)] = max(hottest.get(_names_of(d), -1), heat)
                dentries[_names_of(d)].add(id(d))
        seen["dead"] += any(d.dead for d in cands)
        seen["root"] += tree.root in cands
        seen["two dentries, one name"] += any(len(ids) > 1 for ids in dentries.values())
        heats = sorted(hottest.values(), reverse=True)
        n = len(hottest)
        for bound in (0, 1, n // 2, n, n + 3):
            got = build_pool(cands, bound)
            assert pool_shape(got) == pool_shape(reference_build_pool(cands, bound))
            assert got.size == min(bound, n) and verify_pool(got) == []
            seen["tie at the cut"] += 0 < bound < n and heats[bound - 1] == heats[bound]
    assert len(seen) == 4 and all(seen.values()), seen


def test_build_pool_materializes_only_the_kept_candidates(monkeypatch):
    paths = [f"/a{i // 8}/b{i % 8}/c0/d0/e0/f0" for i in range(64)]
    tree = make_tree(*paths)
    # heat is a permutation: the 16 kept are spread out
    cands = {tree._resolve_admin(mkpath(p)): (i * 37) % 64 for i, p in enumerate(paths)}
    made = collections.Counter()

    class CountedComponent(pivots.Component):
        __slots__ = ()

        def __init__(self, node, prefix_trav, text_len):
            made["Component"] += 1
            super().__init__(node, prefix_trav, text_len)

    monkeypatch.setattr(pivots, "Component", CountedComponent)
    pool = build_pool(cands, 16)
    # 16 kept pivots of 6 components each; materializing all 64 candidates took 384
    assert pool.size == 16 and made["Component"] <= 16 * 6
    assert pool_shape(pool) == pool_shape(reference_build_pool(cands, 16))


def test_build_pool_with_a_current_pool_matches_reference_randomized():
    """A build handed the pool before it equals the reference build of its
    candidates, whether it returns that pool or builds afresh; it returns it
    exactly when the kept names equal the pool's names or no live candidate
    is left to rank. Every current pool is a build of the same live tree, as
    the manager's is."""
    rng = random.Random(1919)
    seen = collections.Counter()
    for _trial in range(80):
        paths = random_tree_paths(rng, rng.randint(2, 20), max_depth=4)
        tree = make_tree(*paths)
        for d in tree.nodes[2:]:
            if rng.random() < 0.3:
                d.mode = rng.choice((0o750, 0o711, 0o700, 0o644, 0o055))
        live = tree.nodes[1:]
        old_cands = {d: rng.randint(0, 3) for d in rng.sample(live, rng.randint(0, len(live)))}
        current = build_pool(old_cands, rng.randint(0, len(live)))
        if rng.random() < 0.5:  # the same hot set: equal names unless the cut moves
            cands = list(old_cands)
        else:
            cands = rng.sample(live, rng.randint(0, len(live)))
        cands = {d: rng.randint(0, 3) for d in cands}
        for bound in (current.size, rng.randint(0, len(live) + 2)):
            got = build_pool(cands, bound, current)
            want = reference_build_pool(cands, bound, current)
            assert pool_shape(got) == pool_shape(want)
            assert verify_pool(got) == []
            same_names = [pv.names for pv in want.pivots] == [pv.names for pv in current.pivots]
            assert (got is current) == same_names
            seen["kept" if same_names else "built"] += 1
            seen["kept, non-empty"] += same_names and current.size > 0
    assert len(seen) == 3 and all(seen.values()), seen


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


class _CountingMap(dict):
    probes = 0

    def get(self, *args):
        self.probes += 1
        return super().get(*args)


def test_empty_pool():
    """An empty pool answers None with zero counts and never probes its map."""
    pool = build_pool({}, 16)
    pool.published = True
    pool.by_path = _CountingMap()
    stats = ScanStats()
    stats.pivots_visited = stats.char_comparisons = 7
    assert find_best_pivot(pool, mkpath("/a/b"), stats) is None
    assert (stats.pivots_visited, stats.char_comparisons) == (0, 0)
    assert pool.by_path.probes == 0


def test_no_shared_first_component(fig4):
    _tree, _cands, pool = fig4
    assert find_best_pivot(pool, mkpath("/zz/yy")) is None
    assert brute_force_best(pool, mkpath("/zz/yy")) is None


def test_first_pivot_wins_ties():
    tree = make_tree("/a/b/x1", "/a/b/x2")
    pool = build_pool({tree._resolve_admin(mkpath(p)): 0 for p in ("/a/b/x1", "/a/b/x2")}, 16)
    pool.published = True
    pivot, depth = find_best_pivot(pool, mkpath("/a/b/zz"))
    assert depth == 2 and pivot.path == "/a/b/x1"


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
    cands = {c: rng.randint(1, 50) for c in rng.sample(nodes, min(n_pivots, len(nodes)))}
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
    pool = build_pool({tree._resolve_admin(mkpath(p)): 0 for p in ("/a", "/a.d", "/a/b")}, 16)
    pool.published = True
    assert [p.path for p in pool.pivots] == ["/a", "/a/b", "/a.d"]
    pivot, depth = find_best_pivot(pool, mkpath("/a/b/x"))
    assert (pivot.path, depth) == ("/a/b", 2)
    by_text = PivotPool(sorted(pool.pivots, key=lambda p: p.path))
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


# what a scan found, and why it stopped short of the query's end
_KINDS = ("whole path", "partial hit", "query ends inside a run", "stopped by an overlap", "ran off the pool", "miss")


def _scan_kinds(path, ref) -> set[str]:
    """The kinds of the reference scan `ref` of `path`: what it found, and,
    unless the query matched in full, where it stopped."""
    if ref.result is None:
        found = "miss"
    elif ref.result[0].names == path.components:
        found = "whole path"
    else:
        found = "query ends inside a run" if ref.result[1] == path.depth else "partial hit"
    return {found, ref.stop} - {"query end"}


# sibling names that are prefixes of each other or share leading chars, or
# extend another with a byte below '/'
_CLOSE_NAMES = ("a", "ab", "abc", "abd", "abcd", "b", "ba", "bab", "a.d", "a-b")


def test_counts_match_char_by_char_reference_randomized():
    """Every scan, whether the path map or `_scan` answers it, must count as
    the reference, and a whole-path query gets the pair the map stores. The
    queries reach every kind of result and every place the scan can stop."""
    rng = random.Random(5150)
    tree = make_tree()
    nodes = []
    for _ in range(300):
        p = "/" + "/".join(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(1, 5)))
        nodes.append(make_node(tree, p, DIR))
    scans = prefix_mismatches = 0
    kinds: collections.Counter[str] = collections.Counter()
    for _ in range(300):
        cands = {c: rng.randint(1, 50) for c in rng.sample(nodes, rng.randint(1, 24))}
        pool = build_pool(cands, 16)
        pool.published = True
        queries = [PathBuf(tuple(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(0, 6)))) for _ in range(10)]
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
            found = _scan_kinds(q, ref)
            kinds.update(found)
            if "whole path" in found:
                assert got is pool.by_path[q.text][0]
            scans += 1
            prefix_mismatches += any(
                a != b and (a.startswith(b) or b.startswith(a))
                for pv in pool.pivots
                for a, b in zip(q.components, pv.names)
            )
    assert scans == 3000 and prefix_mismatches > 100
    assert sorted(kinds) == sorted(_KINDS), kinds


def test_pivot_paths_and_their_extensions_match_reference_randomized():
    """Queries built from the pool itself: every pivot's own path, whether it
    is alone in its run or a terminal pivot that prefixes the next one, and
    each pivot's path extended by one or two names. One reused ScanStats
    takes every scan's counts, so each return must write both."""
    rng = random.Random(1717)
    tree = make_tree()
    nodes = [
        make_node(tree, "/" + "/".join(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(1, 5))), DIR)
        for _ in range(300)
    ]
    stats = ScanStats()
    kinds: collections.Counter[str] = collections.Counter()
    for _ in range(200):
        cands = {c: rng.randint(1, 50) for c in rng.sample(nodes, rng.randint(1, 24))}
        pool = build_pool(cands, 16)
        pool.published = True
        pivots_ = pool.pivots
        queries = []
        for i, pv in enumerate(pivots_):
            terminal = i + 1 < len(pivots_) and pivots_[i + 1].names[: pv.depth] == pv.names
            queries.append(("terminal path" if terminal else "own path", pv.names))
            extra = tuple(rng.choice(_CLOSE_NAMES) for _ in range(rng.randint(1, 2)))
            queries.append(("extension", pv.names + extra))
        for kind, names in queries:
            q = PathBuf(names)
            got = find_best_pivot(pool, q, stats)
            ref = reference_scan(pool, q)
            assert got == ref.result, (kind, q.text)
            assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)
            kinds[kind] += 1
    assert min(kinds[k] for k in ("own path", "terminal path", "extension")) > 100, kinds


def _scan_matches_reference(pool, q, stats=None):
    stats = stats if stats is not None else ScanStats()
    got = find_best_pivot(pool, q, stats)
    ref = reference_scan(pool, q)
    assert got == ref.result
    assert (stats.pivots_visited, stats.char_comparisons) == (ref.pivots_visited, ref.char_comparisons)


_THREAD_PATHS = ("/a/x", "/a/xy", "/a/b", "/d")
# five distinct names that miss every pivot's name at the root, and five at /a
_THREAD_MISSES = ("/xa", "/c", "/ab", "/dd", "/e", "/a/xa", "/a/c", "/a/bb", "/a/x.d", "/a/y")


def test_scans_stay_exact_when_threads_run_them_at_once():
    workers = 4
    tree = make_tree(*_THREAD_PATHS)
    pool = build_pool({tree._resolve_admin(mkpath(p)): 0 for p in _THREAD_PATHS}, 16)
    pool.published = True
    queries = [mkpath(text) for text in _THREAD_MISSES]
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


def test_a_query_counts_each_pools_own_names():
    # the same name misses at /a in both pools, against different groups
    tree = make_tree("/a/x", "/a/y", "/a/xyz", "/a/qq")
    pools = []
    for paths in (("/a/x", "/a/y"), ("/a/xyz", "/a/qq")):
        pool = build_pool({tree._resolve_admin(mkpath(p)): 0 for p in paths}, 16)
        pool.published = True
        pools.append(pool)
    q = mkpath("/a/xa")
    assert [reference_scan(pool, q).char_comparisons for pool in pools] == [3, 4]
    for _ in range(2):
        for pool in pools:
            _scan_matches_reference(pool, q)


_STOP_PATHS = ("/a", "/a/b", "/a/c", "/d/e", "/g/h", "/g/i")
_STOP_QUERIES = {
    "whole path": "/a",
    "partial hit": "/a/b/x",
    "query ends inside a run": "/g",
    "stopped by an overlap": "/d/f",
    "ran off the pool": "/g/z",
    "miss": "/z",
}


def test_every_scan_overwrites_both_counts_of_a_reused_stats():
    tree = make_tree(*_STOP_PATHS)
    full = build_pool({tree._resolve_admin(mkpath(p)): 0 for p in _STOP_PATHS}, 16)
    empty = build_pool({}, 16)  # returns before any scan
    for pool in (full, empty):
        pool.published = True
    stats = ScanStats()
    for kind, text in _STOP_QUERIES.items():
        q = mkpath(text)
        for pool in (full, empty):
            stats.pivots_visited = stats.char_comparisons = -1
            _scan_matches_reference(pool, q, stats)
        assert kind in _scan_kinds(q, reference_scan(full, q))
    assert sorted(_STOP_QUERIES) == sorted(_KINDS)


# -- verify_pool -------------------------------------------------------------------------


def test_verify_clean(fig4):
    _tree, _cands, pool = fig4
    assert verify_pool(pool) == []


def test_verify_detects_corruption(fig4):
    _tree, _cands, pool = fig4
    pivots = pool.pivots
    pivots[1], pivots[2] = pivots[2], pivots[1]  # hand-corrupted order
    problems = verify_pool(pool)
    assert any("[2]" in p and "order violation" in p for p in problems)


def test_verify_detects_a_stale_path_map(fig4):
    """A repaired pool that kept the old pool's entries, the old map whole,
    and an entry holding the pivot's first component are each reported."""
    _tree, _cands, pool = fig4
    repaired = PivotPool(pool.pivots[1:])
    assert verify_pool(repaired) == []
    repaired.by_path = {pv.path: pool.by_path[pv.path] for pv in repaired.pivots}  # a longer pool's counts
    assert any("is not this pool's scan" in p for p in verify_pool(repaired))
    repaired.by_path = dict(pool.by_path)
    assert any("path map keys" in p for p in verify_pool(repaired))
    pv = pool.pivots[-1]
    pair, visited, chars, _component = pool.by_path[pv.path]
    pool.by_path[pv.path] = (pair, visited, chars, pv.components[0])
    assert verify_pool(pool) == [f"[3] path map entry of {pv.path!r} holds the wrong component"]


def test_verify_random_pools_clean():
    rng = random.Random(4)
    for _ in range(1000):
        pool, _ = _random_pool_and_queries(rng, rng.choice([1, 2, 4, 8, 16]), 0)
        assert verify_pool(pool) == []
