"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time

from stagewalk import (
    Credential,
    FullPathCache,
    OriginalLookup,
    SIX_LEVEL_PRESET,
    StageLookupEngine,
    TreeSpec,
    bench_depth_grid,
    build_pool,
    find_best_pivot,
    gen_tree,
    make_resolver,
    replay,
    report,
    synth_trace,
)
from stagewalk.heat import Admission, CandidateSet, observe_target
from stagewalk.pivots import ScanStats
from soak import run_soak
from conftest import (
    FIG4_PATHS,
    brute_force_best,
    make_tree,
    mkpath,
    outcome_mismatches,
    path_of,
    reference_scan,
    replay_each_strategy,
)

OWNER = Credential.OWNER


def _line(num: int, ok: bool, desc: str, detail: str = "") -> None:
    suffix = f" :: {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}{suffix}")


# -- 1: oracle equivalence across strategies -------------------------------------------


ACCEPT_SPECS = [
    TreeSpec(levels=[10, 10, 10], seed=101),
    TreeSpec(levels=[6, 6, 6, 6], seed=102),
    TreeSpec(levels=[12, 12, 8], seed=103),
    TreeSpec(levels=[5, 5, 5, 5, 5], seed=104),
    TreeSpec(levels=[30, 30], seed=105),
    TreeSpec(levels=[8, 8, 8, 8], seed=106),
    TreeSpec(levels=[50, 20], seed=107),
    TreeSpec(levels=[7, 7, 7, 7], seed=108),
    TreeSpec(levels=[15, 15, 10], seed=109),
    TreeSpec(levels=[9, 9, 9], seed=110),
]


def test_c1_oracle_equivalence():
    started = time.perf_counter()
    total_events = 0
    total_mismatches = []
    pivot_hits = entries_touched = 0  # stage's, so the gate shows pivots in use under mutation
    for i, spec in enumerate(ACCEPT_SPECS):
        tree = gen_tree(spec)
        assert 1_000 <= tree.node_count <= 10_000
        trace = synth_trace(
            tree,
            "hotdir-zipf" if i % 2 else "uniform",
            n_events=10_000, p_rename=0.05, p_chmod=0.05, hot_dirs=8, seed=1000 + i,
        )
        lookups = sum(1 for ev in trace if ev.op in ("stat", "open"))
        mutations = len(trace) - lookups
        assert abs(lookups / len(trace) - 0.90) < 0.02, "mix drifted from 90/5/5"
        cred = Credential.OTHER if i % 2 else OWNER
        runs = replay_each_strategy(spec, trace, cred=cred, tick_every=500)
        total_mismatches.extend(outcome_mismatches(runs))
        stage = runs["stage"][0].metrics
        pivot_hits += stage.pivot_hits
        entries_touched += stage.entries_touched
        total_events += len(trace)
    elapsed = time.perf_counter() - started
    ok = total_events >= 100_000 and not total_mismatches and elapsed < 60 and pivot_hits > 0 and entries_touched > 0
    _line(1, ok, "oracle equivalence stage/fullpath vs original",
          f"{len(ACCEPT_SPECS)} trees, {total_events} events, {len(total_mismatches)} mismatches, "
          f"{pivot_hits} stage pivot hits, {entries_touched} pivots invalidated, {elapsed:.1f}s")
    assert total_events >= 100_000
    assert total_mismatches == []
    assert pivot_hits > 0 and entries_touched > 0
    assert elapsed < 60, f"took {elapsed:.1f}s"


# -- 2: the worked four-pivot example ---------------------------------------------------


def test_c2_worked_pool_example():
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",))
    cands = [tree._resolve_admin(mkpath(p)) for p in FIG4_PATHS]
    pool = build_pool(dict.fromkeys(cands, 0), 16)
    pool.published = True
    overlaps = [int(line.split("\t")[0]) for line in pool.dump().splitlines()]
    pivot, depth = find_best_pivot(pool, mkpath("/a1/b1/c2/d2/e3/f3/foo"))
    ok = overlaps == [0, 2, 4, 1] and pivot.path == "/a1/b1/c2/d2/e3/f3/g3" and depth == 6
    _line(2, ok, "four-pivot worked example", f"overlaps={overlaps}, best={pivot.path}@{depth}")
    assert overlaps == [0, 2, 4, 1]
    assert pivot is pool.pivots[2] and depth == 6


# -- 3: stage-two depth counter law ------------------------------------------------------


def test_c3_depth_counter_law_and_pool_zero_identity():
    rows = bench_depth_grid()
    by_k: dict[int, set] = {}
    law_ok = True
    for row in rows:
        if row["walked_components"] != row["stage_two"] or row["original_visited"] != 8:
            law_ok = False
        by_k.setdefault(row["stage_two"], set()).add(row["target"])
    sweep_ok = all(len(t) == 1 for t in by_k.values())

    # pool size 0: byte-for-byte counter identity with the original walk
    tree = gen_tree(TreeSpec(levels=[2] * 7, file_size_range=(0, 0), seed=7))
    engine = StageLookupEngine(tree, pool_size=0)
    baseline = OriginalLookup(tree)
    p = mkpath("/a0/b0/c0/d0/e0/f0/g0/h0")
    for _ in range(25):
        engine.stage_lookup(p)
        baseline.lookup(p)
    zero_ok = (
        engine.metrics.dentries_visited == baseline.metrics.dentries_visited
        and engine.metrics.char_comparisons == baseline.metrics.char_comparisons
    )

    ok = law_ok and sweep_ok and zero_ok
    _line(3, ok, "walked == k for k=0..8; pool sweep result-stable; pool 0 == original", "45 cells")
    assert law_ok and sweep_ok and zero_ok


# -- 4: metadata modification asymmetry ---------------------------------------------------


def _all_paths(tree) -> list[str]:
    out = []
    stack = [(tree.root, "")]
    while stack:
        d, text = stack.pop()
        if d.parent is not None:
            out.append(text)
        if d.children:
            stack.extend((c, f"{text}/{c.name}") for c in d.children.values())
    return out


def test_c4_metadata_modification_asymmetry():
    tree = gen_tree(SIX_LEVEL_PRESET)
    assert tree.node_count >= 10_000
    cache = FullPathCache(tree)
    engine = StageLookupEngine(tree, pool_size=16)

    paths = _all_paths(tree)
    for text in paths:  # warm both caches over every node
        p = mkpath(text)
        cache.lookup(p)
        engine.stage_lookup(p)
    engine.tick()  # drains the warm-era candidates

    hot = [f"/a0/b{i}/c0/d0/e0/f0" for i in range(8)] + [f"/a1/b{i}/c0/d0/e0/f0" for i in range(8)]
    for text in hot:
        for _ in range(3):
            engine.stage_lookup(mkpath(text))
    engine.tick()  # publish pivots over the hot files
    pool_paths = [p.path for p in engine.manager.working_pool.pivots]
    assert any(p.startswith("/a0/") for p in pool_paths)
    assert any(p.startswith("/a1/") for p in pool_paths)

    fp0, st0 = cache.metrics.entries_touched, engine.metrics.entries_touched
    tree.rename_node(mkpath("/a0"), mkpath("/a0renamed"))
    fp_rename = cache.metrics.entries_touched - fp0
    stage_rename = engine.metrics.entries_touched - st0

    fp1, st1 = cache.metrics.entries_touched, engine.metrics.entries_touched
    tree.chmod_node(mkpath("/a1"), 0o700)
    fp_chmod = cache.metrics.entries_touched - fp1
    stage_chmod = engine.metrics.entries_touched - st1

    ok = (
        fp_rename >= 10_000
        and fp_chmod >= 10_000
        and 1 <= stage_rename <= 16
        and 1 <= stage_chmod <= 16
    )
    _line(4, ok, "level-1 rename/chmod: fullpath touches subtree, stage touches <= pool",
          f"rename fp={fp_rename} stage={stage_rename}; chmod fp={fp_chmod} stage={stage_chmod}")
    assert fp_rename >= 10_000 and fp_chmod >= 10_000
    assert stage_rename <= 16 and stage_chmod <= 16
    assert stage_rename >= 1 and stage_chmod >= 1


# -- 5: single-scan property ----------------------------------------------------------------


def test_c5_single_scan_property():
    rng = random.Random(555)
    tree = gen_tree(TreeSpec(levels=[10, 10, 10], seed=55))
    all_dirs = [d for d in tree.nodes[1:] if d.kind == "dir" and d.parent is not None]
    files = [d for d in tree.nodes[1:] if d.kind == "file"]

    def random_query():
        base = path_of(rng.choice(files))
        keep = rng.randint(0, base.depth)
        comps = list(base.components[:keep])
        for extra in range(rng.randint(0, 3)):
            comps.append(f"{chr(ord('a') + (keep + extra) % 26)}{rng.randint(0, 10)}")
        return mkpath("/" + "/".join(comps)) if comps else mkpath("/")

    violations = 0
    optimality_checked = 0
    queries = 0
    pool = None
    started = time.perf_counter()
    while queries < 100_000:
        cands = {c: rng.randint(1, 99) for c in rng.sample(all_dirs, 12) + rng.sample(files, 4)}
        pool = build_pool(cands, 16)
        pool.published = True
        for _ in range(2_000):
            q = random_query()
            stats = ScanStats()
            got = find_best_pivot(pool, q, stats)
            ref = reference_scan(pool, q)
            if not ref.cursor_monotone:
                violations += 1
            counts = (stats.pivots_visited, stats.char_comparisons)
            if got != ref.result or counts != (ref.pivots_visited, ref.char_comparisons):
                violations += 1
            if stats.char_comparisons > len(q.text) + 4 * stats.pivots_visited:
                violations += 1
            if queries % 10 == 0:
                want = brute_force_best(pool, q)
                if (got is None) != (want is None) or (got and got[1] != want[1]):
                    violations += 1
                optimality_checked += 1
            queries += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0
    _line(5, ok, "monotone cursor, reference counts and char budget over randomized scans",
          f"{queries} queries, {optimality_checked} brute-force cross-checks, {violations} violations, {elapsed:.1f}s")
    assert violations == 0


# -- 6: heat and epoch semantics --------------------------------------------------------------


def test_c6_heat_epoch_directed():
    from stagewalk.tree import Dentry, DIR

    def node(i, cset=None, heat=0):
        """A dentry that `cset`, when given, counts `heat` lookups of."""
        d = Dentry(i, None, f"n{i}", DIR, 0o755)
        if cset is not None:
            cset.heat[d] = heat
        return d

    checks: list[bool] = []

    no_candidates = CandidateSet(0)  # the heat bump alone
    d1 = node(1)
    for _ in range(3):
        observe_target(d1, no_candidates)
    checks.append(no_candidates.heat[d1] == 3)  # counting within one period

    d2 = node(2)
    for _ in range(5):
        observe_target(d2, no_candidates)
    no_candidates.advance()
    observe_target(d2, no_candidates)
    checks.append(no_candidates.heat[d2] == 1)  # reset rule

    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    engine = StageLookupEngine(tree)
    engine.stage_lookup(mkpath("/a0/b0/c0/d0/e0/f0/g0/h0"))
    engine.apply_heat()  # a lookup logs its target; the drain applies its heat
    target = tree._resolve_admin(mkpath("/a0/b0/c0/d0/e0/f0/g0/h0"))
    heat = engine.candidates.heat
    anc_heats = []
    cur = target.parent
    while cur is not None:
        anc_heats.append(heat.get(cur, 0))
        cur = cur.parent
    checks.append(heat[target] == 1 and anc_heats == [0] * 8)  # target-only rule (7 dirs + root)

    cset = CandidateSet(4, threshold=4)
    members = [node(10 + i, cset, heat=10 + i) for i in range(4)]
    for m in members:
        cset.maybe_admit(m)
    cset.least_popular = members[0]
    checks.append(cset.maybe_admit(node(99, cset, heat=15))[0] is Admission.REPLACED)
    cset2 = CandidateSet(4, threshold=4)
    members2 = [node(20 + i, cset2, heat=10 + i) for i in range(4)]
    for m in members2:
        cset2.maybe_admit(m)
    cset2.least_popular = members2[0]
    checks.append(cset2.maybe_admit(node(98, cset2, heat=14))[0] is Admission.REJECTED)  # strict boundary

    cset3 = CandidateSet(4, threshold=4)
    ms = [node(30 + i, cset3, heat=10 + i) for i in range(4)]
    for m in ms:
        cset3.maybe_admit(m)
    cset3.least_popular = ms[2]
    cset3.heat[ms[0]] = 3
    observe_target(ms[0], cset3)
    checks.append(cset3.least_popular is ms[0])  # loser takes the cursor
    cset3.heat[ms[3]] = 99
    observe_target(ms[3], cset3)
    checks.append(cset3.least_popular is ms[0])  # winner leaves it

    # the drain, through the engine: a swap empties the candidate set, and the
    # next period's first lookup starts it again; each file is looked up
    # twice, so each is popular enough to become a pivot at the tick; the
    # explicit drains show the members the lookups make before the period
    files = ("/d/f0", "/d/f1", "/d/f2")
    engine4 = StageLookupEngine(make_tree(files=files), heat_capacity=8)
    for text in files:
        engine4.stage_lookup(mkpath(text))
        engine4.stage_lookup(mkpath(text))
    engine4.apply_heat()
    before = engine4.candidates.members()
    engine4.tick()
    drained = len(before) == 3 and len(engine4.candidates) == 0 and engine4.candidates.least_popular is None
    drained = drained and all(m not in engine4.candidates for m in before)
    engine4.stage_lookup(mkpath("/d/f1"))
    engine4.apply_heat()
    cset4 = engine4.candidates
    restarted = [m.name for m in cset4.members()] == ["f1"] and cset4.least_popular.name == "f1"
    checks.append(drained and restarted and engine4.manager.working_pool.size == 3)

    ok = all(checks)
    _line(6, ok, "heat reset / target-only / admission boundary / cursor / drain", f"{checks}")
    assert all(checks)


# -- 7: concurrency soak -------------------------------------------------------------------------


def test_c7_concurrency_soak():
    started = time.perf_counter()
    tree = gen_tree(TreeSpec(levels=[4, 4, 4], seed=77), threadsafe=True)
    engine = StageLookupEngine(tree, pool_size=16)
    hot = [f"/a{i}/b{j}/c0/d0" for i in (1, 2, 3) for j in range(4)]
    mutate = [f"/a0/b{j}" for j in range(4)]
    rep = run_soak(
        tree,
        engine,
        hot_paths=hot,
        mutate_dirs=mutate,
        n_readers=8,
        n_ticks=10_000,
        tick_cadence_s=0.0005,
        mutate_sleep_s=0.003,
        seed=7,
    )
    elapsed = time.perf_counter() - started
    ok = (rep.clean and rep.ticks == 10_000 and elapsed < 120 and rep.renames > 0 and rep.selections > 0
          and rep.retries > 0)
    _line(7, ok, "8 readers + manager + mutator, 10^4 ticks, zero violations",
          f"lookups={rep.lookups} selections={rep.selections} renames={rep.renames} swaps={rep.swaps} "
          f"retries={rep.retries} contract={len(rep.contract_violations)} audit={len(rep.audit_violations)} "
          f"pool={len(rep.pool_violations)} {elapsed:.1f}s of 120s")
    assert rep.ticks == 10_000
    assert rep.contract_violations == []
    assert rep.audit_violations == []
    assert rep.pool_violations == []
    assert rep.renames > 0 and rep.selections > 0 and rep.swaps > 0
    assert rep.retries > 0  # modifications raced lookups, which walked again from the root
    assert elapsed < 120, f"took {elapsed:.1f}s"


# -- 8: replay determinism -----------------------------------------------------------------------


def test_c8_replay_determinism():
    spec = TreeSpec(levels=[6, 6, 6], seed=88)

    def one_run() -> bytes:
        tree = gen_tree(spec)
        trace = synth_trace(tree, "hotdir-zipf", n_events=10_000, p_rename=0.05, p_chmod=0.05, seed=89)
        resolver = make_resolver("stage", tree)
        replay(trace, resolver, tick_every=1000)
        _table, csv_text = report([("stage", resolver.metrics)])
        return csv_text.encode()

    first, second = one_run(), one_run()
    ok = first == second
    _line(8, ok, "identical seeds + event-count ticks give byte-identical metrics CSV",
          f"{len(first)} bytes")
    assert first == second
