from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import re
import time
from pathlib import Path

import pytest

from stagewalk import (
    DIR,
    FILE,
    SIX_LEVEL_PRESET,
    STRATEGIES,
    ConfigError,
    Credential,
    Dentry,
    DirTree,
    Metrics,
    SpecInvalid,
    StageLookupEngine,
    TraceEvent,
    TraceMalformed,
    TreeSpec,
    gen_tree,
    make_resolver,
    read_trace,
    replay,
    report,
    synth_trace,
    write_trace,
)
from stagewalk import workload
from conftest import mkpath, outcome_mismatches, path_of, reference_gen_tree, replay_each_strategy


# -- gen_tree -------------------------------------------------------------------


def test_six_level_preset_shape():
    tree = gen_tree(SIX_LEVEL_PRESET)
    assert tree.node_count >= 10_000
    assert tree.node_count == 211_111  # 111,111 dirs + 100,000 files
    leaf = tree._resolve_admin(mkpath("/a0/b0/c0/d0/e0/f0"))
    assert leaf.kind == "file" and leaf.size == 4096
    assert mkpath("/a0/b0/c0/d0/e0/f0").depth == 6  # six levels counting the leaf


def test_fanout_one_single_chain():
    tree = gen_tree(TreeSpec(levels=[1]))
    assert tree.node_count == 3  # root, one dir, one file
    assert tree.lookup_original(mkpath("/a0/b0"), Credential.OWNER, Metrics())


def test_same_seed_identical_trees():
    spec = TreeSpec(levels=[3, 3], file_size_range=(10, 9999), seed=5)
    d1 = gen_tree(spec).canonical_dump()
    d2 = gen_tree(spec).canonical_dump()
    assert hashlib.sha256(d1.encode()).hexdigest() == hashlib.sha256(d2.encode()).hexdigest()
    d3 = gen_tree(dataclasses.replace(spec, seed=6)).canonical_dump()
    assert d1 != d3  # file sizes move with the seed


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        gen_tree(TreeSpec(levels=[]))
    with pytest.raises(SpecInvalid):
        gen_tree(TreeSpec(levels=[3, 0]))
    with pytest.raises(SpecInvalid):
        TreeSpec(levels=[1], file_size_range=(5, 1)).validate()


def test_spec_json_round_trip():
    spec = TreeSpec(levels=[4, 2], file_size_range=(1, 2), seed=9)
    assert TreeSpec.from_json(spec.to_json()) == spec


def _node_records(tree):
    """Each node's whole state, by id: every slot in `Dentry.__slots__`, the
    parent as its id and the children slot as its type and its map's key
    order. Equal records mean equal trees with equal ids and equal maps, and
    a slot left unset raises, whatever slots a dentry has."""

    def value(d, slot):
        v = getattr(d, slot)
        if slot == "parent":
            return v and v.id
        if slot == "children":
            return type(v), list(v or ())
        return v

    return [tuple(value(d, slot) for slot in Dentry.__slots__) for d in tree.nodes[1:]]


def test_gen_tree_matches_reference_randomized():
    """gen_tree gives the tree the reference gives for every spec and seed:
    the same records per id and the same canonical dump, with one name object
    per distinct name on each level. The specs draw sizes from one-value and
    from wider ranges, so a draw skipped from a wider range shows."""
    rng = random.Random(1919)
    seen = set()
    for trial in range(50):
        levels = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        lo = rng.choice((0, 1, 4096, rng.randint(0, 10_000)))
        hi = lo if trial % 2 else lo + rng.choice((1, 2, 100, 10**9))
        spec = TreeSpec(levels=levels, file_size_range=(lo, hi), seed=rng.randint(0, 2**31))
        seed = rng.choice((None, rng.randint(-5, 5)))
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        threadsafe = trial % 3 == 0
        got = gen_tree(spec, threadsafe=threadsafe)
        want = reference_gen_tree(spec, threadsafe=threadsafe)
        assert got.threadsafe is threadsafe
        assert _node_records(got) == _node_records(want)
        assert got.canonical_dump() == want.canonical_dump()
        by_level: dict[tuple[int, str], str] = {}
        for d in got.nodes[2:]:
            depth = path_of(d).depth
            assert by_level.setdefault((depth, d.name), d.name) is d.name
        seen.add((lo == hi, threadsafe, seed is None))
    assert len(seen) == 8, seen


def test_gen_tree_matches_reference_on_the_preset():
    assert _node_records(gen_tree(SIX_LEVEL_PRESET)) == _node_records(reference_gen_tree(SIX_LEVEL_PRESET))


@pytest.mark.parametrize("enabled", [True, False])
def test_gen_tree_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    """The build runs with automatic collection paused and restores the
    state it found, also when it raises halfway. The state is recorded at
    each level's letter and at each file size draw; the third draw fails,
    after every directory and two files are built."""
    was = gc.isenabled()
    real_letter, real_randint = workload._level_letter, random.Random.randint
    calls = []

    def level_letter(depth):
        calls.append(gc.isenabled())
        return real_letter(depth)

    def randint(self, lo, hi):
        calls.append(gc.isenabled())
        if len(calls) == 6:  # 3 letters (two levels and the files), then 3 draws
            raise RuntimeError("size draw failed")
        return real_randint(self, lo, hi)

    spec = TreeSpec(levels=[2, 2], file_size_range=(1, 9))
    try:
        (gc.enable if enabled else gc.disable)()
        gen_tree(spec)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(workload, "_level_letter", level_letter)
        monkeypatch.setattr(random.Random, "randint", randint)
        with pytest.raises(RuntimeError, match="size draw failed"):
            gen_tree(spec)
        assert gc.isenabled() is enabled
        assert calls == [False] * 6  # paused for the whole build
    finally:
        (gc.enable if was else gc.disable)()


def test_gen_tree_runs_no_automatic_collection():
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        tree = gen_tree(SIX_LEVEL_PRESET)
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()
    assert tree.node_count == 211_111 and starts == []


# -- synth_trace -------------------------------------------------------------------


def test_uniform_multinomial_3_sigma():
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    n = 100_000
    trace = synth_trace(tree, "uniform", n_events=n, seed=2)
    counts: dict[str, int] = {}
    for ev in trace:
        counts[ev.path] = counts.get(ev.path, 0) + 1
    leaves = 27
    mean = n / leaves
    sigma = math.sqrt(n * (1 / leaves) * (1 - 1 / leaves))
    assert len(counts) == leaves
    for path, c in counts.items():
        assert abs(c - mean) <= 3 * sigma, (path, c)


def test_hotdir_k1_single_parent():
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    trace = synth_trace(tree, "hotdir-zipf", n_events=500, hot_dirs=1, seed=4)
    parents = {ev.path.rsplit("/", 1)[0] for ev in trace}
    assert len(parents) == 1


@pytest.mark.parametrize(
    "params",
    [
        {"n_events": -5},
        {"p_rename": 2.0},
        {"p_rename": -0.5},
        {"p_rename": 0.5, "p_chmod": 0.4, "p_create": 0.2},
        {"hot_dirs": 0},
    ],
)
def test_impossible_synth_params_rejected(params):
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    with pytest.raises(ConfigError):
        synth_trace(tree, "hotdir-zipf", **params, seed=1)


@pytest.mark.parametrize("zipf_s", [math.nan, -math.inf, -400.0, 1000.0])
def test_zipf_exponent_without_finite_weights_rejected(zipf_s):
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    for model in ("hotdir-zipf", "uniform"):  # both models weigh the hot dirs
        with pytest.raises(ConfigError, match="zipf_s"):
            synth_trace(tree, model, n_events=50, zipf_s=zipf_s, seed=1)


@pytest.mark.parametrize("zipf_s", [math.inf, -1.0, 0.0, 300.0])
def test_extreme_zipf_exponents_with_finite_weights_run(zipf_s):
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    trace = synth_trace(tree, "hotdir-zipf", n_events=200, zipf_s=zipf_s, seed=1)
    hot = {ev.path.rsplit("/", 1)[0] for ev in trace}
    assert len(trace) == 200 and (len(hot) == 1) == (zipf_s >= 300.0)  # a steep exponent picks rank 1 alone


def test_mutation_probabilities_may_sum_to_one():
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    trace = synth_trace(tree, "uniform", n_events=50, p_rename=0.1, p_chmod=0.2, p_create=0.7, seed=1)
    assert len(trace) == 50 and all(ev.op in ("rename", "chmod", "create") for ev in trace)


def test_fixed_seed_byte_identical_trace(tmp_path):
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    t1 = synth_trace(tree, "hotdir-zipf", n_events=300, p_rename=0.05, p_chmod=0.05, seed=7)
    tree2 = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    t2 = synth_trace(tree2, "hotdir-zipf", n_events=300, p_rename=0.05, p_chmod=0.05, seed=7)
    f1, f2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    write_trace(t1, str(f1))
    write_trace(t2, str(f2))
    assert f1.read_bytes() == f2.read_bytes()


# sha256 of every `to_json_line()` of the traces below, one per line, as the
# synthesizer wrote them before its bookkeeping changed
_SYNTH_SHA256 = "3f40ffcc892f39dea71dcb25c2bddc8038779d208566c5d0755cb8d2ca078c45"


def test_synth_trace_bytes_pinned_and_tree_untouched():
    """Every model, lookups only and with renames, chmods and creates, two
    seeds each: the traces' bytes are pinned, and synthesizing leaves the
    tree as it was."""
    digest = hashlib.sha256()
    for model in ("uniform", "hotdir-zipf", "replay-like"):
        for mix in ({}, {"p_rename": 0.1, "p_chmod": 0.1, "p_create": 0.1}):
            for seed in (1, 2):
                tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
                before = tree.canonical_dump()
                for ev in synth_trace(tree, model, n_events=400, **mix, seed=seed):
                    digest.update(ev.to_json_line().encode() + b"\n")
                assert tree.canonical_dump() == before, (model, mix, seed)
    assert digest.hexdigest() == _SYNTH_SHA256


def test_renamed_directory_moves_descendant_paths():
    """The synthesizer's mirror follows its own renames and creates: every
    path it writes exists, and no create or rename finds its name taken,
    when the trace replays on a fresh tree."""
    spec = TreeSpec(levels=[6, 6, 6, 6], seed=1)

    def under_renamed_dir(path: str) -> bool:
        return any(c.startswith("r") for c in path.split("/")[1:-1])

    for model in ("uniform", "hotdir-zipf", "replay-like"):
        trace = synth_trace(
            gen_tree(spec), model, n_events=20_000, p_rename=0.01, p_chmod=0.01, p_create=0.01, seed=5
        )
        outcomes = replay(trace, make_resolver("original", gen_tree(spec)))
        assert outcomes.count("err:NotFound") == 0, model
        assert outcomes.count("err:AlreadyExists") == 0, model
        # lookups do pass through renamed directories, and some event names a
        # created file under one, so the checks mean something
        assert any(ev.op in ("stat", "open") and under_renamed_dir(ev.path) for ev in trace), model
        assert any(ev.path.rsplit("/", 1)[1].startswith("n") and under_renamed_dir(ev.path) for ev in trace), model


@pytest.mark.parametrize("nodes", [[], [("a", DIR)], [("f", FILE)]], ids=["empty", "dir-only", "file-at-root"])
def test_tree_without_a_file_below_a_directory_raises_config_error(nodes):
    tree = DirTree()
    for name, kind in nodes:
        tree.create_node(mkpath("/"), name, kind, 0o755)
    with pytest.raises(ConfigError, match="deepest file"):
        synth_trace(tree, "uniform", n_events=5)


def test_replay_like_has_compressed_gaps():
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    trace = synth_trace(tree, "replay-like", n_events=6 * 64, seed=3)  # six bursts of 64 events
    gaps = [b.at_ms - a.at_ms for a, b in zip(trace, trace[1:])]
    assert gaps.count(4000) == 5  # one compressed gap per burst boundary
    assert all(g in (1, 4000) for g in gaps)


def test_trace_round_trip_and_validation(tmp_path):
    tree = gen_tree(TreeSpec(levels=[2, 2], seed=1))
    trace = synth_trace(tree, "uniform", n_events=50, p_rename=0.1, seed=5)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert [e.to_json_line() for e in back] == [e.to_json_line() for e in trace]
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"op": "stat"}\n')
    with pytest.raises(TraceMalformed):
        read_trace(str(bad))
    with pytest.raises(TraceMalformed):
        TraceEvent("rename", "/a", 0).validate()


# -- replay -------------------------------------------------------------------------


def test_empty_trace_zeroed_metrics():
    tree = gen_tree(TreeSpec(levels=[2], seed=1))
    resolver = make_resolver("stage", tree)
    assert replay([], resolver) == []
    assert resolver.metrics.lookups == 0
    assert resolver.metrics.dentries_visited == 0
    assert resolver.metrics.pivot_hits == 0


def test_hotdir_stage_hit_ratio_regression():
    spec = TreeSpec(levels=[6, 6, 6], seed=3)
    tree = gen_tree(spec)
    trace = synth_trace(tree, "hotdir-zipf", n_events=10_000, hot_dirs=8, seed=21)
    resolver = make_resolver("stage", tree, pool_size=16)
    replay(trace, resolver, tick_every=1000)
    m = resolver.metrics
    assert m.pivot_hits / m.lookups >= 0.5  # hot set cached after the first period
    # pinned regression values for this exact (tree seed, trace seed, config)
    assert (m.lookups, m.pivot_hits, m.dentries_visited, m.char_comparisons) == (10_000, 9_000, 4_000, 116_586)
    assert m.skipped_prefix_histogram == {4: 9_000}


def test_outcomes_identical_original_vs_stage():
    spec = TreeSpec(levels=[4, 4, 4], seed=2)
    trace = synth_trace(gen_tree(spec), "hotdir-zipf", n_events=2_000, p_rename=0.03, p_chmod=0.03, seed=9)
    r1 = replay(trace, make_resolver("original", gen_tree(spec)), tick_every=250)
    r2 = replay(trace, make_resolver("stage", gen_tree(spec)), tick_every=250)
    assert r1 == r2


def test_locked_and_unlocked_read_sides_agree():
    # a threadsafe tree locks the reader registry and the heat update, a
    # single-threaded one does not; one trace must give the same run on both
    spec = TreeSpec(levels=[4, 4, 4], seed=2)
    trace = synth_trace(
        gen_tree(spec), "hotdir-zipf", n_events=3_000, p_rename=0.003, p_chmod=0.003, hot_dirs=4, seed=4
    )
    locked, unlocked = (make_resolver("stage", gen_tree(spec, threadsafe=threadsafe)) for threadsafe in (True, False))
    locked_outcomes, unlocked_outcomes = (
        replay(trace, resolver, tick_every=250) for resolver in (locked, unlocked)
    )
    locked_mgr, unlocked_mgr = locked.manager, unlocked.manager
    assert locked.tree.threadsafe and not unlocked.tree.threadsafe
    m = locked.metrics
    assert m.pivot_hits > 0 and m.entries_touched > 0 and locked_mgr.swaps > 0  # not vacuous
    assert m.counter_rows() == unlocked.metrics.counter_rows()
    assert locked_outcomes == unlocked_outcomes
    assert (locked_mgr.ticks, locked_mgr.swaps) == (unlocked_mgr.ticks, unlocked_mgr.swaps)
    assert locked_mgr.active_reader_count == unlocked_mgr.active_reader_count == 0


def test_replay_records_each_lookup_target():
    spec = TreeSpec(levels=[2, 2], seed=1)
    target = gen_tree(spec)._resolve_admin(mkpath("/a0/b1/c0")).id
    trace = [TraceEvent("stat", "/a0/b1/c0"), TraceEvent("open", "/a0/b1/c0"), TraceEvent("open", "/a0/x")]
    runs = replay_each_strategy(spec, trace)
    for _resolver, outcomes in runs.values():
        assert outcomes == [f"ok:{target}", f"ok:{target}", "err:NotFound"]


def test_replay_applies_mkdir_events():
    spec = TreeSpec(levels=[2, 2], seed=1)
    trace = [
        TraceEvent("mkdir", "/a0/new"),  # no mode: the default
        TraceEvent("create", "/a0/new/f"),
        TraceEvent("stat", "/a0/new/f"),
        TraceEvent("open", "/a0/new"),
        TraceEvent("mkdir", "/a0/new"),
        TraceEvent("mkdir", "/a0/missing/d"),
    ]
    runs = replay_each_strategy(spec, trace)
    assert outcome_mismatches(runs) == []
    for resolver, outcomes in runs.values():
        tree = resolver.tree
        new, f = (tree._resolve_admin(mkpath(p)).id for p in ("/a0/new", "/a0/new/f"))
        assert outcomes == [f"ok:{new}", f"ok:{f}", f"ok:{f}", f"ok:{new}", "err:AlreadyExists", "err:NotFound"]
        assert "/a0/new\tdir\t755\t0\n" in tree.canonical_dump()


@pytest.mark.parametrize(
    "settings", [{"period_ms": 0}, {"period_ms": -5}, {"tick_every": 0}, {"tick_every": 7, "period_ms": 2000}]
)
def test_bad_tick_settings_raise_config_error(settings):
    # a zero period once died dividing by zero; a zero tick_every never
    # ticked; given both, one schedule would go unread
    trace = [TraceEvent("stat", "/a0")]
    with pytest.raises(ConfigError):
        replay(trace, make_resolver("stage", gen_tree(TreeSpec(levels=[2], seed=1))), **settings)


def test_negative_pool_size_raises_config_error():
    # build_pool's clamp once ran such a replay with an empty pool
    trace = [TraceEvent("stat", "/a0")]
    with pytest.raises(ConfigError, match="pool size must be >= 0"):
        make_resolver("stage", gen_tree(TreeSpec(levels=[2], seed=1)), pool_size=-1)


def test_timestamp_driven_ticks():
    spec = TreeSpec(levels=[3, 3], seed=2)
    tree = gen_tree(spec)
    trace = synth_trace(tree, "replay-like", n_events=400, seed=3)
    resolver = make_resolver("stage", tree)
    replay(trace, resolver, period_ms=2000)
    assert isinstance(resolver, StageLookupEngine)
    assert resolver.manager.ticks > 0  # 4s gaps crossed 2s period boundaries


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_idle_gap_of_half_a_billion_periods_replays_at_once(strategy):
    # one tick per period crossed once took about an hour on this gap
    trace = [TraceEvent("stat", "/a0/b1"), TraceEvent("stat", "/a0/b1", at_ms=10**12)]
    started = time.perf_counter()
    resolver = make_resolver(strategy, gen_tree(TreeSpec(levels=[2, 2], seed=1)))
    outcomes = replay(trace, resolver, period_ms=2000)
    assert time.perf_counter() - started < 1.0
    assert len(set(outcomes)) == 1 and outcomes[0].startswith("ok:")
    if strategy == "stage":
        mgr = resolver.manager
        assert mgr.ticks == mgr.swaps == 5 * 10**8


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("periods", [0, -3])
def test_tick_below_one_period_raises_config_error(strategy, periods):
    resolver = make_resolver(strategy, gen_tree(TreeSpec(levels=[2, 2], seed=1)))
    with pytest.raises(ConfigError):
        resolver.tick(periods)
    if strategy == "stage":
        assert resolver.manager.ticks == resolver.manager.swaps == 0


def _single_period_ticks(self, periods=1):
    for _ in range(periods):
        self.manager.periodic_update()


def test_idle_gaps_end_as_single_ticks_leave_them_randomized(monkeypatch):
    """Traces whose events sit 0-5 periods apart, with renames, chmods and
    creates, replayed against a reference that ticks once per period
    crossed: the same outcomes and counters, and for stage the same ticks,
    swaps and working pool."""
    rng = random.Random(2205)
    period = 2000
    spec = TreeSpec(levels=[3, 3, 3], seed=4)
    kept_across_a_gap = 0
    for trial in range(12):
        events = synth_trace(gen_tree(spec), "hotdir-zipf",
                             n_events=600, hot_dirs=2, p_rename=0.01, p_chmod=0.01, p_create=0.01, seed=trial)
        at = 0
        for ev in events:
            at += period * (rng.randint(1, 5) if rng.random() < 0.05 else 0) + rng.randrange(period // 20)
            ev.at_ms = at
        for strategy in STRATEGIES:
            fast, ref = make_resolver(strategy, gen_tree(spec)), make_resolver(strategy, gen_tree(spec))
            fast_outcomes = replay(events, fast, period_ms=period)
            with monkeypatch.context() as m:
                m.setattr(StageLookupEngine, "tick", _single_period_ticks)
                ref_outcomes = replay(events, ref, period_ms=period)
            assert fast_outcomes == ref_outcomes
            assert fast.metrics.counter_rows() == ref.metrics.counter_rows()
            if strategy == "stage":
                mgr, ref_mgr = fast.manager, ref.manager
                assert (mgr.ticks, mgr.swaps) == (ref_mgr.ticks, ref_mgr.swaps)
                assert [pv.names for pv in mgr.working_pool.pivots] == [
                    pv.names for pv in ref_mgr.working_pool.pivots
                ]
                kept_across_a_gap += mgr.working_pool.size > 0 and fast.metrics.pivot_hits > 0
    assert kept_across_a_gap >= 6  # the pools were in use, not empty


def test_equivalence_run_three_strategies():
    spec = TreeSpec(levels=[4, 4], seed=6)
    trace = synth_trace(gen_tree(spec), "uniform", n_events=1_500, p_rename=0.05, p_chmod=0.05, seed=11)
    runs = replay_each_strategy(spec, trace, tick_every=200)
    assert outcome_mismatches(runs) == []
    assert set(runs) == {"original", "fullpath", "stage"}


@pytest.mark.parametrize("cred", list(Credential), ids=lambda c: c.name.lower())
def test_equivalence_under_mutation_per_credential(cred):
    spec = TreeSpec(levels=[6, 6, 6, 6], seed=5)
    trace = synth_trace(gen_tree(spec), "hotdir-zipf", p_rename=0.02, p_chmod=0.02, seed=31)
    runs = replay_each_strategy(spec, trace, cred=cred, tick_every=500)
    assert outcome_mismatches(runs) == []
    stage = runs["stage"][0].metrics
    assert stage.pivot_hits > 0 and stage.entries_touched > 0  # pivots in use


def test_churn_keeps_swapping_and_hitting_pivots():
    # a build inside a single-threaded tick cannot be raced by a modification,
    # so every period swaps even though the trace renames and chmods throughout
    spec = TreeSpec(levels=[6, 6, 6, 6], seed=1)
    trace = synth_trace(gen_tree(spec), "hotdir-zipf", n_events=20_000, p_rename=0.01, p_chmod=0.01, seed=5)
    stage, original = (make_resolver(strategy, gen_tree(spec)) for strategy in ("stage", "original"))
    stage_outcomes, original_outcomes = (
        replay(trace, resolver, tick_every=1000) for resolver in (stage, original)
    )
    mgr = stage.manager
    assert mgr.ticks > 0 and mgr.swaps == mgr.ticks
    assert stage.metrics.pivot_hits / stage.metrics.lookups >= 0.5
    assert stage_outcomes == original_outcomes


def test_targets_each_seen_once_make_no_pivot():
    """A cold-read trace, every file once in random order with a tick every
    32 lookups: no target is looked up twice in its period, so the pool
    stays empty and stage does original's exact work."""
    spec = TreeSpec(levels=[4, 4, 4, 4], seed=1)
    tree = gen_tree(spec)
    files = [path_of(d).text for d in tree.nodes[1:] if d.kind == "file"]
    random.Random(7).shuffle(files)
    trace = [TraceEvent("stat", text) for text in files]
    stage, original = (make_resolver(strategy, gen_tree(spec)) for strategy in ("stage", "original"))
    stage_outcomes, original_outcomes = (
        replay(trace, resolver, tick_every=32) for resolver in (stage, original)
    )
    mgr = stage.manager
    assert len(files) == 256 and mgr.ticks == 7 and mgr.swaps == 7
    assert mgr.working_pool.size == 0 and stage.metrics.pivot_hits == 0
    assert stage.metrics.dentries_visited == original.metrics.dentries_visited
    assert stage.metrics.char_comparisons == original.metrics.char_comparisons
    assert stage_outcomes == original_outcomes


# -- reporting -----------------------------------------------------------------------


def _mini_metrics(lookups: int):
    m = Metrics()
    m.lookups = lookups
    m.dentries_visited = lookups * 3
    m.char_comparisons = lookups * 10
    m.skipped_prefix_histogram = {2: 5}
    return m


def test_report_two_runs_has_ratio_column():
    table, csv_text = report([("original", _mini_metrics(100)), ("stage", _mini_metrics(40))])
    header = csv_text.splitlines()[0].split(",")
    assert header == ["metric", "original", "stage", "stage_vs_original"]
    assert "wall." not in table and "wall." not in csv_text


def test_report_csv_text_is_pinned():
    """The exact CSV bytes for two runs: an empty ratio where the base is 0,
    a JSON histogram quoted for its `,` and `"`, and pivot hits read as the
    histogram's total."""
    original, stage = _mini_metrics(100), _mini_metrics(40)
    original.skipped_prefix_histogram = {}
    stage.skipped_prefix_histogram = {2: 5, 3: 1}
    _table, csv_text = report([("original", original), ("stage", stage)])
    assert csv_text == (
        "metric,original,stage,stage_vs_original\n"
        "lookups,100,40,0.4000\n"
        "dentries_visited,300,120,0.4000\n"
        "char_comparisons,1000,400,0.4000\n"
        "pivot_hits,0,6,\n"
        "fallbacks,0,0,\n"
        "entries_touched,0,0,\n"
        'skipped_prefix_histogram,{},"{""2"": 5, ""3"": 1}",\n'
    )


def test_readme_lists_the_counter_rows():
    """README's counter list names exactly the rows of `counter_rows()`, in
    their order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Counter semantics live in `metrics.py`.", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`: ", section, flags=re.M)
    assert listed == [name for name, _value in Metrics().counter_rows()]


def test_report_single_run_degenerates():
    _table, csv_text = report([("stage", _mini_metrics(5))])
    assert csv_text.splitlines()[0] == "metric,stage"


def test_replay_determinism_byte_identical_csv():
    spec = TreeSpec(levels=[4, 4, 4], seed=12)

    def one_run() -> str:
        tree = gen_tree(spec)
        trace = synth_trace(tree, "hotdir-zipf", n_events=3_000, p_rename=0.02, p_chmod=0.02, seed=13)
        resolver = make_resolver("stage", tree)
        replay(trace, resolver, tick_every=500)
        _table, csv_text = report([("stage", resolver.metrics)])
        return csv_text

    assert one_run().encode() == one_run().encode()


# case -> (model, synth_trace keywords); the mutating case renames and chmods
_PINNED_CASES = {
    "hotdir-zipf": ("hotdir-zipf", {"n_events": 3_000}),
    "uniform": ("uniform", {"n_events": 3_000}),
    "hotdir-zipf-mutating": ("hotdir-zipf", {"n_events": 3_000, "p_rename": 0.01, "p_chmod": 0.01}),
}

# (lookups, dentries_visited, char_comparisons, pivot_hits, fallbacks,
#  entries_touched, skipped_prefix_histogram)
# as the code produced them before Stage One stopped comparing char by char; the
# mutating case as it was before the read side tested candidate membership
# through the intrusive link
_PINNED_COUNTERS = {
    "hotdir-zipf": {
        "original": ("3000", "15000", "60000", "0", "0", "0", "{}"),
        "fullpath": ("3000", "40", "90040", "0", "0", "0", "{}"),
        "stage": ("3000", "2500", "46176", "2500", "0", "0", '{"5": 2500}'),
    },
    "uniform": {
        "original": ("3000", "15000", "60000", "0", "0", "0", "{}"),
        "fullpath": ("3000", "3100", "93100", "0", "0", "0", "{}"),
        "stage": (
            "3000", "11005", "71668", "2298", "0", "0",
            '{"1": 1056, "2": 929, "3": 242, "5": 71}',
        ),
    },
    "hotdir-zipf-mutating": {
        "original": ("2929", "14645", "58580", "0", "0", "0", "{}"),
        "fullpath": ("2929", "45", "87915", "0", "0", "263", "{}"),
        "stage": ("2929", "2543", "45360", "2442", "0", "1", '{"2": 36, "5": 2406}'),
    },
}
# stage's (ticks, swaps): a tick every 500 of 3,000 events, and every tick swaps
_PINNED_STAGE_PERIODS = (5, 5)


@pytest.mark.parametrize("case", sorted(_PINNED_COUNTERS))
def test_counter_rows_pinned_across_versions(case):
    model, params = _PINNED_CASES[case]
    spec = TreeSpec(levels=[5, 5, 5, 5], seed=4)
    trace = synth_trace(gen_tree(spec), model, **params, seed=8)
    for strategy, want in _PINNED_COUNTERS[case].items():
        resolver = make_resolver(strategy, gen_tree(spec))
        replay(trace, resolver, tick_every=500)
        assert tuple(value for _name, value in resolver.metrics.counter_rows()) == want, strategy
        if strategy == "stage":
            manager = resolver.manager
            assert (manager.ticks, manager.swaps) == _PINNED_STAGE_PERIODS
