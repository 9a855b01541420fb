from __future__ import annotations

import hashlib
import math
import random

import pytest

from stagewalk import (
    SIX_LEVEL_PRESET,
    ConfigError,
    Credential,
    SpecInvalid,
    TraceEvent,
    TraceMalformed,
    TreeSpec,
    bench_depth_grid,
    equivalence_run,
    gen_tree,
    parse_metrics_csv,
    read_trace,
    replay,
    report,
    synth_trace,
    write_trace,
)
from conftest import mkpath


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
    assert tree.lookup_original(mkpath("/a0/b0"), Credential.OWNER)


def test_same_seed_identical_trees():
    spec = TreeSpec(levels=[3, 3], file_size_range=(10, 9999), seed=5)
    d1 = gen_tree(spec).canonical_dump()
    d2 = gen_tree(spec).canonical_dump()
    assert hashlib.sha256(d1.encode()).hexdigest() == hashlib.sha256(d2.encode()).hexdigest()
    d3 = gen_tree(spec, seed=6).canonical_dump()
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


# -- synth_trace -------------------------------------------------------------------


def test_uniform_multinomial_3_sigma():
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    n = 100_000
    trace = synth_trace(tree, "uniform", {"n_events": n}, seed=2)
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
    trace = synth_trace(tree, "hotdir-zipf", {"n_events": 500, "hot_dirs": 1}, seed=4)
    parents = {ev.path.rsplit("/", 1)[0] for ev in trace}
    assert len(parents) == 1


@pytest.mark.parametrize(
    "params",
    [
        {"n_events": -5},
        {"p_rename": 2.0},
        {"p_rename": -0.5},
        {"p_stat": 1.5},
        {"p_rename": 0.5, "p_chmod": 0.4, "p_create": 0.2},
        {"hot_dirs": 0},
    ],
)
def test_impossible_synth_params_rejected(params):
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    with pytest.raises(ConfigError):
        synth_trace(tree, "hotdir-zipf", params, seed=1)


@pytest.mark.parametrize("zipf_s", [math.nan, -math.inf, -400.0, 1000.0])
def test_zipf_exponent_without_finite_weights_rejected(zipf_s):
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    for model in ("hotdir-zipf", "uniform"):  # both models weigh the hot dirs
        with pytest.raises(ConfigError, match="zipf_s"):
            synth_trace(tree, model, {"n_events": 50, "zipf_s": zipf_s}, seed=1)


@pytest.mark.parametrize("zipf_s", [math.inf, -1.0, 0.0, 300.0])
def test_extreme_zipf_exponents_with_finite_weights_run(zipf_s):
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    trace = synth_trace(tree, "hotdir-zipf", {"n_events": 200, "zipf_s": zipf_s}, seed=1)
    hot = {ev.path.rsplit("/", 1)[0] for ev in trace}
    assert len(trace) == 200 and (len(hot) == 1) == (zipf_s >= 300.0)  # a steep exponent picks rank 1 alone


@pytest.mark.parametrize("reps", [0, -1])
def test_bench_depth_grid_needs_a_rep(reps):
    with pytest.raises(ConfigError, match="reps"):
        bench_depth_grid(pool_sizes=(1,), stage_two_lengths=(0,), reps=reps)


def test_mutation_probabilities_may_sum_to_one():
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    trace = synth_trace(tree, "uniform", {"n_events": 50, "p_rename": 0.1, "p_chmod": 0.2, "p_create": 0.7}, seed=1)
    assert len(trace) == 50 and all(ev.op in ("rename", "chmod", "create") for ev in trace)


def test_fixed_seed_byte_identical_trace(tmp_path):
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    t1 = synth_trace(tree, "hotdir-zipf", {"n_events": 300, "p_rename": 0.05, "p_chmod": 0.05}, seed=7)
    tree2 = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    t2 = synth_trace(tree2, "hotdir-zipf", {"n_events": 300, "p_rename": 0.05, "p_chmod": 0.05}, seed=7)
    f1, f2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    write_trace(t1, str(f1))
    write_trace(t2, str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_renamed_directory_moves_descendant_paths():
    spec = TreeSpec(levels=[6, 6, 6, 6], seed=1)
    for model in ("uniform", "hotdir-zipf"):
        trace = synth_trace(gen_tree(spec), model, {"n_events": 20_000, "p_rename": 0.01, "p_chmod": 0.01}, seed=5)
        res = replay(trace, "original", gen_tree(spec), record_outcomes=True)
        assert res.outcomes.count("err:NotFound") == 0, model
        # lookups do pass through renamed directories, so the check means something
        through = [
            ev for ev in trace
            if ev.op in ("stat", "open") and any(c.startswith("r") for c in ev.path.split("/")[1:-1])
        ]
        assert through, model


def test_replay_like_has_compressed_gaps():
    tree = gen_tree(TreeSpec(levels=[3, 3], seed=1))
    trace = synth_trace(tree, "replay-like", {"n_events": 300, "burst_len": 50}, seed=3)
    gaps = [b.at_ms - a.at_ms for a, b in zip(trace, trace[1:])]
    assert gaps.count(4000) == 5  # one compressed gap per burst boundary
    assert all(g in (1, 4000) for g in gaps)


def test_trace_round_trip_and_validation(tmp_path):
    tree = gen_tree(TreeSpec(levels=[2, 2], seed=1))
    trace = synth_trace(tree, "uniform", {"n_events": 50, "p_rename": 0.1}, seed=5)
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
    res = replay([], "stage", tree)
    assert res.metrics.lookups == 0
    assert res.metrics.dentries_visited == 0
    assert res.metrics.pivot_hits == 0


def test_hotdir_stage_hit_ratio_regression():
    spec = TreeSpec(levels=[6, 6, 6], seed=3)
    tree = gen_tree(spec)
    trace = synth_trace(tree, "hotdir-zipf", {"n_events": 10_000, "hot_dirs": 8}, seed=21)
    res = replay(trace, "stage", tree, manual_tick=True, tick_every=1000, pool_size=16)
    m = res.metrics
    assert m.pivot_hits / m.lookups >= 0.5  # hot set cached after the first period
    # pinned regression values for this exact (tree seed, trace seed, config)
    assert (m.lookups, m.pivot_hits, m.dentries_visited, m.char_comparisons) == (10_000, 9_000, 4_000, 116_586)
    assert m.skipped_prefix_histogram == {4: 9_000}


def test_outcomes_identical_original_vs_stage():
    spec = TreeSpec(levels=[4, 4, 4], seed=2)
    trace = synth_trace(gen_tree(spec), "hotdir-zipf", {"n_events": 2_000, "p_rename": 0.03, "p_chmod": 0.03}, seed=9)
    r1 = replay(trace, "original", gen_tree(spec), manual_tick=True, tick_every=250, record_outcomes=True)
    r2 = replay(trace, "stage", gen_tree(spec), manual_tick=True, tick_every=250, record_outcomes=True)
    assert r1.outcomes == r2.outcomes


def test_locked_and_unlocked_read_sides_agree():
    # a threadsafe tree locks the reader registry and the heat update, a
    # single-threaded one does not; one trace must give the same run on both
    spec = TreeSpec(levels=[4, 4, 4], seed=2)
    trace = synth_trace(
        gen_tree(spec), "hotdir-zipf", {"n_events": 3_000, "p_rename": 0.003, "p_chmod": 0.003, "hot_dirs": 4}, seed=4
    )
    runs = [
        replay(trace, "stage", gen_tree(spec, threadsafe=threadsafe), manual_tick=True, tick_every=250,
               record_outcomes=True)
        for threadsafe in (True, False)
    ]
    locked, unlocked = runs
    locked_mgr, unlocked_mgr = (r.resolver.manager for r in runs)
    assert locked.resolver.tree.threadsafe and not unlocked.resolver.tree.threadsafe
    m = locked.metrics
    assert m.pivot_hits > 0 and m.entries_touched > 0 and locked_mgr.swaps > 0  # not vacuous
    assert m.counter_rows() == unlocked.metrics.counter_rows()
    assert locked.outcomes == unlocked.outcomes
    assert (locked_mgr.ticks, locked_mgr.swaps) == (unlocked_mgr.ticks, unlocked_mgr.swaps)
    assert locked_mgr.active_reader_count == unlocked_mgr.active_reader_count == 0


def test_timestamp_driven_ticks():
    spec = TreeSpec(levels=[3, 3], seed=2)
    tree = gen_tree(spec)
    trace = synth_trace(tree, "replay-like", {"n_events": 400, "burst_len": 50}, seed=3)
    res = replay(trace, "stage", tree, period_ms=2000)
    from stagewalk import StageLookupEngine

    assert isinstance(res.resolver, StageLookupEngine)
    assert res.resolver.manager.ticks > 0  # 4s gaps crossed 2s period boundaries


def test_equivalence_run_three_strategies():
    spec = TreeSpec(levels=[4, 4], seed=6)
    tree = gen_tree(spec)
    trace = synth_trace(tree, "uniform", {"n_events": 1_500, "p_rename": 0.05, "p_chmod": 0.05}, seed=11)
    mismatches, metrics = equivalence_run(trace, tree, tick_every=200)
    assert mismatches == []
    assert set(metrics) == {"original", "fullpath", "stage"}


@pytest.mark.parametrize("cred", list(Credential))
def test_equivalence_under_mutation_per_credential(cred):
    spec = TreeSpec(levels=[6, 6, 6, 6], seed=5)
    tree = gen_tree(spec)
    trace = synth_trace(tree, "hotdir-zipf", {"p_rename": 0.02, "p_chmod": 0.02}, seed=31)
    mismatches, metrics = equivalence_run(trace, tree, cred=cred, tick_every=500)
    assert mismatches == []
    assert metrics["stage"].pivot_hits > 0 and metrics["stage"].entries_touched > 0  # pivots in use


def test_churn_keeps_swapping_and_hitting_pivots():
    # a build inside a single-threaded tick cannot be raced by a modification,
    # so every period swaps even though the trace renames and chmods throughout
    spec = TreeSpec(levels=[6, 6, 6, 6], seed=1)
    trace = synth_trace(gen_tree(spec), "hotdir-zipf", {"n_events": 20_000, "p_rename": 0.01, "p_chmod": 0.01},
                        seed=5)
    stage, original = (
        replay(trace, strategy, gen_tree(spec), manual_tick=True, tick_every=1000, record_outcomes=True)
        for strategy in ("stage", "original")
    )
    mgr = stage.resolver.manager
    assert mgr.ticks > 0 and mgr.swaps == mgr.ticks
    assert stage.metrics.pivot_hits / stage.metrics.lookups >= 0.5
    assert stage.outcomes == original.outcomes


# -- reporting -----------------------------------------------------------------------


def _mini_metrics(lookups: int):
    from stagewalk import Metrics

    m = Metrics()
    m.lookups = lookups
    m.dentries_visited = lookups * 3
    m.char_comparisons = lookups * 10
    m.skipped_prefix_histogram = {2: 5}
    m.distinct_resolved.update(range(7))
    m.wall_time["replay"] = 0.25
    return m


def test_report_two_runs_has_ratio_column():
    table, csv_text = report([("original", _mini_metrics(100)), ("stage", _mini_metrics(40))])
    header = csv_text.splitlines()[0].split(",")
    assert header == ["metric", "original", "stage", "stage_vs_original"]
    assert "wall.original.replay" in table and "wall." not in csv_text


def test_report_single_run_degenerates():
    _table, csv_text = report([("stage", _mini_metrics(5))])
    assert csv_text.splitlines()[0] == "metric,stage"


def test_csv_round_trip():
    runs = [("original", _mini_metrics(100)), ("stage", _mini_metrics(40))]
    _table, csv_text = report(runs)
    parsed = parse_metrics_csv(csv_text)
    for label, m in runs:
        for name, value in m.counter_rows():
            assert parsed[label][name] == value


def test_replay_determinism_byte_identical_csv():
    spec = TreeSpec(levels=[4, 4, 4], seed=12)

    def one_run() -> str:
        tree = gen_tree(spec)
        trace = synth_trace(tree, "hotdir-zipf", {"n_events": 3_000, "p_rename": 0.02, "p_chmod": 0.02}, seed=13)
        res = replay(trace, "stage", tree, manual_tick=True, tick_every=500)
        _table, csv_text = report([("stage", res.metrics)])
        return csv_text

    assert one_run().encode() == one_run().encode()


# case -> (model, synth_trace params); the mutating case renames and chmods
_PINNED_CASES = {
    "hotdir-zipf": ("hotdir-zipf", {"n_events": 3_000}),
    "uniform": ("uniform", {"n_events": 3_000}),
    "hotdir-zipf-mutating": ("hotdir-zipf", {"n_events": 3_000, "p_rename": 0.01, "p_chmod": 0.01}),
}

# (lookups, dentries_visited, char_comparisons, pivot_hits, fallbacks,
#  entries_touched, distinct_resolved, effective_search_ratio, skipped_prefix_histogram)
# as the code produced them before Stage One stopped comparing char by char; the
# mutating case as it was before the read side tested candidate membership
# through the intrusive link
_PINNED_COUNTERS = {
    "hotdir-zipf": {
        "original": ("3000", "15000", "60000", "0", "0", "0", "33", "0.002200", "{}"),
        "fullpath": ("3000", "40", "90040", "0", "0", "0", "33", "0.825000", "{}"),
        "stage": ("3000", "2500", "46176", "2500", "0", "0", "33", "0.013200", '{"5": 2500}'),
    },
    "uniform": {
        "original": ("3000", "15000", "60000", "0", "0", "0", "1395", "0.093000", "{}"),
        "fullpath": ("3000", "3100", "93100", "0", "0", "0", "1395", "0.450000", "{}"),
        "stage": (
            "3000", "11005", "71668", "2298", "0", "0", "1395", "0.126761",
            '{"1": 1056, "2": 929, "3": 242, "5": 71}',
        ),
    },
    "hotdir-zipf-mutating": {
        "original": ("2929", "14645", "58580", "0", "0", "0", "33", "0.002253", "{}"),
        "fullpath": ("2929", "45", "87915", "0", "0", "263", "33", "0.733333", "{}"),
        "stage": ("2929", "2543", "45360", "2442", "0", "1", "33", "0.012977", '{"2": 36, "5": 2406}'),
    },
}
# stage's (ticks, swaps): a tick every 500 of 3,000 events, and every tick swaps
_PINNED_STAGE_PERIODS = (5, 5)


@pytest.mark.parametrize("case", sorted(_PINNED_COUNTERS))
def test_counter_rows_pinned_across_versions(case):
    model, params = _PINNED_CASES[case]
    spec = TreeSpec(levels=[5, 5, 5, 5], seed=4)
    trace = synth_trace(gen_tree(spec), model, params, seed=8)
    for strategy, want in _PINNED_COUNTERS[case].items():
        res = replay(trace, strategy, gen_tree(spec), manual_tick=True, tick_every=500)
        assert tuple(value for _name, value in res.metrics.counter_rows()) == want, strategy
        if strategy == "stage":
            manager = res.resolver.manager
            assert (manager.ticks, manager.swaps) == _PINNED_STAGE_PERIODS


# -- depth sweep ---------------------------------------------------------------------


def test_bench_grid_counter_law():
    rows = bench_depth_grid(pool_sizes=(1, 4, 16), stage_two_lengths=range(9), reps=5)
    assert len(rows) == 27
    by_k: dict[int, set] = {}
    for row in rows:
        assert row["walked_components"] == row["stage_two"]
        assert row["original_visited"] == 8
        by_k.setdefault(row["stage_two"], set()).add(row["target"])
    for k, targets in by_k.items():
        assert len(targets) == 1  # pool size never changes the result
