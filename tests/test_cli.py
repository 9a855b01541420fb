from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stagewalk
from stagewalk import cli
from stagewalk.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from stagewalk.workload import TreeSpec, gen_tree, make_resolver, read_trace, replay, report


def test_gen_tree_synth_replay_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "3,3", "--out", prefix]) == EXIT_OK
    spec_file = f"{prefix}.spec.json"
    assert json.loads(Path(spec_file).read_text())["levels"] == [3, 3]
    dump = Path(f"{prefix}.tree.txt").read_text()
    assert "/a0/b0/c0\tfile" in dump

    trace_file = str(tmp_path / "trace.jsonl")
    assert main(["synth", "--tree", spec_file, "--model", "hotdir-zipf", "--events", "500", "--out", trace_file]) == EXIT_OK

    out_csv = str(tmp_path / "m.csv")
    assert main(["replay", "--tree", spec_file, "--trace", trace_file, "--strategy", "stage",
                 "--tick-every", "100", "--out", out_csv]) == EXIT_OK
    text = Path(out_csv).read_text()
    assert text.startswith("metric,stage")
    captured = capsys.readouterr().out
    assert "dentries_visited" in captured


def test_replay_byte_identical_between_runs(tmp_path):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "3,3,3", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "800", "--seed", "5", "--out", trace_file])
    c1, c2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    args = ["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--tick-every", "200"]
    main(args + ["--out", c1])
    main(args + ["--out", c2])
    assert Path(c1).read_bytes() == Path(c2).read_bytes()


def test_compare_emits_all_strategies(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "3,3", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "400", "--out", trace_file])
    out_csv = str(tmp_path / "cmp.csv")
    capsys.readouterr()
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file,
                 "--tick-every", "100", "--out", out_csv]) == EXIT_OK
    text = Path(out_csv).read_text()
    header = text.splitlines()[0].split(",")
    assert header[:4] == ["metric", "original", "fullpath", "stage"]
    assert "fullpath_vs_original" in header and "stage_vs_original" in header
    # one replay time per strategy on stdout, after the table; none in the CSV
    walls = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wall.")]
    assert [line.split()[0] for line in walls] == ["wall.original.replay", "wall.fullpath.replay", "wall.stage.replay"]
    assert all(line.endswith("s") for line in walls) and "wall" not in text


def test_tick_every_alone_ticks_by_event_count(tmp_path, capsys):
    """`--tick-every` on its own is the tick schedule; with `--period-ms` it
    exits 2, and `--manual-tick` is no flag."""
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "3,3", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "500", "--out", trace_file])
    base = ["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file]
    by_events, by_time = tmp_path / "events.csv", tmp_path / "time.csv"
    assert main(base + ["--tick-every", "7", "--out", str(by_events)]) == EXIT_OK
    assert main(base + ["--out", str(by_time)]) == EXIT_OK
    resolver = make_resolver("stage", gen_tree(TreeSpec.from_json(Path(f"{prefix}.spec.json").read_text())))
    replay(read_trace(trace_file), resolver, tick_every=7)
    assert by_events.read_text() == report([("stage", resolver.metrics)])[1]
    assert by_events.read_bytes() != by_time.read_bytes()
    assert main(base + ["--period-ms", "5", "--tick-every", "7"]) == EXIT_CONFIG
    assert main(base + ["--manual-tick"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--events", "-5"],
        ["synth", "--hot-dirs", "0"],
        ["compare", "--period-ms", "0"],
        ["compare", "--tick-every", "0"],
        ["compare", "--pool-size", "-1"],
    ],
)
def test_bad_setting_is_refused_before_any_tree_is_built(tmp_path, monkeypatch, capsys, argv):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2,2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    built = []
    monkeypatch.setattr(cli, "gen_tree", lambda spec: built.append(spec) or gen_tree(spec))
    capsys.readouterr()
    inputs = ["--out", str(tmp_path / "out")] if argv[0] == "synth" else ["--trace", trace_file]
    assert main(argv + ["--tree", f"{prefix}.spec.json"] + inputs) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert built == []


def test_compare_refuses_a_stage_setting_before_any_replay(tmp_path, monkeypatch):
    """Every strategy's resolver refuses a negative stage setting when it is
    built, so compare exits before any strategy replays the trace."""
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    calls = []

    def counted_replay(trace, resolver, *args, **kwargs):
        calls.append(type(resolver).__name__)
        return replay(trace, resolver, *args, **kwargs)

    monkeypatch.setattr(cli, "replay", counted_replay)
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--pool-size", "-1"]) == EXIT_CONFIG
    assert calls == []


@pytest.mark.parametrize("strategy", ["original", "fullpath"])
def test_replay_refuses_a_negative_stage_setting_for_every_strategy(tmp_path, capsys, strategy):
    """original and fullpath read no stage setting, yet a negative one exits
    2 for them as it does for stage."""
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    capsys.readouterr()
    for flag in ("--pool-size", "--heat-threshold", "--heat-capacity"):
        argv = ["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--strategy", strategy, flag, "-1"]
        assert main(argv) == EXIT_CONFIG, flag
        assert "config error" in capsys.readouterr().err, flag


def test_bench_depth_grid_output(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert main(["bench-depth", "--out", out]) == EXIT_OK
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0].startswith("stage_two,pool_size,walked_components")
    assert len(lines) == 1 + 9 * 5  # 9 stage-two lengths x 5 pool sizes


# sha256 of the trace, the compare CSV and the depth grid below. They pin the
# counters of every strategy end to end: a change that moves a counter by
# design re-pins them and lists the change in CHANGES.md.
_TRACE_SHA256 = "41e5f0587999cb25e432db6c6ce78af08771e2f8534a4e8be6da0cc5887ebd10"
_COMPARE_CSV_SHA256 = "8f522a3ac9a62f9a589381dceecbe9c739bd52d323c305e06c9dfb270c31aadd"
_GRID_SHA256 = "054c1e91386da45845665c434f505378bf5129540bab875ac5f828a924a4aea6"


def test_compare_csv_and_depth_grid_bytes_pinned(tmp_path):
    prefix, trace_file, out_csv, grid = (str(tmp_path / n) for n in ("t", "trace.jsonl", "cmp.csv", "grid.csv"))
    spec_file = f"{prefix}.spec.json"
    assert main(["gen-tree", "--levels", "6,6,6,6", "--seed", "1", "--out", prefix]) == EXIT_OK
    assert main(["synth", "--tree", spec_file, "--model", "hotdir-zipf", "--events", "20000", "--p-rename", "0.01",
                 "--p-chmod", "0.01", "--p-create", "0.01", "--seed", "5", "--out", trace_file]) == EXIT_OK
    assert main(["compare", "--tree", spec_file, "--trace", trace_file, "--tick-every", "1000", "--out", out_csv]) == EXIT_OK
    assert main(["bench-depth", "--out", grid]) == EXIT_OK
    digests = [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in (trace_file, out_csv, grid)]
    assert digests == [_TRACE_SHA256, _COMPARE_CSV_SHA256, _GRID_SHA256]


def test_bad_config_exits_2(tmp_path):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    assert main(["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--pool-size", "-1"]) == EXIT_CONFIG
    assert main(["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--period-ms", "0"]) == EXIT_CONFIG
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--tick-every", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-tree", "--levels", "2,x"],
        ["gen-tree", "--levels", ""],
        ["gen-tree", "--file-size", "10:abc"],
        ["synth", "--events", "-5"],
        ["synth", "--p-rename", "2"],
        ["synth", "--p-rename", "-0.5"],
        ["synth", "--p-rename", "0.6", "--p-chmod", "0.6"],
        ["synth", "--hot-dirs", "0"],
    ],
)
def test_malformed_or_impossible_numbers_exit_2(tmp_path, argv, capsys):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "2,2", "--out", prefix]) == EXIT_OK
    if argv[0] == "synth":
        argv = argv + ["--tree", f"{prefix}.spec.json"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.spec.json").exists()


@pytest.mark.parametrize("zipf_s", ["nan", "-inf", "-400", "1000"])
def test_zipf_exponent_without_finite_weights_exits_2(tmp_path, zipf_s, capsys):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "3,3,3", "--out", prefix]) == EXIT_OK  # 9 leaf dirs for 8 hot ones
    out = tmp_path / "trace.jsonl"
    argv = ["synth", "--tree", f"{prefix}.spec.json", f"--zipf-s={zipf_s}", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err and not out.exists()
    assert main(argv + ["--hot-dirs", "1"]) == EXIT_OK  # one rank weighs 1 whatever the exponent


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-tree", "--pool-size", "4"],
        ["bench-depth", "--strategy", "stage"],
        ["bench-depth", "--reps", "5"],
        ["replay", "--tree", "x", "--trace", "y", "--components", "8"],
        ["replay", "--tree", "x", "--trace", "y", "--workers", "2"],
        ["replay", "--tree", "x", "--trace", "y", "--seed", "1"],
    ],
)
def test_flag_not_read_by_subcommand_exits_2(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "field, value",
    [
        ("file_size_range", [1]),
        ("file_size_range", [1, 2, 3]),
        ("file_size_range", ["a", "b"]),
        ("file_size_range", [True, 2]),
        ("levels", [True, 2]),
        ("seed", 1.5),
        ("seed", True),
    ],
    ids=["range-1", "range-3", "range-str", "range-bool", "levels-bool", "seed-float", "seed-bool"],
)
def test_malformed_tree_spec_exits_2(tmp_path, field, value, capsys):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "2", "--out", prefix]) == EXIT_OK
    trace_file = str(tmp_path / "trace.jsonl")
    assert main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file]) == EXIT_OK
    spec = json.loads(Path(f"{prefix}.spec.json").read_text())
    spec[field] = value
    bad = tmp_path / "bad.spec.json"
    bad.write_text(json.dumps(spec))
    for argv in (
        ["synth", "--tree", str(bad), "--events", "10", "--out", str(tmp_path / "out.jsonl")],
        ["replay", "--tree", str(bad), "--trace", trace_file],
        ["compare", "--tree", str(bad), "--trace", trace_file],
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG, argv
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_non_utf8_spec_exits_2_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.spec.json"
    bad.write_bytes(b'\xff{"levels": [2]}')
    out = tmp_path / "out.jsonl"
    assert main(["synth", "--tree", str(bad), "--events", "10", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["replay", "compare"])
def test_non_utf8_trace_exits_3_without_traceback(tmp_path, command, capsys):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "2", "--out", prefix]) == EXIT_OK
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_bytes(b'\xff{"op": "stat", "path": "/a0"}\n')
    capsys.readouterr()
    assert main([command, "--tree", f"{prefix}.spec.json", "--trace", str(trace_file)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error") and "Traceback" not in err


def test_unknown_strategy_exits_2(tmp_path):
    # argparse rejects out-of-choices values with its usage exit code
    assert main(["replay", "--tree", "x", "--trace", "y", "--strategy", "bogus"]) == 2


def test_missing_file_exits_3(tmp_path):
    assert main(["synth", "--tree", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.jsonl")]) == EXIT_IO
    assert main(["replay", "--tree", str(tmp_path / "nope.json"), "--trace", str(tmp_path / "no.jsonl")]) == EXIT_IO


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "line",
    [
        '{"op": "chmod", "path": "/a0", "mode": "x"}',
        '{"op": "chmod", "path": "/a0", "mode": 1.5}',
        '{"op": "chmod", "path": "/a0", "mode": true}',
        '{"op": "mkdir", "path": "/a0/new", "mode": "rw"}',
        '{"op": "stat", "path": "a0//b"}',
        '{"op": "stat", "path": "/a0//b"}',
        '{"op": "rename", "path": "/a0", "new_path": "/a0/../b"}',
        '{"op": "mkdir", "path": "/a0/new", "mode": -1}',
        '{"op": "chmod", "path": "/a0", "mode": 4095}',
        '{"op": "stat", "path": "/a0", "at_ms": 1.5}',
        '{"op": "stat", "path": "/a0", "at_ms": -7}',
        '{"op": "stat", "path": "/a0", "at_ms": "5"}',
        '{"op": "stat", "path": "/a0", "at_ms": true}',
    ],
)
def test_malformed_trace_exits_3_without_traceback(tmp_path, line):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "2", "--out", prefix]) == EXIT_OK
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_text('{"op": "stat", "path": "/a0"}\n' + line + "\n")
    src = str(Path(stagewalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stagewalk.cli", "replay", "--tree", f"{prefix}.spec.json", "--trace", str(trace_file)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, code", [(["gen-tree", "--levels", "2"], EXIT_OK), (["gen-tree", "--bogus"], EXIT_CONFIG)])
def test_python_m_stagewalk_runs_the_cli(tmp_path, argv, code):
    src = str(Path(stagewalk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stagewalk", *argv, "--out", str(tmp_path / "t")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "t.spec.json").exists() == (code == EXIT_OK)
