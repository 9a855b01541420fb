from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stagewalk
from stagewalk import cli
from stagewalk.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from stagewalk.workload import replay


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
                 "--manual-tick", "--tick-every", "100", "--out", out_csv]) == EXIT_OK
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
    args = ["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--manual-tick", "--tick-every", "200"]
    main(args + ["--out", c1])
    main(args + ["--out", c2])
    assert Path(c1).read_bytes() == Path(c2).read_bytes()


def test_compare_emits_all_strategies(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "3,3", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "400", "--out", trace_file])
    out_csv = str(tmp_path / "cmp.csv")
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file,
                 "--manual-tick", "--tick-every", "100", "--out", out_csv]) == EXIT_OK
    header = Path(out_csv).read_text().splitlines()[0].split(",")
    assert header[:4] == ["metric", "original", "fullpath", "stage"]
    assert "fullpath_vs_original" in header and "stage_vs_original" in header


def test_compare_refuses_a_stage_setting_after_one_replay(tmp_path, monkeypatch):
    """Stage replays first, so a setting only stage reads is refused before
    original and fullpath replay the trace."""
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    calls = []

    def counted_replay(trace, strategy, *args, **kwargs):
        calls.append(strategy)
        return replay(trace, strategy, *args, **kwargs)

    monkeypatch.setattr(cli, "replay", counted_replay)
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--pool-size", "-1"]) == EXIT_CONFIG
    assert calls == ["stage"]


def test_bench_depth_grid_output(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert main(["bench-depth", "--reps", "3", "--out", out]) == EXIT_OK
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0].startswith("stage_two,pool_size,walked_components")
    assert len(lines) == 1 + 9 * 5  # 9 stage-two lengths x 5 pool sizes


def test_bad_config_exits_2(tmp_path):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    assert main(["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--pool-size", "-1"]) == EXIT_CONFIG
    assert main(["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--period-ms", "0"]) == EXIT_CONFIG
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--manual-tick",
                 "--tick-every", "0"]) == EXIT_CONFIG


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
        ["bench-depth", "--reps", "0"],
        ["bench-depth", "--reps", "-1"],
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
        ["bench-depth", "--reps", "1", "--strategy", "stage"],
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
