from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stagewalk
from stagewalk.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


def test_gen_tree_synth_replay_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    assert main(["gen-tree", "--levels", "3,3", "--out", prefix]) == EXIT_OK
    spec_file = f"{prefix}.spec.json"
    assert json.load(open(spec_file))["levels"] == [3, 3]
    dump = open(f"{prefix}.tree.txt").read()
    assert "/a0/b0/c0\tfile" in dump

    trace_file = str(tmp_path / "trace.jsonl")
    assert main(["synth", "--tree", spec_file, "--model", "hotdir-zipf", "--events", "500", "--out", trace_file]) == EXIT_OK

    out_csv = str(tmp_path / "m.csv")
    assert main(["replay", "--tree", spec_file, "--trace", trace_file, "--strategy", "stage",
                 "--manual-tick", "--tick-every", "100", "--out", out_csv]) == EXIT_OK
    text = open(out_csv).read()
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
    assert open(c1, "rb").read() == open(c2, "rb").read()


def test_compare_emits_all_strategies(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "3,3", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "400", "--out", trace_file])
    out_csv = str(tmp_path / "cmp.csv")
    assert main(["compare", "--tree", f"{prefix}.spec.json", "--trace", trace_file,
                 "--manual-tick", "--tick-every", "100", "--out", out_csv]) == EXIT_OK
    header = open(out_csv).readline().strip().split(",")
    assert header[:4] == ["metric", "original", "fullpath", "stage"]
    assert "fullpath_vs_original" in header and "stage_vs_original" in header


def test_bench_depth_grid_output(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert main(["bench-depth", "--reps", "3", "--out", out]) == EXIT_OK
    lines = open(out).read().strip().splitlines()
    assert lines[0].startswith("stage_two,pool_size,walked_components")
    assert len(lines) == 1 + 9 * 5  # 9 stage-two lengths x 5 pool sizes


def test_bad_config_exits_2(tmp_path):
    prefix = str(tmp_path / "t")
    main(["gen-tree", "--levels", "2", "--out", prefix])
    trace_file = str(tmp_path / "trace.jsonl")
    main(["synth", "--tree", f"{prefix}.spec.json", "--events", "10", "--out", trace_file])
    assert main(["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--pool-size", "-1"]) == EXIT_CONFIG
    assert main(["replay", "--tree", f"{prefix}.spec.json", "--trace", trace_file, "--period-ms", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-tree", "--levels", "2,x"],
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
