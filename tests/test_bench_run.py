"""One short traced benchmark run per workload: a package change that breaks
`bench/run.py` (a renamed entry point, a traced layer that is never called
and so divides by a zero span count, an outcome that no longer matches
original's) fails here rather than only in a full benchmark run."""

from __future__ import annotations

import gc
import importlib
import json
import math
import re
import signal
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["hot-read", "cold-read", "churn"])
def test_one_traced_run_is_correct_and_reports_every_layer(workload, tmp_path, monkeypatch, capsys):
    """Cold-read's pool stays empty, so its reader and Stage One spans come
    from misses alone: an engine that skipped those calls on a miss would
    leave the per-layer ratios a zero count to divide by."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # undone after the test, with run.py's own insert
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    alarm = signal.getsignal(signal.SIGALRM)

    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0

    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        assert layer["name"] in metrics and not math.isnan(metrics[layer["name"]]["value"]), layer["name"]
    # the invalidation timings are notes, not per-layer metrics: each must
    # have timed the churn's renames and chmods
    for note in ("epoch.invalidate_us", "fullpath.invalidate_us"):
        found = [re.fullmatch(rf"{re.escape(note)} \S+ us \(n=(\d+)\)", line) for line in lines]
        counts = [int(m.group(1)) for m in found if m]
        assert len(counts) == 1 and (counts[0] > 0) == (workload == "churn"), (note, counts)
    # the run leaves the process as it found it
    assert signal.getsignal(signal.SIGALRM) == alarm
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert not tracemalloc.is_tracing()
