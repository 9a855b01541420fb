"""Each demo script runs to completion in its own interpreter."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stagewalk

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(script: Path) -> subprocess.CompletedProcess:
    src = str(Path(stagewalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    if script.name == "metadata_cost.py":  # goes through pivot invalidation
        invalidated = int(re.search(r"stage invalidated (\d+) pivots", proc.stdout).group(1))
        assert 1 <= invalidated <= 16
