"""Exact bytecode and call counts of one lookup, stat or tick per kind, pinned.

A call's opcodes are counted with `sys.settrace` and `frame.f_trace_opcodes`,
and its calls as the frames the tracer sees start (its own included). Each
case makes one warm-up call on the same state first, and the counted call
repeats it: CPython executes the same bytecodes for the same state, so the
counts are exact, whatever the machine's load or the hash seed. A tick
changes the state it runs on, so its warm-up runs on a twin in that state.
README's table lists the pins.

A bytecode is not a unit of time. Opcodes differ in cost, and dict work on a
long key hides inside a single one, so these pins gate changes to one code
path; they do not compare strategies. Wall time stays the judge of every
speed claim. A change that moves a pin states the old and the new counts.

The pins are CPython's bytecode for one minor version; other versions skip.
"""

from __future__ import annotations

import sys

import pytest

from stagewalk import StageLookupEngine, TreeSpec, gen_tree, make_resolver
from conftest import mkpath

# (opcodes, calls) per case, by Python minor version
_PINS = {
    (3, 11): {
        "original": (170, 3),
        "fullpath-hit": (52, 1),
        "stage-hit": (99, 1),
        "stage-miss-empty-pool": (297, 6),
        "original-stat": (207, 4),
        "fullpath-stat": (89, 2),
        "stage-stat": (136, 2),
        "stage-partial-depth4-pool8": (1212, 16),
        "stage-partial-depth4-pool16": (1904, 24),
        "stage-miss-populated-pool": (675, 12),
        "stage-tick-log-1000-of-4": (4647, 95),
    },
}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in _PINS, reason="bytecode counts are pinned for CPython 3.11 only"
)

_SPEC = TreeSpec(levels=[4, 4, 4, 4, 4], seed=1)
_HOT = [mkpath(f"/a{i}/b{i}/c{i}/d{i}/e{i}/f0") for i in range(4)]


def count_ops(fn, *args) -> tuple[int, int]:
    """(opcodes, calls) that one `fn(*args)` executes in Python frames."""
    ops = calls = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def on_call(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return ops, calls


def warmed(strategy: str, hot=_HOT):
    """A resolver of `strategy` after each hot path was looked up three
    times and one tick: stage's pool then holds the hot paths."""
    resolver = make_resolver(strategy, gen_tree(_SPEC))
    for path in hot:
        for _ in range(3):
            resolver.lookup(path)
    resolver.tick()
    return resolver


_PARTIAL = mkpath("/a3/b3/c0/d0/e0/f0")


def _depth4_pool(size: int) -> list:
    """`size` directories at depth 4, none above another: the last in the
    pool's order is `_PARTIAL`'s ancestor, so Stage One visits all of them."""
    return [mkpath(f"/a{i % 4}/b{i // 4}/c1/d1") for i in range(size - 1)] + [mkpath("/a3/b3/c0/d0")]


def _case(case: str):
    """(resolver, the call to count, its argument) for one case."""
    path = _HOT[0]
    if case == "stage-miss-empty-pool":
        resolver = StageLookupEngine(gen_tree(_SPEC))
        assert resolver.manager.working_pool.size == 0
    elif case.startswith("stage-partial-depth4-pool"):
        size = int(case.rsplit("pool", 1)[1])
        resolver = warmed("stage", _depth4_pool(size))
        path = _PARTIAL
        assert resolver.stage_lookup(path).skipped_components == 4
        assert resolver.manager.working_pool.pivots[-1].path == "/a3/b3/c0/d0"
        assert resolver.manager.working_pool.size == size
    elif case == "stage-miss-populated-pool":
        resolver = warmed("stage", [mkpath(f"/a0/b{i}/c{i}/d{i}/e{i}/f0") for i in range(4)])
        path = mkpath("/a1/b0/c0/d0/e0/f0")
        assert resolver.stage_lookup(path).pivot_used is None
    else:
        resolver = warmed(case.split("-")[0])
    if case.endswith("-stat"):
        return resolver, resolver.stat, path
    if case == "stage-hit":
        assert resolver.stage_lookup(path).walked_components == 0  # a whole-path hit
    return resolver, resolver.lookup, path


@pytest.mark.parametrize("case", [c for c in _PINS[(3, 11)] if c != "stage-tick-log-1000-of-4"])
def test_one_lookup_executes_its_pinned_bytecodes(case):
    _resolver, fn, path = _case(case)
    fn(path)  # the warm-up call
    assert count_ops(fn, path) == _PINS[sys.version_info[:2]][case]


def test_a_tick_applying_a_log_of_1000_lookups_of_4_targets_executes_its_pinned_bytecodes():
    """The period's drain counts the log in C and applies one heat call per
    target. A tick changes its engine's state, so the warm-up tick runs on a
    twin engine in the same state."""
    counts = []
    for _twin in range(2):
        resolver = StageLookupEngine(gen_tree(_SPEC))
        for _ in range(250):
            for path in _HOT:
                resolver.lookup(path)
        counts.append(count_ops(resolver.tick))
        assert resolver.manager.working_pool.size == 4
    assert counts[1] == _PINS[sys.version_info[:2]]["stage-tick-log-1000-of-4"]
