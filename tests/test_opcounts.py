"""Exact bytecode and call counts of one lookup per kind, pinned.

A lookup's opcodes are counted with `sys.settrace` and `frame.f_trace_opcodes`,
and its calls as the frames the tracer sees start (the lookup's own
included). Each case makes one warm-up call on the same state first, and the
counted call repeats it: CPython executes the same bytecodes for the same
state, so the counts are exact, whatever the machine's load or the hash seed.

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
        "stage-hit": (129, 2),
        "stage-miss-empty-pool": (330, 7),
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


def warmed(strategy: str):
    """A resolver of `strategy` after each hot file was looked up three
    times and one tick: stage's pool then holds the four hot files."""
    resolver = make_resolver(strategy, gen_tree(_SPEC))
    for path in _HOT:
        for _ in range(3):
            resolver.lookup(path)
    resolver.tick()
    return resolver


@pytest.mark.parametrize("case", ["original", "fullpath-hit", "stage-hit", "stage-miss-empty-pool"])
def test_one_lookup_executes_its_pinned_bytecodes(case):
    path = _HOT[0]
    if case == "stage-miss-empty-pool":
        resolver = StageLookupEngine(gen_tree(_SPEC))
    else:
        resolver = warmed(case.split("-")[0])
    resolver.lookup(path)  # the warm-up call
    counts = count_ops(resolver.lookup, path)
    if case == "stage-hit":
        assert resolver.stage_lookup(path).walked_components == 0  # a whole-path hit
    if case == "stage-miss-empty-pool":
        assert resolver.manager.working_pool.size == 0
    assert counts == _PINS[sys.version_info[:2]][case]
