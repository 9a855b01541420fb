"""Exact bytecode and call counts of one lookup, stat or tick per kind, pinned.

A call's opcodes are counted with `sys.settrace` and `frame.f_trace_opcodes`,
and its calls as the frames the tracer sees start (its own included). Each
case makes one warm-up call on the same state first, and the counted call
repeats it: CPython executes the same bytecodes for the same state, so the
counts are exact, whatever the machine's load or the hash seed. A tick or
a rename's hooks change the state they run on, so their warm-up runs on a
twin in that state. README's table lists the pins.

A bytecode is not a unit of time. Opcodes differ in cost, and dict work on a
long key hides inside a single one, so these pins gate changes to one code
path; they do not compare strategies. Wall time stays the judge of every
speed claim. A change that moves a pin states the old and the new counts.

The pins are CPython's bytecode for one minor version; other versions skip.
"""

from __future__ import annotations

import sys
from operator import methodcaller

import pytest

from stagewalk import StageLookupEngine, TreeSpec, gen_tree, make_resolver
from conftest import mkpath

# (opcodes, calls) per case, by Python minor version
_PINS = {
    (3, 11): {
        "original": (170, 3),
        "fullpath-hit": (52, 1),
        # a whole-path hit was 33 opcodes more (99 / 1, stat 136 / 2, open 102 / 2)
        # while it counted its lookup, chars and histogram bump into Metrics itself,
        # and 2 more (66 / 1, stat 103 / 2, open 69 / 2) while it noted its pool,
        # not its entry, for `_count_hits`
        "stage-hit": (64, 1),
        # the other lookups were 3 opcodes more (297 / 6, 1,212 / 16, 1,904 / 24,
        # 675 / 12) while the whole-path hit shared their prologue and epilogue,
        # and the partial hits 5 more again, which re-read their depth off the pair
        "stage-miss-empty-pool": (294, 6),
        "original-stat": (207, 4),
        "fullpath-stat": (89, 2),
        "stage-stat": (101, 2),
        "original-open": (173, 4),
        "fullpath-open": (55, 2),
        "stage-open": (67, 2),
        "stage-partial-depth4-pool8": (1204, 16),
        "stage-partial-depth4-pool16": (1896, 24),
        "stage-miss-populated-pool": (672, 12),
    },
}

# (opcodes, calls) per case that changes its engine's state, by Python minor version
_TWIN_PINS = {
    (3, 11): {
        "stage-rename-hook-covers-none": (116, 5),
        # 36 opcodes fewer (1,446 / 23) while a path-map entry was a tuple, not
        # an object whose five slots the repaired pool's build stores one by one
        "stage-rename-hook-covers-one": (1482, 23),
        # each tick was 11 opcodes more and one call fewer (1,700 / 43, 4,749 / 95,
        # 4,693 / 95) while the manager ranked the heat and advanced the set itself,
        # and one call fewer again (1,689 / 44, 4,738 / 96, 4,682 / 96) while
        # each whole-path hit counted itself into Metrics, not `_count_hits`;
        # then two calls more (1,904 / 45, 4,798 / 97, 4,742 / 97) while the
        # manager called back into the engine for the candidates in a frame of
        # its own, and `_count_hits` walked each noted pool's whole path map
        "stage-tick-keeps-pool": (1863, 43),
        "stage-tick-builds-pool": (4778, 95),
        "stage-tick-log-1000-of-4": (4722, 95),
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
    """(resolver, the call to count, its argument) for one case. An open is
    counted through `methodcaller`, which runs no Python frame, so its
    count includes the `open` property's."""
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
    if case.endswith("-open"):
        return resolver, methodcaller("open", path), resolver
    if case == "stage-hit":
        assert resolver.stage_lookup(path).walked_components == 0  # a whole-path hit
    return resolver, resolver.lookup, path


@pytest.mark.parametrize("case", list(_PINS[(3, 11)]))
def test_one_lookup_executes_its_pinned_bytecodes(case):
    _resolver, fn, arg = _case(case)
    fn(arg)  # the warm-up call
    assert count_ops(fn, arg) == _PINS[sys.version_info[:2]][case]


_OTHER = [mkpath(f"/a{i}/b{i}/c{i}/d{i}/e{(i + 1) % 4}/f0") for i in range(4)]


def _twin_case(case: str):
    """(the call to count, its arguments, a check of what it did) for one
    case, on an engine of its own. The rename hooks fire on the warmed pool
    of `_HOT`, for a directory above no pivot or above `_HOT[0]` alone. The
    kept and built ticks follow 3 lookups of each of `_HOT` or of `_OTHER`;
    the log tick follows 1,000 lookups of `_HOT` on a fresh engine, whose
    drain counts the log in C and applies one heat call per target."""
    if case.startswith("stage-rename-hook"):
        resolver = warmed("stage")
        path = mkpath("/a0/b1" if case.endswith("covers-none") else "/a0/b0")
        covered = 0 if case.endswith("covers-none") else 1
        tree = resolver.tree
        dentry = tree._resolve_admin(path)
        return tree._fire_hooks, (path, dentry), lambda: resolver.metrics.entries_touched == covered
    if case == "stage-tick-log-1000-of-4":
        resolver = StageLookupEngine(gen_tree(_SPEC))
        hot = _HOT * 250
    else:
        resolver = warmed("stage")
        hot = (_HOT if case == "stage-tick-keeps-pool" else _OTHER) * 3
    for path in hot:
        resolver.lookup(path)
    mgr = resolver.manager
    before = mgr.working_pool
    kept = case == "stage-tick-keeps-pool"
    return resolver.tick, (), lambda: (mgr.working_pool is before) == kept and mgr.working_pool.size == 4


def _count_on_twins(case: str) -> tuple[int, int]:
    """The case's counts on its second engine; the first call, on a twin in
    the same state, is the warm-up."""
    counts = []
    for _twin in range(2):
        fn, args, did = _twin_case(case)
        counts.append(count_ops(fn, *args))
        assert did()
    return counts[1]


@pytest.mark.parametrize("case", [c for c in _TWIN_PINS[(3, 11)] if c != "stage-tick-log-1000-of-4"])
def test_a_hook_or_tick_executes_its_pinned_bytecodes(case):
    assert _count_on_twins(case) == _TWIN_PINS[sys.version_info[:2]][case]


def test_a_tick_applying_a_log_of_1000_lookups_of_4_targets_executes_its_pinned_bytecodes():
    case = "stage-tick-log-1000-of-4"
    assert _count_on_twins(case) == _TWIN_PINS[sys.version_info[:2]][case]
