"""The benchmark's tracer still finds, and still sees called, every entry point
it wraps: a hot-path change that renames one, or skips it on some lookups,
would make a traced benchmark run (`bench/run.py --trace 1`) crash or
misreport."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from stagewalk import STRATEGIES, TreeSpec, gen_tree, make_resolver
from conftest import mkpath

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

HOT = ("/a0/b1/c2/d0", "/a1/b0/c0/d0", "/a2/b2/c1/d0")


def traced_replay(strategy: str) -> tuple[Counter, int]:
    """Lookups, one tick, more lookups, one rename, more lookups; returns the
    span count per name and the number of lookups made."""
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1))
    resolver = make_resolver(strategy, tree)
    tracer = spans.Tracer()
    with tracer.installed():
        for text in HOT * 5:  # hot enough to become pivots at the tick
            resolver.stat(mkpath(text))
        resolver.tick()
        for text in HOT:
            resolver.stat(mkpath(text))
        tree.rename_node(mkpath("/a0/b1"), mkpath("/a0/r0"))
        for text in ("/a0/r0/c2/d0",) + HOT[1:]:
            resolver.stat(mkpath(text))
    spans_by_name = Counter(tracer.names[i] for i in tracer.name)
    for idx, note in tracer.notes.items():
        if tracer.names[tracer.name[idx]] == "pivots.find_best_pivot":
            # one scan's own counts: a third argument that accumulates across
            # scans would soon note more pivots visited than the pool holds
            pool_size, _depth, visited, _chars = note
            assert visited <= pool_size, (idx, note)
    return spans_by_name, 7 * len(HOT)


def test_every_entry_point_is_where_the_tracer_looks():
    for owner, attr, _span, _note in spans.ENTRY_POINTS:
        assert attr in vars(owner), f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_replay_records_each_layer(strategy):
    counts, lookups = traced_replay(strategy)
    assert counts["fullpath.fp_lookup" if strategy == "fullpath" else "resolver.lookup"] == lookups
    assert counts["tree.rename_node"] == 1
    if strategy == "stage":
        # epoch.reader_token_us divides by the reader_enter spans
        for name in ("epoch.reader_enter", "epoch.reader_exit", "pivots.find_best_pivot", "heat.observe_target"):
            assert counts[name] == lookups, name
        assert counts["epoch.periodic_update"] == 1
        assert counts["epoch.invalidate_for_metadata"] == 1
    # the originals are back once the block ends
    for owner, attr, _span, _note in spans.ENTRY_POINTS:
        assert not getattr(vars(owner)[attr], "__name__", "").startswith("traced")
