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


# heat.observe_target spans of stage's traced replay: the tick's drain makes
# one call per distinct hot target, counted, and the closing drain one call
# per lookup since the tick, in order
STAGE_HEAT_CALLS = len(HOT) + 2 * len(HOT)


def traced_replay(strategy: str, threadsafe: bool = False, tracer=None) -> tuple[Counter, int]:
    """Stats, one tick, opens, one rename, stats and opens, then stage's
    drain of its heat log, recorded by `tracer` (a fresh one by default);
    returns the span count per name and the number of lookups made.

    `open` is `lookup`, read off the resolver on each access, so the opens
    count as lookups only if the wrapper installed on the class reaches them."""
    tree = gen_tree(TreeSpec(levels=[3, 3, 3], seed=1), threadsafe=threadsafe)
    resolver = make_resolver(strategy, tree)
    if tracer is None:
        tracer = spans.Tracer()
    with tracer.installed():
        for text in HOT * 5:  # hot enough to become pivots at the tick
            resolver.stat(mkpath(text))
        resolver.tick()
        for text in HOT:  # whole-path hits for stage on one thread
            resolver.open(mkpath(text))
        tree.rename_node(mkpath("/a0/b1"), mkpath("/a0/r0"))
        resolver.open(mkpath("/a0/r0/c2/d0"))  # a Stage One scan for stage
        for text in HOT[1:]:
            resolver.stat(mkpath(text))
        if strategy == "stage":
            resolver.apply_heat()
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
    # fullpath's hook looks its eviction walk up on each call, so the wrapper
    # the tracer installs on the class records the rename's walk
    assert counts["fullpath.fp_invalidate_subtree"] == (1 if strategy == "fullpath" else 0)
    if strategy == "stage":
        # a whole-path hit on one thread is answered from the path map: the 3
        # lookups after the tick and the 2 unrenamed ones after the rename make
        # no Stage One call; the 15 on the empty pool and the renamed path's do.
        # epoch.reader_token_us divides by the reader_enter spans
        for name in ("epoch.reader_enter", "epoch.reader_exit", "pivots.find_best_pivot"):
            assert counts[name] == 16, name
        assert counts["heat.observe_target"] == STAGE_HEAT_CALLS
        assert counts["epoch.periodic_update"] == 1
        assert counts["epoch.invalidate_for_metadata"] == 1
    # the originals are back once the block ends
    for owner, attr, _span, _note in spans.ENTRY_POINTS:
        assert not getattr(vars(owner)[attr], "__name__", "").startswith("traced")


def test_threadsafe_traced_replay_makes_one_call_of_each_per_lookup():
    counts, lookups = traced_replay("stage", threadsafe=True)
    for name in ("epoch.reader_enter", "epoch.reader_exit", "pivots.find_best_pivot"):
        assert counts[name] == lookups, name
    assert counts["heat.observe_target"] == STAGE_HEAT_CALLS


@pytest.mark.parametrize("threadsafe", [False, True])
def test_no_heat_call_runs_inside_the_managers_period(threadsafe):
    """The engine's tick applies its heat log before it hands the manager
    the period's candidates, so the manager's span, whose self time is
    `epoch.tick_us`, holds the build and the install alone: no
    `heat.observe_target` span has an `epoch.periodic_update` ancestor."""
    tracer = spans.Tracer()
    traced_replay("stage", threadsafe, tracer)
    names = [tracer.names[i] for i in tracer.name]

    def ancestors(idx):
        idx = tracer.parent[idx]
        while idx >= 0:
            yield names[idx]
            idx = tracer.parent[idx]

    heat_calls = [i for i, name in enumerate(names) if name == "heat.observe_target"]
    assert len(heat_calls) == STAGE_HEAT_CALLS and "epoch.periodic_update" in names
    assert [i for i in heat_calls if "epoch.periodic_update" in ancestors(i)] == []
