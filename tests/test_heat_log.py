"""The heat log: a lookup logs its target, and the period applies the log.

An engine that calls `apply_heat()` after every lookup applies each target's
heat right after its lookup, in lookup order: the eager rule. Its twin, on an
identical tree, runs as shipped: the log drains in order when it reaches
`HEAT_LOG_BOUND`, and at the period boundary, where it may apply one count
per distinct target instead. The two must rank the same candidates with the
same heat at every period, build the same pools and keep the same counters.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from itertools import islice

import pytest

from stagewalk import CandidateSet, PathBuf, StageLookupEngine, TreeSpec, gen_tree
from stagewalk import engine as engine_module
from stagewalk import epoch as epoch_module
from stagewalk.errors import EngineError
from conftest import mkpath, path_of, pool_shape

_SPEC = TreeSpec(levels=[4, 4, 4], seed=3)  # 148 dentries besides the root: over capacity 64


def _drain_branch(engine: StageLookupEngine, period_end: bool) -> str:
    """Which of `apply_heat`'s branches a drain about to run will take."""
    cands = engine.candidates
    if not period_end:
        return "in order: the log reached its bound"
    if len(cands):
        return "in order: the set already has members"
    counts = Counter(engine._heat_log)
    if len(counts) <= cands.capacity:
        return "counted: every target fits the set"
    if max(islice(counts.values(), cands.capacity, None)) <= cands.threshold + 1:
        return "counted: the targets past capacity stay cold"
    return "in order: a hot target arrives after the set fills"


def _period_targets(rng: random.Random, nodes: list, capacity: int, threshold: int, bound: int, modes: tuple) -> list:
    """One period's lookup targets, drawn so that every drain branch is met:
    - "few" looks up at most `capacity` distinct targets, so the counted
      drain finds every target fits the set;
    - "cold tail" fills the set and then looks up more targets, each at
      most threshold + 1 times, so the counted drain still applies;
    - "hot late" fills the set, looks up more targets once each, and then
      looks a target first seen after the set filled up threshold + 2 or
      more times, which in eager order offers it to `maybe_admit`, so the
      drain replays in order;
    - "long" makes more lookups than the log bound, so a lookup drains the
      log in order and the set has members when the period drains the rest;
    - "idle" looks nothing up."""
    mode = rng.choice(modes)
    if mode == "idle":
        return []
    if mode == "long":
        pool = rng.sample(nodes, rng.randint(1, 40))
        return [rng.choice(pool) for _ in range(bound + rng.randint(1, 2 * bound))]
    picked = rng.sample(nodes, min(len(nodes), capacity + rng.randint(1, 12)))
    head, tail = picked[:capacity], picked[capacity:]
    if mode == "few":
        head = head[: rng.randint(1, max(1, capacity))] if capacity else []
        tail = []
    firsts = head + tail  # each target's first lookup, in first-seen order
    if mode == "hot late":
        late = tail[0]
        repeats = [d for d in head for _ in range(rng.randint(0, 3))] + [late] * (threshold + 1 + rng.randint(1, 3))
        return [*head, *[d for d in tail if d is not late], *_shuffled(rng, repeats)]
    counts = [rng.randint(0, 5) for _ in head] + [rng.randint(0, threshold) for _ in tail]
    repeats = [d for d, k in zip(firsts, counts) for _ in range(k)]
    return firsts + _shuffled(rng, repeats)


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


_MODES = ("few", "cold tail", "hot late", "long", "idle", "few", "cold tail")


def _replay(rng, capacity: int, threshold: int, threadsafe: bool, periods: int, monkeypatch, modes=_MODES) -> Counter:
    """Replay random periods on an eager engine and a shipped one; returns
    the drain branches the shipped engine took."""
    ranked = ([], [])  # per engine, the (id, heat) list each period's build_pool ranks
    building = [None]
    real_build = epoch_module.build_pool

    def recording_build(candidates, bound, current):
        building[0].append([(d.id, heat) for d, heat in candidates.items()])
        return real_build(candidates, bound, current)

    branches = Counter()
    real_apply = StageLookupEngine.apply_heat

    def spying_apply(self, period_end=False):
        if self is shipped:
            branches[_drain_branch(self, period_end)] += 1
        return real_apply(self, period_end)

    monkeypatch.setattr(epoch_module, "build_pool", recording_build)
    monkeypatch.setattr(StageLookupEngine, "apply_heat", spying_apply)  # `_end_period` looks it up per call
    trees = [gen_tree(_SPEC, threadsafe=threadsafe) for _ in range(2)]
    pool_size = rng.choice((4, 16))
    eager, shipped = (StageLookupEngine(t, pool_size, threshold, capacity) for t in trees)

    bound = engine_module.HEAT_LOG_BOUND
    n_new = 0
    for _period in range(periods):
        nodes = [d.id for d in trees[0].nodes[2:]]  # neither the unused slot 0 nor the root
        for node_id in _period_targets(rng, nodes, capacity, threshold, bound, modes):
            if rng.random() < 0.01:  # a rename: a hook that may retire pivots mid-period
                n_new += 1
                victim = rng.choice(nodes)
                for tree in trees:
                    old = path_of(tree.nodes[victim])
                    tree.rename_node(old, PathBuf(old.components[:-1] + (f"r{n_new}",)))
            got = []
            for engine in (eager, shipped):
                path = path_of(engine.tree.nodes[node_id])
                try:
                    got.append(engine.lookup(path))
                except EngineError as exc:
                    got.append(type(exc).__name__)
            eager.apply_heat()
            assert got[0] == got[1]
        ticks = rng.choice((1, 1, 1, 2, 3))
        for engine, builds in zip((eager, shipped), ranked):
            building[0] = builds
            engine.tick(ticks)
        assert ranked[0] == ranked[1]
        assert pool_shape(eager.manager.working_pool) == pool_shape(shipped.manager.working_pool)
        assert eager.metrics.counter_rows() == shipped.metrics.counter_rows()
    return branches


@pytest.mark.parametrize("threadsafe", [False, True])
def test_the_log_drains_to_the_eager_rule_randomized(monkeypatch, threadsafe):
    """Capacities 0 through 8 and 64, with a log bound of 24 so that "long"
    periods drain from the lookup, then periods longer than the shipped bound:
    each drain branch `_drain_branch` names is taken, and every period ranks,
    builds and counts as the eager engine does."""
    rng = random.Random(4801 + threadsafe)
    seen = Counter()
    with monkeypatch.context() as m:
        m.setattr(engine_module, "HEAT_LOG_BOUND", 24)
        for capacity in (*range(9), 64):
            seen += _replay(rng, capacity, rng.choice((0, 1, 4)), threadsafe, 30, m)
    with monkeypatch.context() as m:
        at_bound = _replay(rng, 64, 4, threadsafe, 2, m, modes=("long",))
    assert at_bound["in order: the log reached its bound"] >= 2
    seen += at_bound
    assert set(seen) == {
        "in order: the log reached its bound",
        "in order: the set already has members",
        "counted: every target fits the set",
        "counted: the targets past capacity stay cold",
        "in order: a hot target arrives after the set fills",
    }, seen


@pytest.mark.parametrize("threadsafe", [False, True])
def test_a_lookup_leaves_heat_and_the_candidate_set_untouched_until_the_period(threadsafe, monkeypatch):
    """Whole-path hits, partial hits and misses take no heat lock and change
    no heat, member or cursor of the candidate set; the period applies them
    all before it ranks, so its heat when it advances is their counts."""
    tree = gen_tree(_SPEC, threadsafe=threadsafe)
    engine = StageLookupEngine(tree, heat_capacity=8)
    files = [d for d in tree.nodes[1:] if d.children is None]
    hot_dir = tree.root.children["a0"].children["b0"]  # /a0/b0: a pivot that later lookups descend from
    for d in (hot_dir, files[-1], hot_dir, files[-1]):
        engine.lookup(path_of(d))
    engine.tick()
    assert [p.path for p in engine.manager.working_pool.pivots] == ["/a0/b0", path_of(files[-1]).text]
    cset = engine.candidates

    def state():
        return dict(cset.heat), cset.members(), cset.least_popular

    before = state()
    heat_lock, engine.heat_lock = engine.heat_lock, None  # a lookup that took it would raise
    targets = [files[-1], files[0], files[0], files[40], files[-1]]  # hit, partial hits, a miss, a hit
    for d in targets:
        engine.lookup(path_of(d))
    engine.heat_lock = heat_lock
    assert engine.metrics.skipped_prefix_histogram == {2: 2, 4: 2}
    assert state() == before
    ended = []
    real_advance = CandidateSet.advance

    def recording_advance(self):
        ended.append(dict(self.heat))
        real_advance(self)

    monkeypatch.setattr(CandidateSet, "advance", recording_advance)
    engine.tick()
    assert ended == [dict(Counter(targets))]
    assert [p.path for p in engine.manager.working_pool.pivots] == [path_of(d).text for d in (files[0], files[-1])]


def test_threads_appending_while_the_log_drains_lose_no_lookup(monkeypatch):
    """Four reader threads on a threadsafe tree, a short switch interval and
    a log bound of 7, so that drains under the heat lock race appends from
    the other threads: after a final drain every lookup has added exactly
    one to its target's heat (no tick runs, so all heat is one period's)."""
    monkeypatch.setattr(engine_module, "HEAT_LOG_BOUND", 7)
    tree = gen_tree(_SPEC, threadsafe=True)
    engine = StageLookupEngine(tree)
    files = [d for d in tree.nodes[1:] if d.children is None]
    per_thread = 2000

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(per_thread):
            engine.lookup(path_of(rng.choice(files)))

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    with engine.heat_lock:
        engine.apply_heat()
    assert sum(engine.candidates.heat.values()) == 4 * per_thread


@pytest.mark.parametrize("lookups", [engine_module.HEAT_LOG_BOUND - 1, engine_module.HEAT_LOG_BOUND])
def test_heat_applied_while_a_period_builds_counts_in_the_next(monkeypatch, lookups):
    """On a threadsafe tree, lookups made while a period builds belong to the
    next period, whether they stay in the log or the last of them drains it
    at `HEAT_LOG_BOUND`: the period read its heat and advanced together
    before its build, so no advance after the build throws the drained heat
    away, and the next tick makes the target a pivot."""
    tree = gen_tree(TreeSpec(levels=[2, 2], seed=1), threadsafe=True)
    engine = StageLookupEngine(tree)
    path = mkpath("/a0/b0/c0")
    target = tree._resolve_admin(path)
    real_build = epoch_module.build_pool
    pending = [lookups]

    def build_after_lookups(candidates, bound, current):
        for _ in range(pending.pop() if pending else 0):
            engine.lookup(path)
        return real_build(candidates, bound, current)

    monkeypatch.setattr(epoch_module, "build_pool", build_after_lookups)
    engine.tick()
    assert engine._heat_log.count(target) + engine.candidates.heat.get(target, 0) == lookups
    engine.tick()
    assert [p.path for p in engine.manager.working_pool.pivots] == ["/a0/b0/c0"]
