from __future__ import annotations

import collections
import random

import pytest

from stagewalk import (
    Admission,
    CandidateSet,
    ConfigError,
    ContractViolation,
    Dentry,
    PathBuf,
    StageLookupEngine,
    make_resolver,
    observe_target,
)
from stagewalk.heat import POPULAR_HEAT
from stagewalk.tree import DIR
from conftest import ReferenceCandidates, make_tree, mkpath


def d(node_id: int) -> Dentry:
    return Dentry(node_id, None, f"n{node_id}", DIR, 0o755)


def heated(cset: CandidateSet, node_id: int, heat: int) -> Dentry:
    """A node that `cset` counts `heat` lookups of in this period."""
    node = d(node_id)
    cset.heat[node] = heat
    return node


# -- the heat rule: a set of capacity 0 admits nothing, so only the rule acts ---------


def test_three_accesses_one_period():
    cset = CandidateSet(0)
    node = d(1)
    for _ in range(3):
        observe_target(node, cset)
    assert cset.heat == {node: 3}


def test_reset_on_new_version():
    cset = CandidateSet(0)
    node = d(1)
    for _ in range(5):
        observe_target(node, cset)
    assert cset.heat[node] == 5
    cset.advance()
    assert cset.heat == {}
    observe_target(node, cset)
    assert cset.heat == {node: 1}


def test_heat_monotone_within_version():
    cset = CandidateSet(0)
    node = d(1)
    rng = random.Random(5)
    last = 0
    for _ in range(200):
        if rng.random() < 0.1:
            cset.advance()
            last = 0
        heat = observe_target(node, cset)
        assert heat == cset.heat[node]
        assert heat >= last or heat == 1
        last = heat


# -- maybe_admit -------------------------------------------------------------------


def full_set(capacity: int = 4, threshold: int = 4) -> tuple[CandidateSet, list[Dentry]]:
    cset = CandidateSet(capacity, threshold)
    members = [heated(cset, i + 1, 10 + i) for i in range(capacity)]
    for m in members:
        cset.maybe_admit(m)
    return cset, members


def test_replaced_above_threshold():
    cset, members = full_set()
    cset.least_popular = members[0]  # heat 10, threshold 4
    newcomer = heated(cset, 99, 15)
    result, evicted = cset.maybe_admit(newcomer)
    assert result is Admission.REPLACED
    assert evicted is members[0]
    assert cset.least_popular is newcomer  # inherits the pointer
    assert newcomer in cset and members[0] not in cset


def test_rejected_at_boundary():
    cset, members = full_set()
    cset.least_popular = members[0]
    newcomer = heated(cset, 99, 14)  # 14 is not strictly greater than 10 + 4
    result, evicted = cset.maybe_admit(newcomer)
    assert result is Admission.REJECTED and evicted is None
    assert newcomer not in cset


def test_capacity_zero_always_rejects():
    cset = CandidateSet(0, 4)
    assert cset.maybe_admit(heated(cset, 1, 10**9))[0] is Admission.REJECTED


@pytest.mark.parametrize("capacity, threshold", [(-1, 4), (64, -1), (-5, -5)])
def test_negative_capacity_or_threshold_rejected(capacity, threshold):
    """A negative capacity or threshold is refused when the set is built,
    directly or through make_resolver, not by an assert on the first lookup."""
    with pytest.raises(ConfigError, match="heat capacity/threshold must be >= 0"):
        CandidateSet(capacity, threshold)
    tree = make_tree("/a/b")
    with pytest.raises(ConfigError, match="heat capacity/threshold must be >= 0"):
        make_resolver("stage", tree, heat_capacity=capacity, heat_threshold=threshold)
    assert CandidateSet(0, 0).capacity == 0  # zero is a valid bound


def test_below_capacity_unconditional():
    cset = CandidateSet(2, 4)
    cold = heated(cset, 1, 0)
    assert cset.maybe_admit(cold)[0] is Admission.ADMITTED
    assert cset.least_popular is cold  # first admission establishes the cursor


def test_admission_below_capacity_applies_the_cursor_rule():
    cset = CandidateSet(4, 4)
    warm, hotter, colder, tie = (heated(cset, i + 1, heat) for i, heat in enumerate((5, 9, 2, 2)))
    for node in (warm, hotter):
        cset.maybe_admit(node)
    assert cset.least_popular is warm  # a hotter newcomer leaves the cursor
    cset.maybe_admit(colder)
    assert cset.least_popular is colder  # a colder one takes it
    cset.maybe_admit(tie)
    assert cset.least_popular is colder  # a tie leaves it
    cset.validate()


def test_admitting_member_is_misuse():
    cset = CandidateSet(4, 4)
    node = d(1)
    cset.maybe_admit(node)
    with pytest.raises(ContractViolation):
        cset.maybe_admit(node)


# -- observe_target's cursor rule ----------------------------------------------------


def test_cursor_rule_ignores_non_members():
    cset, members = full_set()
    cset.least_popular = members[2]
    outsider = heated(cset, 99, 0)  # colder than every member, but not one of them
    observe_target(outsider, cset)
    assert outsider not in cset
    assert cset.least_popular is members[2]


def test_cursor_moves_to_smaller():
    cset, members = full_set()
    cset.least_popular = members[2]  # heat 12
    cset.heat[members[0]] = 3
    observe_target(members[0], cset)  # heat 4
    assert cset.least_popular is members[0]


def test_cursor_unchanged_when_larger():
    cset, members = full_set()
    cset.least_popular = members[0]  # heat 10
    cset.heat[members[3]] = 10
    observe_target(members[3], cset)  # heat 11
    assert cset.least_popular is members[0]


def test_cursor_self_comparison_unchanged():
    cset, members = full_set()
    cset.least_popular = members[1]
    observe_target(members[1], cset)
    assert cset.least_popular is members[1]


def test_tie_keeps_cursor():
    cset, members = full_set()
    cset.least_popular = members[0]  # heat 10
    cset.heat[members[1]] = 9
    observe_target(members[1], cset)  # heat 10
    assert cset.least_popular is members[0]


def test_empty_cursor_adopts_the_observed_member():
    cset, members = full_set()
    cset.least_popular = None
    observe_target(members[3], cset)
    assert cset.least_popular is members[3]


# -- advance -------------------------------------------------------------------------


def test_advance_bumps_the_version_and_drops_every_member():
    """`advance` starts the next period, the heat's version: it clears the
    heat and drops every member and the cursor. `end_period` first returns
    the members at POPULAR_HEAT or more with their heat, in admission order,
    then advances."""
    for end in ("advance", "end_period"):
        cset, members = full_set()
        cset.heat[members[0]] = 20  # the hottest first: the order is admission's, not heat's
        cset.heat[members[2]] = POPULAR_HEAT - 1  # a member, but not popular
        popular = getattr(cset, end)()
        if end == "end_period":
            assert list(popular.items()) == [(members[0], 20), (members[1], 11), (members[3], 13)]
        assert cset.heat == {}
        assert len(cset) == 0 and cset.least_popular is None and cset.members() == []
        for m in members:
            assert m not in cset
        cset.validate()


def test_swap_clears_members_refreshed_in_the_ending_period():
    """Through the engine: members looked up again just before the tick, and
    members not looked up since their admission, all leave at the swap, and
    the next period admits afresh."""
    files = tuple(f"/d/f{i}" for i in range(8))
    engine = StageLookupEngine(make_tree(files=files), heat_capacity=8)
    for text in files:
        engine.lookup(mkpath(text))
    for text in files[2::3]:
        engine.lookup(mkpath(text))  # refreshed late in the period
    engine.apply_heat()  # lookups log their targets; the drain admits them
    members = engine.candidates.members()
    assert len(members) == 8
    engine.manager.periodic_update()
    assert len(engine.candidates) == 0 and engine.candidates.least_popular is None
    assert all(m not in engine.candidates for m in members)
    engine.candidates.validate()
    engine.lookup(mkpath(files[5]))
    engine.apply_heat()
    assert [m.name for m in engine.candidates.members()] == ["f5"]
    engine.candidates.validate()


def test_advance_empty_set_bumps_the_version_only():
    """On a set with no member, `advance` has only the heat to clear."""
    cset = CandidateSet(4, 4)
    cold = heated(cset, 1, 3)  # counted, never admitted
    cset.advance()
    assert cset.heat == {} and cold not in cset
    assert len(cset) == 0 and cset.least_popular is None
    cset.validate()


def test_advance_resets_cursor_and_next_admission_takes_it():
    cset = CandidateSet(4, 4)
    cold, warm = heated(cset, 1, 3), heated(cset, 2, 9)
    cset.maybe_admit(cold)
    cset.maybe_admit(warm)
    assert cset.least_popular is cold
    cset.advance()
    assert cset.least_popular is None
    observe_target(warm, cset)  # re-admitted with heat 1
    assert cset.members() == [warm] and cset.least_popular is warm
    cset.validate()


# -- properties -------------------------------------------------------------------------


def test_churn_bound_property():
    """A member is displaced only by a newcomer beating its heat by more than the threshold."""
    rng = random.Random(7)
    cset = CandidateSet(8, threshold=4)
    nodes = [d(i + 1) for i in range(40)]
    replaced = 0
    for _ in range(5000):
        node = rng.choice(nodes)
        full, member, before = len(cset) == cset.capacity, node in cset, cset.least_popular
        observe_target(node, cset)
        if full and not member and node in cset:
            replaced += 1
            assert before not in cset  # the cursor's referent was the victim
            assert cset.heat[node] > cset.heat[before] + cset.threshold
        cset.validate()
    assert replaced > 0


def test_cursor_rule_event_sourced_replay():
    """Replay logged member observations against the literal cursor rule."""
    rng = random.Random(11)
    cset = CandidateSet(8, threshold=2)
    nodes = [d(i + 1) for i in range(16)]
    log: list[tuple[int, int, int | None, int | None]] = []
    for _ in range(3000):
        node = rng.choice(nodes)
        member = node in cset
        before = cset.least_popular
        before_state = (before.id, cset.heat[before]) if before else None
        heat = observe_target(node, cset)
        if member:
            after = cset.least_popular
            log.append((node.id, heat, before_state, after.id if after else None))
    for member_id, member_heat, before_state, after_id in log:
        if before_state is None:
            assert after_id == member_id  # empty cursor adopts the member
        else:
            before_id, before_heat = before_state
            if member_id != before_id and member_heat < before_heat:
                assert after_id == member_id  # loser takes the cursor
            else:
                assert after_id == before_id  # ties and winners leave it alone


def test_observe_target_pipeline():
    cset = CandidateSet(2, 4)
    a, b, c = d(1), d(2), d(3)
    assert observe_target(a, cset) == 1
    assert observe_target(b, cset) == 1
    for _ in range(10):
        observe_target(c, cset)  # c heats to 10, enough to displace
    assert c in cset
    cset.validate()


# -- engines on one tree -------------------------------------------------------------------


def test_engines_on_one_tree_keep_separate_heat():
    """Heat is each engine's candidate set's, not the dentries', so two
    stage engines on one tree count their own lookups: A's one lookup of a
    target and B's three give heat 1 and 3, and A's tick leaves B's alone.
    Over a trace both replay on the shared tree, interleaved and on
    different tick schedules, each engine builds the pools and counts the
    counters it builds and counts on a tree of its own. Each engine drains
    its heat log after every lookup, as a heat call per lookup would, so
    heat kept on the tree would reach the other engine mid-period."""
    from stagewalk import TreeSpec, gen_tree, synth_trace

    spec = TreeSpec(levels=[2, 2], seed=1)
    tree = gen_tree(spec)
    a, b = StageLookupEngine(tree), StageLookupEngine(tree)
    path = mkpath("/a0/b0/c0")
    target = tree._resolve_admin(path)
    a.lookup(path)
    for _ in range(3):
        b.lookup(path)
    a.apply_heat()
    b.apply_heat()
    assert a.candidates.heat == {target: 1} and b.candidates.heat == {target: 3}
    a.tick()
    assert a.candidates.heat == {} and b.candidates.heat == {target: 3}

    events = synth_trace(gen_tree(spec), "hotdir-zipf", n_events=400, hot_dirs=3, seed=2)
    shared = {7: StageLookupEngine(tree), 13: StageLookupEngine(tree)}
    alone = {every: StageLookupEngine(gen_tree(spec)) for every in shared}
    pools: dict = {}
    for i, ev in enumerate(events):
        query = PathBuf.parse(ev.path)
        for every in shared:
            for engine in (shared[every], alone[every]):
                if i and i % every == 0:
                    engine.tick()
                    pools.setdefault(engine, []).append(engine.manager.working_pool.dump())
                engine.lookup(query)
                engine.apply_heat()
    for every in shared:
        assert pools[shared[every]] == pools[alone[every]]
        assert shared[every].metrics.counter_rows() == alone[every].metrics.counter_rows()
    assert pools[shared[7]] != pools[shared[13]]  # the schedules give different heat
    assert any(pool.strip() for pool in pools[shared[7]])  # pivots were built


def test_candidate_set_matches_the_ring_reference(monkeypatch):
    """Random observations and period advances against the ring reference
    (conftest.ReferenceCandidates): every step gives the same heat and the
    same admission result and victim, and leaves the same members in the
    same order, the same cursor and the same size. A non-member that a full
    set would reject may skip the maybe_admit call; the reference must then
    reject it too."""
    results: list = []
    real_admit = CandidateSet.maybe_admit

    def recording_admit(self, dentry):
        result = real_admit(self, dentry)
        results.append(result)
        return result

    monkeypatch.setattr(CandidateSet, "maybe_admit", recording_admit)
    rng = random.Random(20)
    seen = collections.Counter()
    for _ in range(300):
        capacity, threshold = rng.randint(0, 8), rng.randint(0, 5)
        cset, ref = CandidateSet(capacity, threshold), ReferenceCandidates(capacity, threshold)
        nodes = {i: d(i) for i in range(1, rng.randint(2, 16) + 1)}
        for _ in range(200):
            if rng.random() < 0.05:
                cset.advance()
                ref.advance()
                seen["advance"] += 1
            else:
                node_id = rng.choice(list(nodes))
                del results[:]
                heat = observe_target(nodes[node_id], cset)
                expected = ref.observe(node_id)
                assert heat == ref.heat[node_id]
                if expected is None:
                    assert results == []
                    seen["member"] += 1
                else:
                    want, want_victim = expected
                    if results:
                        [(result, victim)] = results
                        assert result is want
                        assert victim is (None if want_victim is None else nodes[want_victim])
                        seen[want] += 1
                    else:
                        assert want is Admission.REJECTED and len(cset) == capacity
                        seen["skipped"] += 1
            assert [m.id for m in cset.members()] == ref.ring
            assert cset.least_popular is (None if ref.cursor is None else nodes[ref.cursor])
            assert len(cset) == len(ref.ring)
            # the reference's stale versions are exactly the set's missing keys
            assert {n.id: h for n, h in cset.heat.items()} == {
                i: h for i, h in ref.heat.items() if ref.heat_version[i] == ref.version
            }
            cset.validate()
    # every path through the rules was taken
    paths = ("advance", "member", "skipped", Admission.ADMITTED, Admission.REPLACED, Admission.REJECTED)
    assert all(seen[k] > 100 for k in paths), seen


def test_public_names_resolve():
    import stagewalk

    missing = [name for name in stagewalk.__all__ if not hasattr(stagewalk, name)]
    assert missing == []
