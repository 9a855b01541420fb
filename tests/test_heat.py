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
    StageLookupEngine,
    make_resolver,
    observe_target,
)
from stagewalk.tree import DIR
from conftest import ReferenceCandidates, make_tree, mkpath


def d(node_id: int, heat: int = 0, version: int = 0) -> Dentry:
    node = Dentry(node_id, None, f"n{node_id}", DIR, 0o755)
    node.heat = heat
    node.heat_version = version
    return node


# -- the heat rule: a set of capacity 0 admits nothing, so only the rule acts ---------


def test_three_accesses_one_period():
    cset = CandidateSet(0)
    node = d(1)
    for _ in range(3):
        observe_target(node, cset)
    assert node.heat == 3 and node.heat_version == cset.version


def test_reset_on_new_version():
    cset = CandidateSet(0)
    node = d(1)
    for _ in range(5):
        observe_target(node, cset)
    assert node.heat == 5
    cset.advance()
    observe_target(node, cset)
    assert node.heat == 1 and node.heat_version == cset.version


def test_heat_monotone_within_version():
    cset = CandidateSet(0)
    node = d(1)
    rng = random.Random(5)
    last = 0
    for _ in range(200):
        if rng.random() < 0.1:
            cset.advance()
            last = 0
        observe_target(node, cset)
        assert node.heat >= last or node.heat == 1
        last = node.heat


# -- maybe_admit -------------------------------------------------------------------


def full_set(capacity: int = 4, threshold: int = 4) -> tuple[CandidateSet, list[Dentry]]:
    cset = CandidateSet(capacity, threshold)
    members = [d(i + 1, heat=10 + i) for i in range(capacity)]
    for m in members:
        cset.maybe_admit(m)
    return cset, members


def test_replaced_above_threshold():
    cset, members = full_set()
    cset.least_popular = members[0]  # heat 10, threshold 4
    newcomer = d(99, heat=15)
    result, evicted = cset.maybe_admit(newcomer)
    assert result is Admission.REPLACED
    assert evicted is members[0]
    assert cset.least_popular is newcomer  # inherits the pointer
    assert newcomer in cset and members[0] not in cset


def test_rejected_at_boundary():
    cset, members = full_set()
    cset.least_popular = members[0]
    newcomer = d(99, heat=14)  # 14 is not strictly greater than 10 + 4
    result, evicted = cset.maybe_admit(newcomer)
    assert result is Admission.REJECTED and evicted is None
    assert newcomer not in cset


def test_capacity_zero_always_rejects():
    cset = CandidateSet(0, 4)
    assert cset.maybe_admit(d(1, heat=10**9))[0] is Admission.REJECTED


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
    cold = d(1, heat=0)
    assert cset.maybe_admit(cold)[0] is Admission.ADMITTED
    assert cset.least_popular is cold  # first admission establishes the cursor


def test_admission_below_capacity_applies_the_cursor_rule():
    cset = CandidateSet(4, 4)
    warm, hotter, colder, tie = d(1, heat=5), d(2, heat=9), d(3, heat=2), d(4, heat=2)
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


def member_set(capacity: int = 4, threshold: int = 4) -> tuple[CandidateSet, list[Dentry]]:
    """A full set whose members carry the current version, so that
    observe_target adds one to the heat each test sets."""
    cset, members = full_set(capacity, threshold)
    for m in members:
        m.heat_version = cset.version
    return cset, members


def test_cursor_rule_ignores_non_members():
    cset, members = member_set()
    cset.least_popular = members[2]
    outsider = d(99, heat=0)  # colder than every member, but not one of them
    observe_target(outsider, cset)
    assert outsider not in cset
    assert cset.least_popular is members[2]


def test_cursor_moves_to_smaller():
    cset, members = member_set()
    cset.least_popular = members[2]  # heat 12
    members[0].heat = 3
    observe_target(members[0], cset)  # heat 4
    assert cset.least_popular is members[0]


def test_cursor_unchanged_when_larger():
    cset, members = member_set()
    cset.least_popular = members[0]  # heat 10
    members[3].heat = 10
    observe_target(members[3], cset)  # heat 11
    assert cset.least_popular is members[0]


def test_cursor_self_comparison_unchanged():
    cset, members = member_set()
    cset.least_popular = members[1]
    observe_target(members[1], cset)
    assert cset.least_popular is members[1]


def test_tie_keeps_cursor():
    cset, members = member_set()
    cset.least_popular = members[0]  # heat 10
    members[1].heat = 9
    observe_target(members[1], cset)  # heat 10
    assert cset.least_popular is members[0]


def test_empty_cursor_adopts_the_observed_member():
    cset, members = member_set()
    cset.least_popular = None
    observe_target(members[3], cset)
    assert cset.least_popular is members[3]


# -- advance -------------------------------------------------------------------------


def test_advance_bumps_the_version_and_drops_every_member():
    cset, members = full_set()
    version = cset.version
    cset.advance()
    assert cset.version == version + 1
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
    cset = CandidateSet(4, 4)
    cset.advance()
    assert cset.version == 2 and len(cset) == 0 and cset.least_popular is None
    cset.validate()


def test_advance_resets_cursor_and_next_admission_takes_it():
    cset = CandidateSet(4, 4)
    cold, warm = d(1, heat=3), d(2, heat=9)
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
            assert node.heat > before.heat + cset.threshold
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
        before_state = (before.id, before.heat) if before else None
        observe_target(node, cset)
        if member:
            after = cset.least_popular
            log.append((node.id, node.heat, before_state, after.id if after else None))
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


# -- one owner for heat ---------------------------------------------------------------------


def test_engines_on_one_tree_raise_config_error():
    """Heat lives on the dentries, so a second stage engine on a tree, which
    would read and reset the first engine's heat, raises ConfigError. An
    engine whose construction failed does not claim the tree, and the other
    strategies share it freely."""
    from stagewalk import FullPathCache, OriginalLookup, TreeSpec, gen_tree

    tree = gen_tree(TreeSpec(levels=[2, 2], seed=1))
    with pytest.raises(ConfigError):
        StageLookupEngine(tree, heat_capacity=-1)
    first = StageLookupEngine(tree)
    with pytest.raises(ConfigError):
        StageLookupEngine(tree)
    assert tree.stage_engine is first
    path = mkpath("/a0/b0/c0")
    for resolver in (OriginalLookup(tree), FullPathCache(tree), first):
        assert resolver.lookup(path) == tree._resolve_admin(path).id
    first.apply_heat()  # the engine's lookup logs its target; the drain admits it
    assert first.candidates.members() == [tree._resolve_admin(path)]


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
            assert cset.version == ref.version
            cset.validate()
    # every path through the rules was taken
    paths = ("advance", "member", "skipped", Admission.ADMITTED, Admission.REPLACED, Admission.REJECTED)
    assert all(seen[k] > 100 for k in paths), seen


def test_public_names_resolve():
    import stagewalk

    missing = [name for name in stagewalk.__all__ if not hasattr(stagewalk, name)]
    assert missing == []
