from __future__ import annotations

import random

import pytest

from stagewalk import (
    Admission,
    CandidateSet,
    ConfigError,
    ContractViolation,
    Dentry,
    HeatEpoch,
    StageLookupEngine,
    make_resolver,
    observe_target,
)
from stagewalk.tree import DIR
from conftest import make_tree, mkpath


def d(node_id: int, heat: int = 0, version: int = 0) -> Dentry:
    node = Dentry(node_id, None, f"n{node_id}", DIR, 0o755)
    node.heat = heat
    node.heat_version = version
    return node


def bump(node: Dentry, epoch: HeatEpoch) -> int:
    """observe_target's heat rule alone: a set of capacity 0 admits nothing."""
    return observe_target(node, epoch, CandidateSet(0))


# -- the heat rule ---------------------------------------------------------------


def test_three_accesses_one_period():
    epoch = HeatEpoch()
    node = d(1)
    for _ in range(3):
        bump(node, epoch)
    assert node.heat == 3 and node.heat_version == epoch.global_version


def test_reset_on_new_version():
    epoch = HeatEpoch()
    node = d(1)
    for _ in range(5):
        bump(node, epoch)
    assert node.heat == 5
    epoch.advance()
    bump(node, epoch)
    assert node.heat == 1 and node.heat_version == epoch.global_version


def test_heat_saturates():
    from stagewalk.heat import HEAT_MAX

    epoch = HeatEpoch()
    node = d(1, heat=HEAT_MAX, version=epoch.global_version)
    bump(node, epoch)
    assert node.heat == HEAT_MAX


def test_heat_monotone_within_version():
    epoch = HeatEpoch()
    node = d(1)
    rng = random.Random(5)
    last = 0
    for _ in range(200):
        if rng.random() < 0.1:
            epoch.advance()
            last = 0
        bump(node, epoch)
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


def member_set(capacity: int = 4, threshold: int = 4) -> tuple[HeatEpoch, CandidateSet, list[Dentry]]:
    """A full set whose members carry the current version, so that
    observe_target adds one to the heat each test sets."""
    epoch = HeatEpoch()
    cset, members = full_set(capacity, threshold)
    for m in members:
        m.heat_version = epoch.global_version
    return epoch, cset, members


def test_cursor_rule_ignores_non_members():
    epoch, cset, members = member_set()
    cset.least_popular = members[2]
    outsider = d(99, heat=0)  # colder than every member, but not one of them
    observe_target(outsider, epoch, cset)
    assert outsider not in cset
    assert cset.least_popular is members[2]


def test_cursor_moves_to_smaller():
    epoch, cset, members = member_set()
    cset.least_popular = members[2]  # heat 12
    members[0].heat = 3
    observe_target(members[0], epoch, cset)  # heat 4
    assert cset.least_popular is members[0]


def test_cursor_unchanged_when_larger():
    epoch, cset, members = member_set()
    cset.least_popular = members[0]  # heat 10
    members[3].heat = 10
    observe_target(members[3], epoch, cset)  # heat 11
    assert cset.least_popular is members[0]


def test_cursor_self_comparison_unchanged():
    epoch, cset, members = member_set()
    cset.least_popular = members[1]
    observe_target(members[1], epoch, cset)
    assert cset.least_popular is members[1]


def test_tie_keeps_cursor():
    epoch, cset, members = member_set()
    cset.least_popular = members[0]  # heat 10
    members[1].heat = 9
    observe_target(members[1], epoch, cset)  # heat 10
    assert cset.least_popular is members[0]


def test_empty_cursor_adopts_the_observed_member():
    epoch, cset, members = member_set()
    cset.least_popular = None
    observe_target(members[3], epoch, cset)
    assert cset.least_popular is members[3]


# -- clear -------------------------------------------------------------------------


def test_clear_unlinks_every_member():
    cset, members = full_set()
    cset.clear()
    assert len(cset) == 0 and cset.least_popular is None and cset.members() == []
    for m in members:
        assert m.cand_next is None and m.cand_prev is None
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
    members = engine.candidates.members()
    assert len(members) == 8
    assert engine.manager.periodic_update()
    assert len(engine.candidates) == 0 and engine.candidates.least_popular is None
    assert all(m.cand_next is None and m.cand_prev is None for m in members)
    engine.candidates.validate()
    engine.lookup(mkpath(files[5]))
    assert [m.name for m in engine.candidates.members()] == ["f5"]
    engine.candidates.validate()


def test_clear_empty_noop():
    cset = CandidateSet(4, 4)
    cset.clear()
    assert len(cset) == 0 and cset.least_popular is None
    cset.validate()


def test_clear_resets_cursor_and_next_admission_takes_it():
    epoch = HeatEpoch()
    cset = CandidateSet(4, 4)
    cold, warm = d(1, heat=3), d(2, heat=9)
    cset.maybe_admit(cold)
    cset.maybe_admit(warm)
    assert cset.least_popular is cold
    epoch.advance()
    cset.clear()
    assert cset.least_popular is None
    observe_target(warm, epoch, cset)  # re-admitted with heat 1
    assert cset.members() == [warm] and cset.least_popular is warm
    cset.validate()


# -- properties -------------------------------------------------------------------------


def test_churn_bound_property():
    """A member is displaced only by a newcomer beating its heat by more than the threshold."""
    rng = random.Random(7)
    epoch = HeatEpoch()
    cset = CandidateSet(8, threshold=4)
    nodes = [d(i + 1) for i in range(40)]
    replaced = 0
    for _ in range(5000):
        node = rng.choice(nodes)
        full, member, before = len(cset) == cset.capacity, node in cset, cset.least_popular
        observe_target(node, epoch, cset)
        if full and not member and node in cset:
            replaced += 1
            assert before not in cset  # the cursor's referent was the victim
            assert node.heat > before.heat + cset.threshold
        cset.validate()
    assert replaced > 0


def test_cursor_rule_event_sourced_replay():
    """Replay logged member observations against the literal cursor rule."""
    rng = random.Random(11)
    epoch = HeatEpoch()
    cset = CandidateSet(8, threshold=2)
    nodes = [d(i + 1) for i in range(16)]
    log: list[tuple[int, int, int | None, int | None]] = []
    for _ in range(3000):
        node = rng.choice(nodes)
        member = node in cset
        before = cset.least_popular
        before_state = (before.id, before.heat) if before else None
        observe_target(node, epoch, cset)
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
    epoch = HeatEpoch()
    cset = CandidateSet(2, 4)
    a, b, c = d(1), d(2), d(3)
    assert observe_target(a, epoch, cset) == 1
    assert observe_target(b, epoch, cset) == 1
    for _ in range(10):
        observe_target(c, epoch, cset)  # c heats to 10, enough to displace
    assert c in cset
    cset.validate()
