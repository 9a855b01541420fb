from __future__ import annotations

import random

import pytest

from stagewalk import (
    Admission,
    CandidateSet,
    ContractViolation,
    Dentry,
    HeatEpoch,
    observe_target,
    record_access,
)
from stagewalk.tree import DIR


def d(node_id: int, heat: int = 0, version: int = 0) -> Dentry:
    node = Dentry(node_id, None, f"n{node_id}", DIR, 0o755)
    node.heat = heat
    node.heat_version = version
    return node


# -- record_access ---------------------------------------------------------------


def test_three_accesses_one_period():
    epoch = HeatEpoch()
    node = d(1)
    for _ in range(3):
        record_access(node, epoch)
    assert node.heat == 3 and node.heat_version == epoch.global_version


def test_reset_on_new_version():
    epoch = HeatEpoch()
    node = d(1)
    for _ in range(5):
        record_access(node, epoch)
    assert node.heat == 5
    epoch.advance()
    record_access(node, epoch)
    assert node.heat == 1 and node.heat_version == epoch.global_version


def test_heat_saturates():
    from stagewalk.heat import HEAT_MAX

    epoch = HeatEpoch()
    node = d(1, heat=HEAT_MAX, version=epoch.global_version)
    record_access(node, epoch)
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
        record_access(node, epoch)
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


def test_below_capacity_unconditional():
    cset = CandidateSet(2, 4)
    cold = d(1, heat=0)
    assert cset.maybe_admit(cold)[0] is Admission.ADMITTED
    assert cset.least_popular is cold  # first admission establishes the cursor


def test_admitting_member_is_misuse():
    cset = CandidateSet(4, 4)
    node = d(1)
    cset.maybe_admit(node)
    with pytest.raises(ContractViolation):
        cset.maybe_admit(node)


# -- reconcile_least_popular --------------------------------------------------------


def test_reconciling_non_member_is_misuse():
    cset = CandidateSet(4, 4)
    member, outsider = d(1), d(2)
    cset.maybe_admit(member)
    with pytest.raises(ContractViolation):
        cset.reconcile_least_popular(outsider)
    assert cset.least_popular is member  # the misuse moved nothing


def test_cursor_moves_to_smaller():
    cset, members = full_set()
    cset.least_popular = members[2]  # heat 12
    members[0].heat = 3
    cset.reconcile_least_popular(members[0])
    assert cset.least_popular is members[0]


def test_cursor_unchanged_when_larger():
    cset, members = full_set()
    cset.least_popular = members[0]  # heat 10
    members[3].heat = 11
    cset.reconcile_least_popular(members[3])
    assert cset.least_popular is members[0]


def test_cursor_self_comparison_unchanged():
    cset, members = full_set()
    cset.least_popular = members[1]
    cset.reconcile_least_popular(members[1])
    assert cset.least_popular is members[1]


def test_tie_keeps_cursor():
    cset, members = full_set()
    cset.least_popular = members[0]
    members[1].heat = members[0].heat
    cset.reconcile_least_popular(members[1])
    assert cset.least_popular is members[0]


# -- drain_overdue -------------------------------------------------------------------


def test_drain_all_stale():
    epoch = HeatEpoch()
    cset, members = full_set()
    epoch.advance()  # every member still carries the old version
    evicted = cset.drain_overdue(epoch)
    assert sorted(m.id for m in evicted) == sorted(m.id for m in members)
    assert len(cset) == 0 and cset.least_popular is None
    for m in members:
        assert m.cand_next is None and m.cand_prev is None


def test_drain_mixed_staleness_matches_filter_oracle():
    epoch = HeatEpoch()
    cset = CandidateSet(8, 4)
    members = [d(i + 1, heat=i + 1) for i in range(8)]
    for m in members:
        cset.maybe_admit(m)
    epoch.advance()
    refreshed = {2, 5, 7}
    for m in members:
        if m.id in refreshed:
            record_access(m, epoch)  # lookups interleaved after the advance
    expected_evicted = sorted(m.id for m in members if m.heat_version < epoch.global_version)
    evicted = cset.drain_overdue(epoch)
    assert sorted(m.id for m in evicted) == expected_evicted
    assert sorted(m.id for m in cset.members()) == sorted(refreshed)
    for m in cset.members():
        assert m.heat_version == epoch.global_version
    cset.validate()


def test_drain_empty_noop():
    cset = CandidateSet(4, 4)
    assert cset.drain_overdue(HeatEpoch()) == []


def test_drain_resets_cursor_only_if_referent_evicted():
    epoch = HeatEpoch()
    cset = CandidateSet(4, 4)
    stale, fresh = d(1, heat=3), d(2, heat=9)
    cset.maybe_admit(stale)
    cset.maybe_admit(fresh)
    epoch.advance()
    record_access(fresh, epoch)
    cset.least_popular = fresh
    cset.drain_overdue(epoch)
    assert cset.least_popular is fresh  # referent survived


# -- properties -------------------------------------------------------------------------


def test_churn_bound_property():
    """A member is displaced only by a newcomer beating its heat by more than the threshold."""
    rng = random.Random(7)
    epoch = HeatEpoch()
    cset = CandidateSet(8, threshold=4)
    nodes = [d(i + 1) for i in range(40)]
    for _ in range(5000):
        node = rng.choice(nodes)
        record_access(node, epoch)
        if node in cset:
            cset.reconcile_least_popular(node)
        else:
            before = cset.least_popular
            result, evicted = cset.maybe_admit(node)
            if result is Admission.REPLACED:
                assert node.heat > evicted.heat + cset.threshold
                assert evicted is before
        cset.validate()


def test_cursor_rule_event_sourced_replay():
    """Replay logged reconcile events against the literal cursor rule."""
    rng = random.Random(11)
    epoch = HeatEpoch()
    cset = CandidateSet(8, threshold=2)
    nodes = [d(i + 1) for i in range(16)]
    log: list[tuple[int, int, int | None, int | None]] = []
    for _ in range(3000):
        node = rng.choice(nodes)
        record_access(node, epoch)
        if node in cset:
            before = cset.least_popular
            before_state = (before.id, before.heat) if before else None
            cset.reconcile_least_popular(node)
            after = cset.least_popular
            log.append((node.id, node.heat, before_state, after.id if after else None))
        else:
            cset.maybe_admit(node)
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
