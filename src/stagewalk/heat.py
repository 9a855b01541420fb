"""Per-period access heat and the fixed-capacity candidate set.

Heat counts accesses of lookup *targets* only, and it is one period's count:
the candidate set keeps it in a dict, `heat`, from dentry to that count,
which a period's `advance` empties, so the first access of a new period
sets it to 1. The set keeps the hottest dentries in an insertion-ordered
dict and tracks a least_popular_cand cursor that is cheap to maintain but
deliberately not guaranteed to point at the true minimum. Each period ends
with `end_period`, which returns the members looked up at least twice in
the period (`POPULAR_HEAT`), the pivot manager's build input, and then
`advance`s, emptying the heat, the members and the cursor, so each period's
candidates are the targets of that period alone. Admission has no heat
floor, so a target seen once is a candidate and never a pivot.

Heat and membership both belong to the set, as BP-Wrapper (Ding, Jiang and
Zhang, ICDE 2009) keeps the recorded accesses in the replacement policy's
state rather than on the cached objects; the dentries carry none of it, so
engines that share a tree share no heat.

A lookup does not apply heat itself: the engine logs its target, and the
engine's `tick` applies the log before `end_period` reads the members
(`engine.apply_heat`).
The heat rule has one copy, written inline in `observe_target`, which the
drain calls once per logged target, or once per distinct target with
`hits` set to that target's count where the drain has shown the counts give
the same members and heat. The cursor rule's one-line test is written
there, for members, and in `maybe_admit`'s admission branch.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import ConfigError, ContractViolation
from .tree import Dentry

# a candidate becomes a pivot only on its second lookup in a period: a target
# seen once is not popular, the rule 2Q (Johnson & Shasha, VLDB 1994) and
# TinyLFU (Einziger, Friedman & Manes, ACM ToS 2017) use to keep one-off
# references out of a cache
POPULAR_HEAT = 2


class Admission(Enum):
    ADMITTED = "admitted"
    REPLACED = "replaced"
    REJECTED = "rejected"


class CandidateSet:
    """Bounded set of hot dentries in admission order, and the period's heat.

    `heat` maps each target drained since the last `advance` to its count
    of lookups. `_members` is a dict used as an ordered set (every value is
    None): a newcomer goes to the end, a victim leaves from wherever it is,
    and `members()` lists the oldest first. `observe_target` and
    `maybe_admit` probe that dict directly rather than paying a call to
    `__contains__`. A negative capacity or threshold raises ConfigError.
    """

    __slots__ = ("capacity", "threshold", "heat", "least_popular", "_members")

    def __init__(self, capacity: int = 64, threshold: int = 4):
        if capacity < 0 or threshold < 0:
            raise ConfigError("heat capacity/threshold must be >= 0")
        self.capacity = capacity
        self.threshold = threshold
        self.heat: dict[Dentry, int] = {}
        self.least_popular: Optional[Dentry] = None
        self._members: dict[Dentry, None] = {}

    def __contains__(self, dentry: Dentry) -> bool:
        return dentry in self._members

    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[Dentry]:
        return list(self._members)

    def maybe_admit(self, dentry: Dentry) -> tuple[Admission, Optional[Dentry]]:
        """Admission rule for a freshly accessed non-member, whose access
        `heat` has counted.

        Below capacity the newcomer is admitted unconditionally; a full set
        demands heat strictly greater than least_popular_cand's heat plus the
        threshold, and the winner inherits the cursor from its victim.
        """
        members = self._members
        if dentry in members:
            raise ContractViolation("maybe_admit on a current member")
        if self.capacity == 0:
            return Admission.REJECTED, None
        heats = self.heat
        if len(members) < self.capacity:
            members[dentry] = None
            lpc = self.least_popular
            if lpc is None or heats[dentry] < heats[lpc]:  # observe_target's cursor rule
                self.least_popular = dentry
            return Admission.ADMITTED, None
        lpc = self.least_popular
        assert lpc is not None  # full set always has a cursor: every admission sets one
        if heats[dentry] > heats[lpc] + self.threshold:
            del members[lpc]
            members[dentry] = None
            self.least_popular = dentry  # inherit the pointer
            return Admission.REPLACED, lpc
        return Admission.REJECTED, None

    def end_period(self) -> dict[Dentry, int]:
        """The period's popular members, those at heat POPULAR_HEAT or more,
        to their heat in admission order; then `advance`."""
        heat = self.heat
        popular = {d: heat[d] for d in self._members if heat[d] >= POPULAR_HEAT}
        self.advance()
        return popular

    def advance(self) -> None:
        """Start a new period: drop every heat count, every member and the
        cursor."""
        self.heat.clear()
        self._members.clear()
        self.least_popular = None

    def validate(self) -> None:
        """Raise if the size or the cursor is inconsistent (test support)."""
        if len(self._members) > self.capacity:
            raise ContractViolation(f"{len(self._members)} members over capacity {self.capacity}")
        if self.least_popular is not None and self.least_popular not in self._members:
            raise ContractViolation("cursor references a non-member")


def observe_target(dentry: Dentry, cset: CandidateSet, hits: int = 1) -> int:
    """Heat pipeline for `hits` lookups of one target; returns its new heat.

    The heat rule: add `hits` to the target's count in the set's `heat`,
    which starts at 0 each period. Then a member takes the cursor when its
    heat is below the cursor's referent's (never on a tie, so the referent
    itself leaves it in place), and a non-member is offered to `maybe_admit`
    unless the set is full and its heat is at most threshold + 1: members
    were looked up this period, so each has heat 1 or more, and the cursor's
    referent would need less than 1 for it to win.

    `hits` is the number of lookups of the target that one call stands for.
    It is 1 except in the period-end drain, which passes a target's count
    only where one call per distinct target leaves the same members and
    heat as a call per lookup (`engine.StageLookupEngine.apply_heat`)."""
    heats = cset.heat
    heat = heats[dentry] = heats.get(dentry, 0) + hits
    members = cset._members
    if dentry in members:
        lpc = cset.least_popular
        if lpc is None or heat < heats[lpc]:
            cset.least_popular = dentry
    elif heat > cset.threshold + 1 or len(members) < cset.capacity:
        cset.maybe_admit(dentry)
    return heat
