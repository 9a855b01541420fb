"""Per-dentry access heat and the fixed-capacity candidate set.

Heat counts accesses of lookup *targets* only, and a heat value is valid only
while its version matches the global one; the first access of a new period
resets it to 1. The candidate set keeps the hottest dentries on an intrusive
circular list and tracks a least_popular_cand cursor that is cheap to
maintain but deliberately not guaranteed to point at the true minimum. Every
pool swap advances the version and clears the set, so each period's
candidates are the targets of that period alone.

The heat rule has one copy, written inline in `observe_target` because it
runs once per lookup. The cursor rule's one-line test is written there, for
members, and in `maybe_admit`'s admission branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import ConfigError, ContractViolation
from .tree import Dentry

HEAT_MAX = 2**64 - 1


@dataclass(slots=True)
class HeatEpoch:
    """Global version window; advanced only by the pivot manager."""

    global_version: int = 1

    def advance(self) -> int:
        self.global_version += 1
        return self.global_version


class Admission(Enum):
    ADMITTED = "admitted"
    REPLACED = "replaced"
    REJECTED = "rejected"


# the members bound once: maybe_admit runs on every cold lookup, and reading a
# member through the enum class costs a class attribute lookup each time
_ADMITTED, _REPLACED, _REJECTED = Admission.ADMITTED, Admission.REPLACED, Admission.REJECTED


class CandidateSet:
    """Bounded set of hot dentries linked through their intrusive candidate links.

    A dentry is a member exactly when its `cand_next` is set. The lookup path
    (`observe_target` and `maybe_admit`) tests that link directly
    rather than paying a call to `__contains__`. A negative capacity or
    threshold raises ConfigError.
    """

    __slots__ = ("capacity", "threshold", "size", "least_popular", "_head")

    def __init__(self, capacity: int = 64, threshold: int = 4):
        if capacity < 0 or threshold < 0:
            raise ConfigError("heat capacity/threshold must be >= 0")
        self.capacity = capacity
        self.threshold = threshold
        self.size = 0
        self.least_popular: Optional[Dentry] = None
        self._head: Optional[Dentry] = None

    def __contains__(self, dentry: Dentry) -> bool:
        return dentry.cand_next is not None

    def __len__(self) -> int:
        return self.size

    def members(self) -> list[Dentry]:
        out: list[Dentry] = []
        if self._head is None:
            return out
        cur = self._head
        while True:
            out.append(cur)
            cur = cur.cand_next
            if cur is self._head:
                return out

    def _insert(self, d: Dentry) -> None:
        if self._head is None:
            d.cand_prev = d.cand_next = d
            self._head = d
        else:
            tail = self._head.cand_prev
            tail.cand_next = d
            d.cand_prev = tail
            d.cand_next = self._head
            self._head.cand_prev = d
        self.size += 1

    def _remove(self, d: Dentry) -> None:
        if d.cand_next is d:
            self._head = None
        else:
            d.cand_prev.cand_next = d.cand_next
            d.cand_next.cand_prev = d.cand_prev
            if self._head is d:
                self._head = d.cand_next
        d.cand_prev = d.cand_next = None
        self.size -= 1

    def maybe_admit(self, dentry: Dentry) -> tuple[Admission, Optional[Dentry]]:
        """Admission rule for a freshly accessed non-member.

        Below capacity the newcomer is admitted unconditionally; a full set
        demands heat strictly greater than least_popular_cand's heat plus the
        threshold, and the winner inherits the cursor from its victim.
        """
        if dentry.cand_next is not None:
            raise ContractViolation("maybe_admit on a current member")
        if self.capacity == 0:
            return _REJECTED, None
        if self.size < self.capacity:
            self._insert(dentry)
            lpc = self.least_popular
            if lpc is None or dentry.heat < lpc.heat:  # observe_target's cursor rule
                self.least_popular = dentry
            return _ADMITTED, None
        lpc = self.least_popular
        assert lpc is not None  # full set always has a cursor: every admission sets one
        if dentry.heat > lpc.heat + self.threshold:
            self._remove(lpc)
            self._insert(dentry)
            self.least_popular = dentry  # inherit the pointer
            return _REPLACED, lpc
        return _REJECTED, None

    def clear(self) -> None:
        """Unlink every member and reset the cursor and the size.

        The manager calls this right after it advances the heat version, under
        the heat lock, so no member can hold the new version: evicting the
        members whose version is stale would evict them all."""
        for m in self.members():
            m.cand_prev = m.cand_next = None
        self._head = self.least_popular = None
        self.size = 0

    def validate(self) -> None:
        """Raise if the ring or cursor is inconsistent (test support)."""
        ms = self.members()
        if len(ms) != self.size:
            raise ContractViolation(f"size {self.size} != ring length {len(ms)}")
        for m in ms:
            if m.cand_prev.cand_next is not m or m.cand_next.cand_prev is not m:
                raise ContractViolation(f"broken links at {m!r}")
        if self.least_popular is not None and self.least_popular not in self:
            raise ContractViolation("cursor references a non-member")


def observe_target(dentry: Dentry, epoch: HeatEpoch, cset: CandidateSet) -> int:
    """Heat pipeline for one resolved lookup target; returns its new heat.

    The heat rule: bump the target's heat, saturating at HEAT_MAX, or reset it
    to 1 if its version is stale. Then a member takes the cursor when its heat
    is below the cursor's referent's (never on a tie, so the referent itself
    leaves it in place), and a non-member is offered to `maybe_admit`."""
    version = epoch.global_version
    if dentry.heat_version == version:
        heat = dentry.heat
        if heat < HEAT_MAX:
            heat = dentry.heat = heat + 1
    else:
        heat = dentry.heat = 1
        dentry.heat_version = version
    if dentry.cand_next is not None:
        lpc = cset.least_popular
        if lpc is None or heat < lpc.heat:
            cset.least_popular = dentry
    else:
        cset.maybe_admit(dentry)
    return heat
