"""Pivot pool: cached popular paths, ordered by components, searched in one scan.

A pivot stores the names of a hot dentry's path and a per-depth array of
component records (dentry, AND of its ancestors' modes). Nothing in
it depends on its neighbours, so pools can share pivots. The pool is sorted by
component tuple, so the pivots that share their first m names form one
contiguous run. The paper's Stage One is one forward scan that uses each
pivot's overlap, the number of leading components it shares with the pivot
before it, to walk the whole pool while reading the query path's characters
at most once; the overlap is derived from the two pivots' names, not stored.

`build_pool` ranks the candidates on their names and heat alone, and
materializes component records only for the pivots it keeps.

`_scan` performs that scan a name at a time and counts the chars a
char-by-char compare would examine: a matched name's length, and on a
mismatch the chars up to the first differing one. Every pool scans each
pivot's own path when it is constructed and fills the pool's path map: each
pivot's path text to the pair (pivot, depth) that scan returns, with its
pivots visited and chars. A whole-path hit is one probe of the map and
returns the stored pair without building one; partial hits and misses run
the scan. Each component record holds the length of the pivot's path text
through it, so the engine tells that a hit leaves nothing to walk by
comparing lengths. The metadata hook finds the run of pivots a mutated path
covers by bisecting the sorted list on names (`PivotPool.covered_run`). A
pool's list never changes once built, so its map never goes stale; a lookup
that a metadata modification races is caught by the engine's re-check of
`metadata_seq`, not here. The paper's char-by-char scan, and its cursor that
never moves backward, live in the tests as the reference the counts are
checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation
from .paths import PathBuf
from .tree import Dentry


class Component:
    """One path component of a pivot.

    `node` is the component's dentry, so a lookup that lands on it starts
    Stage Two there without indexing `tree.nodes`; `node_id` is its id.
    prefix_trav is the AND of the modes of components 1..depth-1 (0o777 at
    depth 1), taken at build time, so `prefix_trav & cred` is the walk's own
    exec-bit test made once for the whole skipped prefix. `text_len` is the
    length of the pivot's path text through this component, "/" and names
    included: a query that matched the pivot to this depth has names left to
    walk exactly when its text is longer.
    """

    __slots__ = ("node", "prefix_trav", "text_len")

    def __init__(self, node: Dentry, prefix_trav: int, text_len: int):
        self.node = node
        self.prefix_trav = prefix_trav
        self.text_len = text_len

    @property
    def node_id(self) -> int:
        return self.node.id

    def __repr__(self) -> str:
        return f"Component(node={self.node.id}, prefix_trav={self.prefix_trav:03o})"


class Pivot:
    """A pool entry: a path's names and their component records. It holds no
    position, so a repaired pool shares its survivors with the pool it
    replaces; a pivot read through a pool is covered by that pool's `freed`
    flag."""

    __slots__ = ("names", "components")

    def __init__(self, names: tuple[str, ...], components: tuple[Component, ...]):
        self.names = names
        self.components = components

    @property
    def path(self) -> str:
        return "/" + "/".join(self.names)

    @property
    def depth(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Pivot({self.path!r})"


class PivotPool:
    """Pivot list in ascending component order, immutable once published:
    every change installs a fresh pool, so in-flight readers keep a
    consistent snapshot. A pool may share its pivots with the pool it
    replaced. `freed` poisons the pool once reclaimed, and a scan of a
    poisoned pool trips the sentinel.

    `by_path`, filled here by scanning each pivot's own path and never
    written after, maps each pivot's path text to ((pivot, depth), pivots
    visited, chars): the pair a query equal to that path matches in full,
    which a whole-path hit returns as it is stored, and the scan's counts for
    that query."""

    __slots__ = ("pivots", "generation", "published", "freed", "by_path")

    def __init__(self, pivots: list[Pivot]):
        self.pivots = pivots
        self.generation = 0
        self.published = False
        self.freed = False
        self.by_path: dict[str, tuple[tuple[Pivot, int], int, int]] = {
            pv.path: _scan(pivots, pv.names) for pv in pivots
        }

    @property
    def size(self) -> int:
        return len(self.pivots)

    def covered_run(self, prefix: tuple[str, ...]) -> tuple[int, int]:
        """(start, end) of the run `pivots[start:end]` whose names begin with
        `prefix`, the pivots a modification of that path covers; an empty run
        when none does. The sorted pool keeps them contiguous, and the first
        is the first pivot whose names are not below `prefix`, so one
        bisection finds it and the walk reads only the run and the pivot
        after it. The root's empty prefix covers the whole pool."""
        pivots = self.pivots
        start = end = bisect_left(pivots, prefix, key=_names)
        k = len(prefix)
        while end < len(pivots) and pivots[end].names[:k] == prefix:
            end += 1
        return start, end

    def dump(self) -> str:
        """One line per pivot: `<overlap>\\t<path>`, the overlap taken against
        the pivot before (the first shares nothing)."""
        prevs = [(), *(p.names for p in self.pivots)]
        return "\n".join(f"{_lcp_components(a, p.names)}\t{p.path}" for a, p in zip(prevs, self.pivots))


_names = attrgetter("names")


def _lcp_components(a: Sequence[str], b: Sequence[str]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def build_pool(candidates: Iterable[Dentry], bound: int, current: Optional[PivotPool] = None) -> PivotPool:
    """Materialize the hottest candidate dentries into a sorted pool of at
    most `bound` pivots.

    A first pass walks each candidate's parent links for its names only:
    dead candidates (unlinked mid-build, which their parent's map no longer
    holds; see `Dentry.dead`) and the root are dropped, and of
    two candidates with the same names the hotter is kept (the first on a
    tie). Hotter candidates win the cut, ties broken by ascending component
    order, the order of the pool itself. Sorting by path text instead would
    split a run: `/a.d` sorts between `/a` and `/a/b` because `.` is below
    `/`. Only the kept candidates are then walked again for their dentries
    and modes, so a period that ranks 64 candidates for 16 slots
    materializes 16.

    When the kept names equal `current`'s pivot names in order, or no live
    candidate is left to rank (an idle period), `current` itself is returned
    and nothing is materialized. Keeping it is sound only while `current`
    equals a build of its own names from the live tree, which the manager's
    working pool does: every rename, chmod and unlink retires the pivots it
    covers before it applies, and none can apply between a period's build
    and its install, which hold the tree read lock together.
    """
    by_names: dict[tuple[str, ...], tuple[int, Dentry]] = {}
    for d in candidates:
        if d is None or d.dead:
            continue  # SkippedDead
        names: list[str] = []
        cur = d
        while cur.parent is not None:
            names.append(cur.name)
            cur = cur.parent
        if not names:
            continue  # the root is never a pivot
        names.reverse()
        key = tuple(names)
        prev = by_names.get(key)
        if prev is None or d.heat > prev[0]:
            by_names[key] = (d.heat, d)
    ranked = sorted(by_names.items(), key=lambda kv: (-kv[1][0], kv[0]))[: max(bound, 0)]
    ranked.sort(key=lambda kv: kv[0])
    if current is not None and (not by_names or [names for names, _ in ranked] == [pv.names for pv in current.pivots]):
        return current

    pivots: list[Pivot] = []
    for names, (_heat, d) in ranked:
        chain: list[Dentry] = []
        cur = d
        while cur.parent is not None:
            chain.append(cur)
            cur = cur.parent
        comps: list[Component] = []
        running = 0o777
        text_len = 0
        for node, name in zip(reversed(chain), names):
            text_len += 1 + len(name)
            comps.append(Component(node, running, text_len))
            running &= node.mode  # this component joins the prefix of deeper ones
        pivots.append(Pivot(names, tuple(comps)))
    return PivotPool(pivots)


class ScanStats:
    """The counts of one find_best_pivot call, written when the scan ends.

    The counts are the paper's char-by-char scan's: a whole-path hit reads
    them off the pool's path map, any other query off `_scan`, which compares
    whole names and counts their chars. Every return overwrites both, so one
    object can serve scan after scan: a single-threaded engine keeps one and
    allocates none per lookup; a threadsafe engine makes one per lookup.

    The engine reads only `char_comparisons`. The class survives because the
    benchmark's spans read `pivots_visited` and `char_comparisons` off the
    scan's third argument; passing None there, or `Metrics`, would blind or
    corrupt them.
    """

    __slots__ = ("pivots_visited", "char_comparisons")

    def __init__(self) -> None:
        self.pivots_visited = 0
        self.char_comparisons = 0


# sibling names repeat under every parent, so the same (query name, pivot
# name) pairs fail to match scan after scan; the bound keeps the cache from
# growing with the number of distinct names
_MISMATCH_CACHE_SIZE = 4096


@lru_cache(maxsize=_MISMATCH_CACHE_SIZE)
def _mismatch_cost(a: str, b: str) -> int:
    """Chars a char-by-char compare examines before it finds `a != b`: up to
    and including the first differing pair, or all of the shorter name when
    it is a prefix of the other."""
    i = 0
    for x, y in zip(a, b):
        i += 1
        if x != y:
            return i
    return i


def _scan(pivots: Sequence[Pivot], comps: Sequence[str]) -> tuple[Optional[tuple[Pivot, int]], int, int]:
    """The paper's single forward scan of `pivots` for the query names
    `comps`: (the first deepest (pivot, depth) or None, pivots visited,
    chars a char-by-char compare examines).

    `m` is the depth matched so far, and `chain` the names a pivot shares
    with the last one compared: in a sorted pool, the least of the overlaps
    since. A pivot whose chain is above `m` agrees with the last compared
    pivot past the point where the query left it, so it cannot match deeper
    and is skipped; once the chain falls below `m`, no later pivot shares the
    matched prefix and the scan stops. A compared pivot extends `m` name by
    name, counting each matched name's length and, on a mismatch, the chars
    up to the first differing one. The scan also stops once the query is
    matched in full. The query's names are never read twice: `m` never
    falls.
    """
    n = len(comps)
    pair = None
    m = visited = chars = chain = 0
    prev: Sequence[str] = ()
    for pv in pivots:
        names = pv.names
        visited += 1
        overlap = _lcp_components(prev, names)
        prev = names
        if overlap < chain:
            chain = overlap
        if chain != m:
            if chain < m:
                break
            continue
        e = m
        k = min(n, len(names))
        while e < k and comps[e] == names[e]:
            chars += len(names[e])
            e += 1
        if e < k:
            chars += _mismatch_cost(comps[e], names[e])
        if e > m:
            pair = (pv, e)
            m = e
        if m == n:
            break
        chain = len(names)  # a pivot shares all its names with itself
    return pair, visited, chars


def find_best_pivot(
    pool: PivotPool, path: PathBuf, stats: Optional[ScanStats] = None
) -> Optional[tuple[Pivot, int]]:
    """The pivot sharing the deepest prefix with `path`, and that depth.

    Ties keep the pivot that comes first in the pool; None when no pivot
    shares even one component. `stats` gets the counts of the paper's single
    forward scan: pivots visited and the chars a char-by-char compare would
    examine. Every return writes both, whatever `stats` held before.

    A whole-path hit, a query equal to a pivot's path and the common case, is
    one probe of the pool's path map, whose entry carries the scan's counts
    and the pair it returns: every hit on one path returns the same object.
    An empty pool answers None having visited nothing. Any other query runs
    `_scan` over the pool.

    The pool's list is read by reference, without a copy: a published pool
    never changes. A reclaim during a scan still trips the sentinel.
    """
    if pool.freed:
        raise ContractViolation("pivot pool used after reclaim")
    if not pool.published:
        raise ContractViolation("pivot pool read before publication")
    hit = pool.by_path.get(path.text)
    if hit is None:
        if not pool.pivots:  # an empty pool
            if stats is not None:
                stats.pivots_visited = stats.char_comparisons = 0
            return None
        hit = _scan(pool.pivots, path.components)
    pair, visited, chars = hit
    if pool.freed:
        raise ContractViolation("pivot used after reclaim")
    if stats is not None:
        stats.pivots_visited = visited
        stats.char_comparisons = chars
    return pair


def verify_pool(pool: PivotPool) -> list[str]:
    """Recheck the pool's order and component arrays by brute force; return
    violation strings."""
    problems: list[str] = []
    pivots = pool.pivots
    for i, pv in enumerate(pivots):
        if i and pivots[i - 1].names >= pv.names:
            problems.append(f"[{i}] order violation: {pivots[i-1].path!r} >= {pv.path!r} by components")
        if len(pv.components) != len(pv.names):
            problems.append(f"[{i}] component array length mismatch")
    return problems
