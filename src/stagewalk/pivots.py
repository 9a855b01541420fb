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

The model reports what that scan costs, but the code need not perform it.
Every pool builds its component index when it is constructed: a trie over
the pivots' names whose every node carries the scan's running chars by the
time a query reaches that node's run, and fills the pool's path map: each
pivot's path text to the pair (pivot, depth) that a scan of that path
returns, with the scan's pivots visited and chars. A whole-path hit is one
probe of the map and returns the stored pair without building one. Each
component record holds the length of the pivot's path text through it, so
the engine tells that a hit leaves nothing to walk by comparing lengths.
Partial hits and misses descend the index with one dict step per matched
component, read the chars off the node where they stop, and add what the
scan spends in that run, so they report the scan's pivot, depth, pivots
visited and chars exactly. A run whose groups the query's next name misses
costs the sum of that name's mismatch chars against every group; the node
memoizes that sum per name, so a repeated miss costs one dict read.
The metadata hook descends the same index along the mutated path to find the
run of pivots that path covers (`PivotPool.covered_run`). A pool's list
never changes once built, so neither its index nor its map goes stale; a
lookup that a metadata modification races is caught by the engine's re-check
of `metadata_seq`, not here. The paper's char-by-char scan, and its cursor that
never moves backward, live in the tests as the reference the counts are
checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
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

    `index` is the component index, built here from the list; it is None
    only for an empty pool. `by_path`, filled by the index's build and never
    written after it, maps each pivot's path text to ((pivot, depth), pivots
    visited, chars): the pair a query equal to that path matches in full,
    which a whole-path hit returns as it is stored, and the scan's counts for
    that query."""

    __slots__ = ("pivots", "generation", "published", "freed", "index", "by_path")

    def __init__(self, pivots: list[Pivot]):
        self.pivots = pivots
        self.generation = 0
        self.published = False
        self.freed = False
        self.by_path: dict[str, tuple[tuple[Pivot, int], int, int]] = {}
        self.index = _IndexNode(pivots, 0, len(pivots), 0, 0, self.by_path) if pivots else None

    @property
    def size(self) -> int:
        return len(self.pivots)

    def covered_run(self, prefix: tuple[str, ...]) -> tuple[int, int]:
        """(start, end) of the run `pivots[start:end]` whose names begin with
        `prefix`, the pivots a modification of that path covers; `(0, 0)` when
        none does. The sorted pool keeps them contiguous, one index node's run,
        so this descends the index one dict step per prefix name instead of
        comparing every pivot: a run of one pivot compares its remaining
        names once, a name the index lacks covers nothing, and the root's
        empty prefix covers the whole pool."""
        node = self.index
        if node is None:
            return 0, 0
        for m, name in enumerate(prefix):
            pv = node.pivot
            if pv is not None:
                return (node.start, node.end) if pv.names[m : len(prefix)] == prefix[m:] else (0, 0)
            node = node.children.get(name)
            if node is None:
                return 0, 0
        return node.start, node.end

    def dump(self) -> str:
        """One line per pivot: `<overlap>\\t<path>`, the overlap taken against
        the pivot before (the first shares nothing)."""
        prevs = [(), *(p.names for p in self.pivots)]
        return "\n".join(f"{_lcp_components(a, p.names)}\t{p.path}" for a, p in zip(prevs, self.pivots))


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
    them off the pool's path map, a descent off the index node where it stops,
    and neither compares names char by char. Every return overwrites both, so
    one object can serve scan after scan: a single-threaded engine keeps one and allocates none per
    lookup; a threadsafe engine makes one per lookup.

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
# name) pairs fail to match scan after scan; the bound keeps the cache, and
# each index node's miss memo, from growing with the number of distinct names
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


class _IndexNode:
    """The run `pivots[start:end]` of pivots that share their first m names,
    m being the node's level in the component index. `start` and `end` bound
    the run: it is what a modification of those m names covers, which
    `PivotPool.covered_run` reads off the node where its descent ends.

    `chars` is the paper's scan's running char count by the time a query that
    matches the run's m names reaches it: the chars of those names plus the
    mismatch chars of the groups compared before. A descent reads it once,
    where it stops.

    A run of two or more pivots is split into groups by name m (the pivot
    that has only m names, `terminal`, comes first and joins no group);
    `children` maps each group's name to its run's node. A run of one pivot
    keeps that `pivot` and `lens`, the running sums of its name lengths.

    `first_visited` and `past_visited` are the scan's pivots visited when it
    stops at the run's first pivot (the query ends in the run) and when it
    stops at the first pivot after the run.

    `misses` maps a name that no group matches to its mismatch chars summed
    over the groups, filled by the descents that stop here. It holds at most
    `_MISMATCH_CACHE_SIZE` names, maps one name at this node to a count (never
    a path to a pivot), and dies with the pool. Concurrent readers on a
    threadsafe tree may fill it at the same time: each store writes the same
    value, and the bound may be overshot by at most the number of racing
    threads.
    """

    __slots__ = (
        "start", "end", "terminal", "children", "pivot", "lens", "chars", "misses",
        "first_visited", "past_visited",
    )

    def __init__(self, pivots: list[Pivot], start: int, end: int, m: int, chars: int, by_path: dict):
        self.start = start
        self.end = end
        self.chars = chars
        self.first_visited = start + 1
        self.past_visited = min(end + 1, len(pivots))
        self.children: dict[str, _IndexNode] = {}
        self.misses: dict[str, int] = {}
        self.pivot: Optional[Pivot] = None
        self.lens: tuple[int, ...] = ()
        first = pivots[start]
        # a pivot with only m names sorts first: it is a prefix of every other
        self.terminal = len(first.names) == m
        if self.terminal or end - start == 1:  # a query equal to its path stops here
            rest = sum(map(len, first.names[m:]))
            by_path[first.path] = ((first, len(first.names)), self.first_visited, chars + rest)
        if end - start == 1:
            self.pivot = first
            self.lens = (0, *accumulate(map(len, first.names)))
            return
        i = start + self.terminal
        while i < end:
            name = pivots[i].names[m]
            j = i + 1
            while j < end and pivots[j].names[m] == name:
                j += 1
            skipped = sum(_mismatch_cost(name, g) for g in self.children)
            self.children[name] = _IndexNode(pivots, i, j, m + 1, chars + skipped + len(name), by_path)
            i = j


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
    Partial hits and misses descend the pool's component index, one dict step
    per matched component; where the descent stops it reads the scan's
    running chars off the node and adds what the scan spends in that run,
    which compares the run's first pivot as deep as the query matches it:

    - a run of one pivot: the depth is found name by name from its level;
    - the query ends in the run: that first compare stops the scan;
    - no group matches the query's next name: the terminal pivot and each
      group end one compare at the run's level, and the scan stops at the
      first pivot after the run. The node's `misses` memo holds that name's
      sum after its first miss there.

    Either way the best is the run's first pivot, and every pivot up to the
    stop is visited. The counts are computed from the index, not performed.

    The pool's list is read by reference, without a copy: a published pool
    never changes. A reclaim during a scan still trips the sentinel.
    """
    if pool.freed:
        raise ContractViolation("pivot pool used after reclaim")
    if not pool.published:
        raise ContractViolation("pivot pool read before publication")
    hit = pool.by_path.get(path.text)
    if hit is not None:  # a whole-path hit
        pair, visited, chars = hit
        if stats is not None:
            stats.pivots_visited = visited
            stats.char_comparisons = chars
        if pool.freed:
            raise ContractViolation("pivot used after reclaim")
        return pair
    index = pool.index
    if index is None:  # an empty pool
        if stats is not None:
            stats.pivots_visited = stats.char_comparisons = 0
        return None
    comps = path.components
    n = len(comps)
    node = index
    m = 0
    while m < n:  # a single-pivot run has no children and stops here
        child = node.children.get(comps[m])
        if child is None:
            break
        node = child
        m += 1
    pv = node.pivot
    chars = node.chars
    if pv is not None:
        names = pv.names
        k = len(names)
        if n < k:
            k = n
        e = m
        while e < k and comps[e] == names[e]:
            e += 1
        if e < k:
            chars += _mismatch_cost(comps[e], names[e])
        lens = node.lens
        chars += lens[e] - lens[m]
    else:
        e = m
        if m < n:
            q = comps[m]
            misses = node.misses
            cost = misses.get(q)
            if cost is None:
                cost = sum(map(_mismatch_cost, repeat(q), node.children))
                if len(misses) < _MISMATCH_CACHE_SIZE:
                    misses[q] = cost
            chars += cost
    if pool.freed:
        raise ContractViolation("pivot used after reclaim")
    if stats is not None:
        stats.pivots_visited = node.first_visited if e == n else node.past_visited
        stats.char_comparisons = chars
    return (pool.pivots[node.start], e) if e else None


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
