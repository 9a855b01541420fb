"""Pivot pool: cached popular paths, ordered by components, searched in one scan.

A pivot stores the full path of a hot dentry, a per-depth array of component
records (dentry id, aggregated ancestor-traversal mask),
and its overlap: the number of leading components shared with the previous
pivot in the pool. The pool is sorted by component tuple, so the pivots that
share their first m names form one contiguous run. The paper's Stage One is
one forward scan that uses the overlaps to walk the whole pool while reading
the query path's characters at most once.

The model reports what that scan costs, but the code need not perform it.
The pivot manager builds each pool's component index before it publishes
the pool: a trie over the pivots' names whose every node carries the scan's
running chars by the time a query reaches that node's run. A scan descends
it with one dict step per matched component, reads the chars off the node
where it stops, and adds what the scan spends in that run, so it reports the
scan's pivot, depth, pivots visited and chars exactly. A run whose groups the
query's next name misses costs the sum of that name's mismatch chars against
every group; the node memoizes that sum per name, so a repeated miss costs
one dict read. The linear scan stays
for pools that hold an invalid pivot (a metadata modification retired them
while readers still scan them). The scan's cursor, which never moves
backward, is the property of the paper's scan that the tests check on their
char-by-char reference scan; neither implementation here records it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation
from .paths import PathBuf
from .tree import ALL_CLASSES_MASK, Dentry, trav_mask


class Component:
    """One path component of a pivot.

    prefix_trav is the AND of the traversal masks of components 1..depth-1,
    captured at build time; it lets a lookup clear the whole skipped prefix
    with a single mask test.
    """

    __slots__ = ("node_id", "prefix_trav")

    def __init__(self, node_id: int, prefix_trav: int):
        self.node_id = node_id
        self.prefix_trav = prefix_trav

    def __repr__(self) -> str:
        return f"Component(node={self.node_id}, prefix_trav={self.prefix_trav:03b})"


class Pivot:
    """A pool entry; it belongs to one pool only, whose `freed` flag covers it."""

    __slots__ = ("path", "names", "overlap", "components", "valid")

    def __init__(self, path: str, names: tuple[str, ...], overlap: int, components: tuple[Component, ...]):
        self.path = path
        self.names = names
        self.overlap = overlap
        self.components = components
        self.valid = True

    @property
    def depth(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Pivot({self.path!r}, overlap={self.overlap}, valid={self.valid})"


class PivotPool:
    """Pivot list in ascending component order. Immutable once published
    except for the valid flags of pivots a metadata modification covers;
    every structural change installs a fresh pool, so in-flight readers keep
    a consistent snapshot. `freed` poisons the pool and all its pivots once
    reclaimed.

    `index` is the component index, built before the manager publishes the
    pool (or by the first scan of a pool marked published without it);
    `linear_only` is set before any valid flag is cleared, and from then on
    every scan is linear, because the index's counts assume that every pivot
    is valid."""

    __slots__ = ("pivots", "generation", "published", "freed", "index", "linear_only")

    def __init__(self, pivots: list[Pivot]):
        self.pivots = pivots
        self.generation = 0
        self.published = False
        self.freed = False
        self.index: Optional[_IndexNode] = None
        self.linear_only = False

    @property
    def size(self) -> int:
        return len(self.pivots)

    def dump(self) -> str:
        """One line per pivot: `<overlap>\\t<path>`."""
        return "\n".join(f"{p.overlap}\t{p.path}" for p in self.pivots)


def _lcp_components(a: Sequence[str], b: Sequence[str]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def compute_overlap(prev: Pivot, cur: Pivot) -> int:
    """Leading whole components shared by two pivot paths (root not counted)."""
    return _lcp_components(prev.names, cur.names)


def build_pool(candidates: Iterable[Dentry], bound: int) -> PivotPool:
    """Materialize candidate dentries into a sorted pool of at most `bound` pivots.

    Each candidate's path is recovered by walking parent links; dead
    candidates (unlinked mid-build) are silently dropped. When truncating,
    hotter candidates win, ties broken by ascending component order, the
    order of the pool itself. Sorting by path text instead would split a
    run: `/a.d` sorts between `/a` and `/a/b` because `.` is below `/`.
    """
    by_path: dict[str, tuple[int, tuple[str, ...], tuple[int, ...], tuple[int, ...]]] = {}
    for d in candidates:
        if d is None or d.dead:
            continue  # SkippedDead
        names: list[str] = []
        ids: list[int] = []
        masks: list[int] = []
        cur = d
        while cur.parent is not None:
            names.append(cur.name)
            ids.append(cur.id)
            masks.append(trav_mask(cur.mode))
            cur = cur.parent
        if not names:
            continue  # the root is never a pivot
        names.reverse()
        ids.reverse()
        masks.reverse()
        path = "/" + "/".join(names)
        prev = by_path.get(path)
        if prev is None or d.heat > prev[0]:
            by_path[path] = (d.heat, tuple(names), tuple(ids), tuple(masks))
    ranked = sorted(by_path.items(), key=lambda kv: (-kv[1][0], kv[1][1]))[: max(bound, 0)]
    ranked.sort(key=lambda kv: kv[1][1])

    entries = []
    for path, (_heat, names, ids, masks) in ranked:
        comps: list[Component] = []
        running = ALL_CLASSES_MASK
        for node_id, mask in zip(ids, masks):
            comps.append(Component(node_id, running))
            running &= mask  # this component joins the prefix of deeper ones
        entries.append((path, names, tuple(comps)))
    return pool_from_sorted(entries)


def pool_from_sorted(entries: Iterable[tuple[str, tuple[str, ...], tuple[Component, ...]]]) -> PivotPool:
    """An unpublished pool of fresh pivots from `(path, names, components)`
    entries in ascending order of names, each overlap computed against the
    entry before."""
    pivots: list[Pivot] = []
    prev_names: tuple[str, ...] = ()  # the first pivot shares nothing
    for path, names, comps in entries:
        pivots.append(Pivot(path, names, _lcp_components(prev_names, names), comps))
        prev_names = names
    return PivotPool(pivots)


class ScanStats:
    """The counts of one find_best_pivot call, written when the scan ends.

    The counts are the linear scan's, whichever path produced them: the index
    descent reads them off the node where it stops, and neither path
    compares names char by char to count chars. Every return overwrites
    both, so one object can serve scan after scan: the engine keeps one per
    thread and allocates none per lookup.

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
    m being the node's level in the component index.

    `chars` is the linear scan's running char count by the time a query that
    matches the run's m names reaches it: the chars of those names plus the
    mismatch chars of the groups compared before. A descent reads it once,
    where it stops.

    A run of two or more pivots is split into groups by name m (the pivot
    that has only m names, `terminal`, comes first and joins no group);
    `children` maps each group's name to its run's node. A run of one pivot
    keeps that `pivot` and `lens`, the running sums of its name lengths.

    `misses` maps a name that no group matches to its mismatch chars summed
    over the groups, filled by the descents that stop here. It holds at most
    `_MISMATCH_CACHE_SIZE` names, maps one name at this node to a count (never
    a path to a pivot), and dies with the pool. Concurrent readers on a
    threadsafe tree may fill it at the same time: each store writes the same
    value, and the bound may be overshot by at most the number of racing
    threads.
    """

    __slots__ = ("start", "end", "terminal", "children", "pivot", "lens", "chars", "misses")

    def __init__(self, pivots: list[Pivot], start: int, end: int, m: int, chars: int):
        self.start = start
        self.end = end
        self.chars = chars
        self.children: dict[str, _IndexNode] = {}
        self.misses: dict[str, int] = {}
        self.pivot: Optional[Pivot] = None
        self.lens: tuple[int, ...] = ()
        # a pivot with only m names sorts first: it is a prefix of every other
        self.terminal = len(pivots[start].names) == m
        if end - start == 1:
            self.pivot = pivots[start]
            self.lens = (0, *accumulate(map(len, self.pivot.names)))
            return
        i = start + self.terminal
        while i < end:
            name = pivots[i].names[m]
            j = i + 1
            while j < end and pivots[j].names[m] == name:
                j += 1
            skipped = sum(_mismatch_cost(name, g) for g in self.children)
            self.children[name] = _IndexNode(pivots, i, j, m + 1, chars + skipped + len(name))
            i = j


def _index_pool(pool: PivotPool) -> Optional[_IndexNode]:
    """Build the pool's index, or mark the pool linear-only when it is empty
    or holds an invalid pivot; valid flags are only ever cleared."""
    pivots = pool.pivots
    if not pivots or not all(p.valid for p in pivots):
        pool.linear_only = True
        return None
    pool.index = _IndexNode(pivots, 0, len(pivots), 0, 0)
    return pool.index


_CHAIN_INF = 1 << 62


def find_best_pivot(
    pool: PivotPool, path: PathBuf, stats: Optional[ScanStats] = None
) -> Optional[tuple[Pivot, int]]:
    """The valid pivot sharing the deepest prefix with `path`, and that depth.

    Ties keep the pivot that comes first in the pool; None when no valid
    pivot shares even one component. `stats` gets the counts of the paper's
    single forward scan (`_scan_linear`): pivots visited and the chars a
    char-by-char compare would examine. Every return writes both, whatever
    `stats` held before.

    On a pool whose pivots are all valid the scan is a descent of the pool's
    component index, which `PivotManager` builds before it publishes a pool
    (a pool marked published without it is indexed here on first use): one
    dict step per matched component. Where the descent stops it reads the
    scan's running chars off the node and adds what the scan spends in that
    run.
    The scan compares the run's first pivot as deep as the query matches it:

    - a run of one pivot: one tuple-slice compare settles the depth;
    - the query ends in the run: that first compare stops the scan;
    - no group matches the query's next name: the terminal pivot and each
      group end one compare at the run's level, and the scan stops at the
      first pivot after the run. The node's `misses` memo holds that name's
      sum after its first miss there.

    Either way the best is the run's first pivot, and every pivot up to the
    stop is visited. The counts are computed from the index, not performed.
    A pool that holds an invalid pivot is scanned linearly, since a skipped
    pivot changes them.

    The pool's list is read by reference, without a copy: a published pool's
    pivots never change except for their `valid` flags, which
    `invalidate_for_metadata` clears only after it marks the pool
    linear-only. A reclaim during a scan still trips the sentinel, and a
    descent whose pivot was invalidated meanwhile is redone linearly.
    """
    if pool.freed:
        raise ContractViolation("pivot pool used after reclaim")
    if not pool.published:
        raise ContractViolation("pivot pool read before publication")
    if not pool.linear_only:
        index = pool.index or _index_pool(pool)
        if index is not None:
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
            chars = node.chars
            pv = node.pivot
            if pv is not None:
                names = pv.names
                e = len(names)
                if n < e:
                    e = n
                # a whole-path hit, the common case, is settled without slicing
                if comps != names and comps[m:e] != names[m:e]:
                    e = m
                    while comps[e] == names[e]:
                        e += 1
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
            best = pool.pivots[node.start] if e else None
            if best is None or best.valid:
                if stats is not None:
                    stats.pivots_visited = node.start + 1 if e == n else min(node.end + 1, index.end)
                    stats.char_comparisons = chars
                return None if best is None else (best, e)
    return _scan_linear(pool, path, stats)


def _scan_linear(pool: PivotPool, path: PathBuf, stats: Optional[ScanStats]) -> Optional[tuple[Pivot, int]]:
    """The paper's Stage One: a single forward scan of the pool.

    The scan keeps `m`, the deepest component match so far, and `chain`, the
    running minimum of consecutive overlaps since the last pivot whose
    characters were compared (which equals the component LCP between that
    pivot and the current one, by the sorted-list LCP identity). Pivots with
    chain > m share exactly m components with the path and are skipped without
    touching it; chain == m pivots are compared from component m+1 onward, so
    the path cursor never moves backward; the first chain < m proves nothing
    deeper can follow and stops the scan. Skipping chain > m pivots is not
    spelled out by the base procedure (only the == and < cases are); under the
    sortedness invariant it cannot change the result. Invalid pivots are
    skipped as if absent: their overlap still folds into `chain` but their
    characters are never read.

    Components are compared whole; `stats.char_comparisons` still counts what
    a char-by-char compare would examine: the full name on a match, and
    `_mismatch_cost` on the one compare per pivot that fails. That cost is a
    pure function of the two names, so it is memoized. `pool.freed` is checked
    per pivot.
    """
    comps = path.components
    n = len(comps)
    best: Optional[Pivot] = None
    best_depth = 0
    m = 0
    chain = 0  # the virtual predecessor of the first pivot shares nothing
    visited = 0
    chars = 0
    for pv in pool.pivots:
        if pool.freed:
            raise ContractViolation("pivot used after reclaim")
        visited += 1
        o = pv.overlap
        if o < chain:
            chain = o
        if chain < m:
            break
        if chain > m or not pv.valid:
            continue
        names = pv.names
        end = len(names)
        if n < end:
            end = n
        ext = m
        while ext < end:
            a = comps[ext]
            b = names[ext]
            if a == b:
                chars += len(a)
                ext += 1
            else:
                chars += _mismatch_cost(a, b)
                break
        if ext > best_depth:
            best = pv
            best_depth = ext
        m = ext
        chain = _CHAIN_INF  # anchor moved: next overlap is the LCP against this pivot
        if m == n:
            break
    if stats is not None:
        stats.pivots_visited = visited
        stats.char_comparisons = chars
    if best is None:
        return None
    return best, best_depth


def verify_pool(pool: PivotPool) -> list[str]:
    """Recompute ordering and overlaps by brute force; return violation strings."""
    problems: list[str] = []
    pivots = pool.pivots
    for i, pv in enumerate(pivots):
        if tuple(pv.path.split("/")[1:]) != pv.names:
            problems.append(f"[{i}] names do not match path split: {pv.path!r}")
        if i:
            if pivots[i - 1].names >= pv.names:
                problems.append(f"[{i}] order violation: {pivots[i-1].path!r} >= {pv.path!r} by components")
            want = _lcp_components(pivots[i - 1].names, pv.names)
            if pv.overlap != want:
                problems.append(f"[{i}] overlap {pv.overlap} != recomputed {want}")
        elif pv.overlap != 0:
            problems.append(f"[0] first overlap must be 0, got {pv.overlap}")
        if len(pv.components) != len(pv.names):
            problems.append(f"[{i}] component array length mismatch")
    return problems


# accounting model for a 64-bit layout: 16 bytes per component record,
# component blocks allocated in units of _COMPONENT_CAPACITY records, a 64-byte
# pivot header (path pointer/length, overlap, valid, extension pointer,
# padding) and a fixed 128-byte path buffer per pivot
_COMPONENT_CAPACITY = 8
_COMPONENT_BYTES = 16
_PIVOT_HEADER_BYTES = 64
_PATH_BUF_BYTES = 128


def pool_footprint_bytes(pool: PivotPool) -> int:
    """Reported memory footprint of the pool; accounting only, nothing is allocated."""
    total = 0
    for pv in pool.pivots:
        blocks = max(1, -(-pv.depth // _COMPONENT_CAPACITY))
        total += _PIVOT_HEADER_BYTES + _PATH_BUF_BYTES + blocks * _COMPONENT_CAPACITY * _COMPONENT_BYTES
    return total
