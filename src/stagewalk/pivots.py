"""Pivot pool: cached popular paths, ordered ascending, searched in one scan.

A pivot stores the full path of a hot dentry, a per-depth array of component
records (dentry id, aggregated ancestor-traversal mask),
and its overlap: the number of leading components shared with the previous
pivot in the pool. Because the pool is sorted, the overlap values let the
search walk the whole pool while scanning the query path's characters at most
once, plus a tiny bounded cost per pivot visited.
"""

from __future__ import annotations

from functools import lru_cache
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
    """Ascending-ordered pivot list. Immutable once published except for the
    valid flags of pivots a metadata modification covers; every structural
    change installs a fresh pool, so in-flight readers keep a consistent
    snapshot. `freed` poisons the pool and all its pivots once reclaimed."""

    __slots__ = ("pivots", "generation", "published", "freed")

    def __init__(self, pivots: list[Pivot]):
        self.pivots = pivots
        self.generation = 0
        self.published = False
        self.freed = False

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
    hotter candidates win, ties broken by ascending path.
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
    ranked = sorted(by_path.items(), key=lambda kv: (-kv[1][0], kv[0]))[: max(bound, 0)]
    ranked.sort(key=lambda kv: kv[0])  # ascending byte order of paths

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
    """An unpublished pool of fresh pivots from ascending `(path, names,
    components)` entries, each overlap computed against the entry before."""
    pivots: list[Pivot] = []
    prev_names: tuple[str, ...] = ()  # the first pivot shares nothing
    for path, names, comps in entries:
        pivots.append(Pivot(path, names, _lcp_components(prev_names, names), comps))
        prev_names = names
    return PivotPool(pivots)


class ScanStats:
    """Instrumentation for one find_best_pivot call; the scan writes its
    counts when it ends.

    The engine allocates one per lookup although it reads only
    `char_comparisons`: the benchmark's spans take `pivots_visited` from the
    scan's third argument, so passing None there would blind them.
    """

    __slots__ = ("pivots_visited", "char_comparisons", "cursor_depths")

    def __init__(self) -> None:
        self.pivots_visited = 0
        self.char_comparisons = 0
        # components matched so far, appended per pivot processed; the path-text
        # cursor sits at the end offset of that component, which grows with depth
        self.cursor_depths: list[int] = []

    @property
    def cursor_monotone(self) -> bool:
        return all(b >= a for a, b in zip(self.cursor_depths, self.cursor_depths[1:]))


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


_CHAIN_INF = 1 << 62


def find_best_pivot(
    pool: PivotPool, path: PathBuf, stats: Optional[ScanStats] = None
) -> Optional[tuple[Pivot, int]]:
    """Single forward scan for the valid pivot sharing the deepest prefix with `path`.

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
    characters are never read. Ties keep the first pivot that reached the
    deepest match. Returns None when no valid pivot shares even one component.

    Components are compared whole; `stats.char_comparisons` still counts what
    a char-by-char compare would examine: the full name on a match, and
    `_mismatch_cost` on the one compare per pivot that fails. That cost is a
    pure function of the two names, so it is memoized.

    The pool's list is read by reference, without a copy: a published pool
    never changes except for its covered pivots' `valid` flags
    (`invalidate_for_metadata` installs a new pool instead), so the scan sees
    one consistent snapshot. `pool.freed` is checked per pivot, so a reclaim
    in the middle of a scan still trips the sentinel.
    """
    if pool.freed:
        raise ContractViolation("pivot pool used after reclaim")
    if not pool.published:
        raise ContractViolation("pivot pool read before publication")
    comps = path.components
    n = len(comps)
    best: Optional[Pivot] = None
    best_depth = 0
    m = 0
    chain = 0  # the virtual predecessor of the first pivot shares nothing
    visited = 0
    chars = 0
    depths = stats.cursor_depths if stats is not None else []
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
        depths.append(m)
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
            if pivots[i - 1].path >= pv.path:
                problems.append(f"[{i}] order violation: {pivots[i-1].path!r} >= {pv.path!r}")
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
