from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from stagewalk import (
    DIR,
    FILE,
    STRATEGIES,
    Admission,
    Credential,
    Dentry,
    DirTree,
    PathBuf,
    PivotPool,
    build_pool,
    gen_tree,
    make_resolver,
    replay,
)
from stagewalk.errors import InvalidPath, NotFound, PermissionDenied
from stagewalk.metrics import Metrics
from stagewalk.paths import ROOT, _trusted
from stagewalk.pivots import Component, Pivot

# the oracle's own exec-bit table, written apart from `Credential`'s values
TRAV_BIT = {Credential.OWNER: 0o100, Credential.GROUP: 0o010, Credential.OTHER: 0o001}


def mkpath(text: str) -> PathBuf:
    return PathBuf.parse(text)


def path_of(d: Dentry) -> PathBuf:
    """The path that names `d`, read up its parent links: the oracle for the
    texts `DirTree.iter_subtree` builds downward."""
    names = []
    while d.parent is not None:
        names.append(d.name)
        d = d.parent
    return PathBuf(tuple(reversed(names)))


def make_node(tree: DirTree, path: str, kind: str = DIR, mode: int | None = None) -> Dentry:
    """Create path's missing components (intermediates as dirs) and return the leaf."""
    p = mkpath(path)
    cur = tree.root
    for i, name in enumerate(p.components):
        child = cur.children.get(name) if cur.children else None
        if child is None:
            k = kind if i == len(p.components) - 1 else DIR
            m = mode if (mode is not None and i == len(p.components) - 1) else (0o755 if k == DIR else 0o644)
            nid = tree.create_node(path_of(cur), name, k, m)
            child = tree.nodes[nid]
        cur = child
    return cur


def make_tree(*paths: str, files: tuple[str, ...] = (), threadsafe: bool = False) -> DirTree:
    tree = DirTree(threadsafe=threadsafe)
    for p in paths:
        make_node(tree, p, DIR)
    for f in files:
        make_node(tree, f, FILE)
    return tree


def reference_parse(raw: str) -> PathBuf:
    """PathBuf.parse as it was before a canonical text took one split: every
    text is trimmed of trailing slashes and tested for "//", "/./" and
    "/../". parse must return the same components and text, or raise the
    same error with the same message."""
    if not isinstance(raw, str) or not raw.startswith("/"):
        raise InvalidPath(f"not an absolute path: {raw!r}")
    trimmed = raw.rstrip("/")
    if not trimmed:
        return ROOT
    parts = tuple(trimmed.split("/")[1:])
    probe = trimmed + "/"
    if "//" in probe or "/./" in probe or "/../" in probe:
        return PathBuf(parts)  # raises, naming the empty, "." or ".." component
    return _trusted(parts, trimmed)


def reference_walk(
    tree: DirTree, start: Dentry, components, cred: Credential, metrics: Optional[Metrics] = None
) -> Dentry:
    """DirTree.walk_from as it was before it counted once per walk: every
    component adds its hash scan, and on a hit its verification scan and a
    visit, inside the loop, and every walk takes the tree's read lock. The
    outcome and the counts of walk_from must equal these."""
    visited = chars = 0
    cur = start
    bit = TRAV_BIT[cred]
    tree.lock.acquire_read()
    try:
        for name in components:
            children = cur.children
            if children is not None and cur.parent is not None and not (cur.mode & bit):
                raise PermissionDenied(f"no traversal through {cur.name!r} for {cred.name.lower()}")
            chars += len(name)  # hash scan
            child = children.get(name) if children is not None else None
            if child is None:
                raise NotFound(f"missing component {name!r}")
            chars += len(name)  # verification scan
            visited += 1
            cur = child
    finally:
        tree.lock.release_read()
        if metrics is not None:
            metrics.dentries_visited += visited
            metrics.char_comparisons += chars
    return cur


def oracle_resolve(tree: DirTree, path: PathBuf, cred: Credential) -> str:
    """Independent resolution oracle: children-dict walk with the traversal rule.

    Written apart from DirTree.walk_from, with no counters, so the two cannot
    share bugs.
    """
    cur = tree.root
    bit = TRAV_BIT[cred]
    for name in path.components:
        if cur.parent is not None and cur.children is not None and not (cur.mode & bit):
            return "err:PermissionDenied"
        child = cur.children.get(name) if cur.children else None
        if child is None:
            return "err:NotFound"
        cur = child
    return f"ok:{cur.id}"


def outcome(fn, *args) -> str:
    from stagewalk import EngineError

    try:
        res = fn(*args)
        return f"ok:{res}"
    except EngineError as exc:
        return f"err:{type(exc).__name__}"


def replay_each_strategy(spec, trace, **replay_kwargs) -> dict:
    """`replay` of one trace under every strategy, each resolver built on a
    fresh tree of `spec`; keyed by strategy, each value the resolver and its
    outcomes."""
    runs = {}
    for s in STRATEGIES:
        resolver = make_resolver(s, gen_tree(spec))
        runs[s] = resolver, replay(trace, resolver, **replay_kwargs)
    return runs


def outcome_mismatches(runs: dict) -> list[tuple[int, tuple[str, ...]]]:
    """(event index, each strategy's outcome) wherever the strategies of
    `replay_each_strategy` disagree."""
    rows = zip(*(outcomes for _resolver, outcomes in runs.values()))
    return [(i, outs) for i, outs in enumerate(rows) if len(set(outs)) != 1]


def lcp_components(a, b) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def brute_force_best(pool: PivotPool, path: PathBuf):
    """Exhaustive best-pivot oracle."""
    best, best_depth = None, 0
    for pv in pool.pivots:
        s = lcp_components(pv.names, path.components)
        if s > best_depth:
            best, best_depth = pv, s
    return (best, best_depth) if best_depth > 0 else None


def _cmp_component(a: str, b: str) -> tuple[bool, int]:
    """Char-by-char component compare; returns (equal, chars examined)."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    if i < n:
        return False, i + 1  # mismatching pair was examined
    return len(a) == len(b), i


@dataclass
class ReferenceScan:
    """What one reference scan found and counted. `cursor_depths` has the
    components matched so far after each pivot the scan compared: the
    path-text cursor sits at the end of that component, so a scan that reads
    the path at most once never lowers it. `stop` says why the scan ended:
    the query matched in full, a pivot's overlap fell below the depth
    matched, or no pivot was left."""

    result: Optional[tuple] = None
    pivots_visited: int = 0
    char_comparisons: int = 0
    cursor_depths: list[int] = field(default_factory=list)
    stop: str = "ran off the pool"

    @property
    def cursor_monotone(self) -> bool:
        return all(b >= a for a, b in zip(self.cursor_depths, self.cursor_depths[1:]))


def reference_scan(pool: PivotPool, path: PathBuf) -> ReferenceScan:
    """The paper's Stage One scan comparing names one char at a time: the
    result and the model cost that find_best_pivot must report without doing
    the work, and the cursor depths that show the path is read once."""
    ref = ReferenceScan()
    comps = path.components
    n = len(comps)
    best, best_depth, m, chain = None, 0, 0, 0
    prev = None
    for pv in list(pool.pivots):
        ref.pivots_visited += 1
        if prev is not None:
            chain = min(chain, lcp_components(prev.names, pv.names))  # the overlap
        prev = pv
        if chain < m:
            ref.stop = "stopped by an overlap"
            break
        if chain > m:
            continue
        ext = m
        while ext < n and ext < len(pv.names):
            equal, examined = _cmp_component(comps[ext], pv.names[ext])
            ref.char_comparisons += examined
            if not equal:
                break
            ext += 1
        if ext > best_depth:
            best, best_depth = pv, ext
        m = ext
        chain = 1 << 62
        ref.cursor_depths.append(m)
        if m == n:
            ref.stop = "query end"
            break
    ref.result = None if best is None else (best, best_depth)
    return ref


def reference_build_pool(candidates, bound: int, current: Optional[PivotPool] = None) -> PivotPool:
    """build_pool as it was before it ranked on names alone: every live
    candidate's path text, dentries, modes and components are worked out
    first, and only then is the pool cut to `bound`. Each component's text
    length is measured on its joined names. The pools build_pool returns
    must equal these in order, ids, prefix modes' ANDs and text lengths.
    With no live candidate to rank, an idle period, `current` is kept, as
    build_pool keeps it."""
    by_path: dict[str, tuple[int, tuple[str, ...], tuple[Dentry, ...], tuple[int, ...]]] = {}
    for d, heat in candidates.items():
        if d.dead:
            continue
        names: list[str] = []
        chain: list[Dentry] = []
        modes: list[int] = []
        cur = d
        while cur.parent is not None:
            names.append(cur.name)
            chain.append(cur)
            modes.append(cur.mode)
            cur = cur.parent
        if not names:
            continue
        names.reverse()
        chain.reverse()
        modes.reverse()
        path = "/" + "/".join(names)
        prev = by_path.get(path)
        if prev is None or heat > prev[0]:
            by_path[path] = (heat, tuple(names), tuple(chain), tuple(modes))
    if current is not None and not by_path:
        return current
    ranked = sorted(by_path.items(), key=lambda kv: (-kv[1][0], kv[1][1]))[: max(bound, 0)]
    ranked.sort(key=lambda kv: kv[1][1])

    pivots = []
    for _path, (_heat, names, chain, modes) in ranked:
        comps: list[Component] = []
        running = 0o777
        for depth, (node, mode) in enumerate(zip(chain, modes), start=1):
            comps.append(Component(node, running, len("/" + "/".join(names[:depth]))))
            running &= mode
        pivots.append(Pivot(names, tuple(comps)))
    return PivotPool(pivots)


def pool_shape(pool: PivotPool) -> tuple:
    """What two pools must share to be equal: the dump (overlaps and paths),
    each pivot's names, and its component ids, prefix modes' ANDs and
    text lengths."""
    return (
        pool.dump(),
        [pv.names for pv in pool.pivots],
        [[(c.node.id, c.prefix_trav, c.text_len) for c in pv.components] for pv in pool.pivots],
    )


def reference_gen_tree(spec, threadsafe: bool = False) -> DirTree:
    """gen_tree as it was before it paused the garbage collector, skipped
    the draw from a one-value size range and built its dentries inline:
    every file takes `rng.randint(lo, hi)`, and every node goes through
    `Dentry(...)`, its parent's map and `tree.nodes`. gen_tree must give the
    same tree for every spec."""
    spec.validate()
    rng = random.Random(spec.seed)
    tree = DirTree(threadsafe=threadsafe)

    def attach(parent, name, kind, mode, size=0):
        d = Dentry(len(tree.nodes), parent, name, kind, mode, size)
        parent.children[name] = d
        tree.nodes.append(d)
        return d

    parents = [tree.root]
    for depth, fanout in enumerate(spec.levels, start=1):
        letter = chr(ord("a") + (depth - 1) % 26)
        names = [f"{letter}{i}" for i in range(fanout)]
        next_parents = []
        for parent in parents:
            for name in names:
                next_parents.append(attach(parent, name, DIR, 0o755))
        parents = next_parents
    lo, hi = spec.file_size_range
    leaf_name = f"{chr(ord('a') + len(spec.levels) % 26)}0"
    for parent in parents:
        attach(parent, leaf_name, FILE, 0o644, rng.randint(lo, hi))
    return tree


class ReferenceCandidates:
    """The candidate set as it was kept on an intrusive ring through the
    dentries, written over a plain list of node ids, with a heat version and
    each node's heat and version, the way heat was once kept on the dentries.

    The ring inserted a newcomer at its tail and listed members from its head,
    the oldest; unlinking a victim kept the others in place. `ring` is that
    order. `observe` is observe_target step by step: the heat rule, then the
    cursor rule for a member or the admission rule for a non-member, whose
    (Admission, victim id) it returns; None for a member. `advance` is the
    old pair of a version bump and a clear: the ring and the cursor empty.
    The real set must give the same results, victims, order, cursor and
    size after every step."""

    def __init__(self, capacity: int, threshold: int):
        self.capacity = capacity
        self.threshold = threshold
        self.version = 1
        self.ring: list[int] = []
        self.cursor: Optional[int] = None
        self.heat: dict[int, int] = {}
        self.heat_version: dict[int, int] = {}

    def observe(self, node_id: int) -> Optional[tuple[Admission, Optional[int]]]:
        if self.heat_version.get(node_id, 0) == self.version:
            self.heat[node_id] += 1
        else:
            self.heat[node_id] = 1
            self.heat_version[node_id] = self.version
        heat = self.heat[node_id]
        if node_id in self.ring:
            if self.cursor is None or heat < self.heat[self.cursor]:
                self.cursor = node_id
            return None
        if self.capacity == 0:
            return Admission.REJECTED, None
        if len(self.ring) < self.capacity:
            self.ring.append(node_id)
            if self.cursor is None or heat < self.heat[self.cursor]:
                self.cursor = node_id
            return Admission.ADMITTED, None
        victim = self.cursor
        if heat > self.heat[victim] + self.threshold:
            self.ring.remove(victim)
            self.ring.append(node_id)
            self.cursor = node_id
            return Admission.REPLACED, victim
        return Admission.REJECTED, None

    def advance(self) -> None:
        self.version += 1
        self.ring = []
        self.cursor = None


FIG4_PATHS = ("/a1/b1/c1", "/a1/b1/c2/d2/e2", "/a1/b1/c2/d2/e3/f3/g3", "/a1/b2/c3")


@pytest.fixture
def fig4():
    """The worked four-pivot pool plus the lookup target's parent chain."""
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",))
    cands = [tree._resolve_admin(mkpath(p)) for p in FIG4_PATHS]
    pool = build_pool(dict.fromkeys(cands, 0), 16)
    pool.published = True
    return tree, cands, pool


def random_tree_paths(rng: random.Random, n_dirs: int, max_depth: int = 6) -> list[str]:
    """A pile of plausible paths from the generator's name universe."""
    paths = set()
    while len(paths) < n_dirs:
        depth = rng.randint(1, max_depth)
        comps = [f"{chr(ord('a') + d)}{rng.randint(0, 9)}" for d in range(depth)]
        paths.add("/" + "/".join(comps))
    return sorted(paths)
