from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from stagewalk import (
    DIR,
    FILE,
    Credential,
    Dentry,
    DirTree,
    PathBuf,
    PivotPool,
    build_pool,
)

TRAV_BIT = {Credential.OWNER: 0o100, Credential.GROUP: 0o010, Credential.OTHER: 0o001}


def mkpath(text: str) -> PathBuf:
    return PathBuf.parse(text)


def make_node(tree: DirTree, path: str, kind: str = DIR, mode: int | None = None) -> Dentry:
    """Create path's missing components (intermediates as dirs) and return the leaf."""
    p = mkpath(path)
    cur = tree.root
    for i, name in enumerate(p.components):
        child = cur.children.get(name) if cur.children else None
        if child is None:
            k = kind if i == len(p.components) - 1 else DIR
            m = mode if (mode is not None and i == len(p.components) - 1) else (0o755 if k == DIR else 0o644)
            nid = tree.create_node(tree.materialize_path(cur), name, k, m)
            child = tree.node(nid)
        cur = child
    return cur


def make_tree(*paths: str, files: tuple[str, ...] = (), threadsafe: bool = False) -> DirTree:
    tree = DirTree(threadsafe=threadsafe)
    for p in paths:
        make_node(tree, p, DIR)
    for f in files:
        make_node(tree, f, FILE)
    return tree


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


def lcp_components(a, b) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def brute_force_best(pool: PivotPool, path: PathBuf):
    """Exhaustive best-pivot oracle over the valid pivots."""
    best, best_depth = None, 0
    for pv in pool.pivots:
        if not pv.valid:
            continue
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
    the path at most once never lowers it."""

    result: Optional[tuple] = None
    pivots_visited: int = 0
    char_comparisons: int = 0
    cursor_depths: list[int] = field(default_factory=list)

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
    for i, pv in enumerate(list(pool.pivots)):
        ref.pivots_visited += 1
        if i:
            chain = min(chain, pv.overlap)
        if chain < m:
            break
        if chain > m or not pv.valid:
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
            break
    ref.result = None if best is None else (best, best_depth)
    return ref


FIG4_PATHS = ("/a1/b1/c1", "/a1/b1/c2/d2/e2", "/a1/b1/c2/d2/e3/f3/g3", "/a1/b2/c3")


@pytest.fixture
def fig4():
    """The worked four-pivot pool plus the lookup target's parent chain."""
    tree = make_tree(*FIG4_PATHS, files=("/a1/b1/c2/d2/e3/f3/foo",))
    cands = [tree._resolve_admin(mkpath(p)) for p in FIG4_PATHS]
    pool = build_pool(cands, 16)
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
