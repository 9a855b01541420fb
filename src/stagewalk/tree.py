"""In-memory directory tree and the component-wise walk.

The tree mirrors a kernel directory cache: every node is a dentry, and each
directory's children map (name to dentry) is the tree's only name index.
The kernel finds a child on a d_hash chain by hashing the name and then
verifying it; the walk counts both scans but does neither char by char. All
dentries are pinned (no eviction, no negative entries) and node ids are
never reused.

Mutations (create/rename/chmod/unlink) are serialized through the tree's
write lock; lookups take the read side. Hooks registered by caching
strategies fire before a mutation is applied so they can observe
pre-mutation paths.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    AlreadyExists,
    NotADirectory,
    NotFound,
    PermissionDenied,
    Unsupported,
)
from .locks import NullRWLock, RWLock
from .metrics import Metrics
from .paths import PathBuf

DIR = "dir"
FILE = "file"

NodeId = int


class Credential(str, Enum):
    OWNER = "owner"
    GROUP = "group"
    OTHER = "other"


# exec bit that grants directory traversal, per credential class
_TRAV_BIT = {Credential.OWNER: 0o100, Credential.GROUP: 0o010, Credential.OTHER: 0o001}

# position of each class in the 3-bit aggregated traversal masks kept on pivots
CRED_MASK_BIT = {Credential.OWNER: 0b100, Credential.GROUP: 0b010, Credential.OTHER: 0b001}

ALL_CLASSES_MASK = 0b111


def trav_mask(mode: int) -> int:
    """3-bit owner/group/other traversal mask extracted from a 9-bit mode."""
    return ((mode >> 6 & 1) << 2) | ((mode >> 3 & 1) << 1) | (mode & 1)


class Dentry:
    """A cached directory-tree node.

    heat / heat_version belong to the access-frequency machinery;
    cand_prev / cand_next are the intrusive candidate-set links and are
    non-None exactly while the dentry is a member.
    """

    __slots__ = (
        "id",
        "parent",
        "name",
        "kind",
        "mode",
        "size",
        "heat",
        "heat_version",
        "cand_prev",
        "cand_next",
        "dead",
        "children",
    )

    def __init__(self, node_id: int, parent: Optional["Dentry"], name: str, kind: str, mode: int, size: int = 0):
        self.id = node_id
        self.parent = parent
        self.name = name
        self.kind = kind
        self.mode = mode
        self.size = size
        self.heat = 0
        self.heat_version = 0
        self.cand_prev: Optional[Dentry] = None
        self.cand_next: Optional[Dentry] = None
        self.dead = False
        self.children: Optional[dict[str, Dentry]] = {} if kind == DIR else None

    def __repr__(self) -> str:
        return f"Dentry(id={self.id}, name={self.name!r}, kind={self.kind})"


# hook(path): fires pre-mutation with the path a rename, chmod or unlink changes
MetadataHook = Callable[[PathBuf], None]


class DirTree:
    def __init__(self, threadsafe: bool = False):
        self.lock = RWLock() if threadsafe else NullRWLock()
        self.root = Dentry(1, None, "/", DIR, 0o755)
        self.nodes: dict[int, Dentry] = {1: self.root}
        self._next_id = 2
        self._hooks: list[MetadataHook] = []

    @property
    def threadsafe(self) -> bool:
        """Whether threads may share this tree; engines and managers built on
        it take their read-side locks only then."""
        return not isinstance(self.lock, NullRWLock)

    # -- plumbing -----------------------------------------------------------

    def register_hook(self, hook: MetadataHook) -> None:
        self._hooks.append(hook)

    def _fire_hooks(self, path: PathBuf) -> None:
        for hook in self._hooks:
            hook(path)

    def node(self, node_id: int) -> Optional[Dentry]:
        return self.nodes.get(node_id)

    @property
    def node_count(self) -> int:
        return sum(1 for d in self.nodes.values() if not d.dead)

    def _resolve_admin(self, path: PathBuf) -> Dentry:
        """Trusted resolution through the children maps; no counters, no checks."""
        cur = self.root
        for name in path.components:
            if cur.children is None:
                raise NotFound(f"{path.text}: {cur.name!r} is not a directory")
            nxt = cur.children.get(name)
            if nxt is None:
                raise NotFound(f"{path.text}: missing component {name!r}")
            cur = nxt
        return cur

    def materialize_path(self, dentry: Dentry) -> PathBuf:
        names: list[str] = []
        cur = dentry
        while cur.parent is not None:
            names.append(cur.name)
            cur = cur.parent
        names.reverse()
        return PathBuf(tuple(names))

    def iter_subtree(self, dentry: Dentry) -> Iterator[Dentry]:
        """Depth-first over the subtree rooted at dentry, dentry included."""
        stack = [dentry]
        while stack:
            d = stack.pop()
            yield d
            if d.children:
                stack.extend(d.children.values())

    def canonical_dump(self) -> str:
        """Sorted one-line-per-node text form; equal dumps mean equal trees."""
        lines = []
        for d in self.nodes.values():
            if d.dead:
                continue
            lines.append(f"{self.materialize_path(d).text}\t{d.kind}\t{d.mode:o}\t{d.size}")
        lines.sort()
        return "\n".join(lines) + "\n"

    # -- mutations ----------------------------------------------------------

    def _attach(self, parent: Dentry, name: str, kind: str, mode: int, size: int = 0) -> Dentry:
        """Fast constructor shared by create_node and the tree generator."""
        d = Dentry(self._next_id, parent, name, kind, mode, size)
        self._next_id += 1
        parent.children[name] = d
        self.nodes[d.id] = d
        return d

    def create_node(self, parent_path: PathBuf, name: str, kind: str, mode: int, size: int = 0) -> NodeId:
        if kind not in (DIR, FILE):
            raise Unsupported(f"unknown node kind {kind!r}")
        self.lock.acquire_write()
        try:
            parent = self._resolve_admin(parent_path)
            if parent.kind != DIR:
                raise NotADirectory(f"{parent_path.text} is not a directory")
            if name in parent.children:
                raise AlreadyExists(f"{parent_path.text}/{name} already exists")
            PathBuf((name,))  # validates the component
            return self._attach(parent, name, kind, mode & 0o777, size).id
        finally:
            self.lock.release_write()

    def rename_node(self, old: PathBuf, new: PathBuf) -> None:
        self.lock.acquire_write()
        try:
            if old.is_root or new.is_root:
                raise Unsupported("cannot rename the root")
            d = self._resolve_admin(old)
            new_parent = self._resolve_admin(new.parent())
            if new_parent.kind != DIR:
                raise NotADirectory(f"{new.parent().text} is not a directory")
            if new.name in new_parent.children:
                raise AlreadyExists(f"{new.text} already exists")
            cur = new_parent
            while cur is not None:
                if cur is d:
                    raise Unsupported("cannot rename a directory into its own subtree")
                cur = cur.parent
            self._fire_hooks(old)
            del d.parent.children[d.name]
            d.parent = new_parent
            d.name = new.name
            new_parent.children[d.name] = d
        finally:
            self.lock.release_write()

    def chmod_node(self, path: PathBuf, mode: int) -> None:
        self.lock.acquire_write()
        try:
            d = self._resolve_admin(path)
            self._fire_hooks(path)
            d.mode = mode & 0o777
        finally:
            self.lock.release_write()

    def unlink_node(self, path: PathBuf) -> None:
        self.lock.acquire_write()
        try:
            if path.is_root:
                raise Unsupported("cannot unlink the root")
            d = self._resolve_admin(path)
            if d.children:
                raise Unsupported(f"{path.text} has children")
            self._fire_hooks(path)
            del d.parent.children[d.name]
            d.dead = True
        finally:
            self.lock.release_write()

    # -- lookup -------------------------------------------------------------

    def walk_from(
        self,
        start: Dentry,
        components: Sequence[str],
        cred: Credential,
        metrics: Optional[Metrics] = None,
    ) -> Dentry:
        """Resolve components through the children maps starting at `start`.

        Shared by the original walk (start == root) and by Stage Two (start ==
        a pivot component), so both pay identical counters and apply identical
        permission rules: before descending out of a directory other than the
        root, its traversal bit for `cred` must be set. Each component is
        counted as the kernel's d_hash chain lookup would scan it: a hash scan
        of its name, then on a hit a verification scan and a dentry visit. A
        name looked up below a file is missing (NotFound). The counts gather
        in locals and reach `metrics` once, when the walk ends or fails; a
        caller without `metrics` counts into a throwaway one. Holds the tree
        read lock for the walk.
        """
        if metrics is None:
            metrics = Metrics()
        resolved = metrics.distinct_resolved.add
        visited = chars = 0
        cur = start
        bit = _TRAV_BIT[cred]
        self.lock.acquire_read()
        try:
            for name in components:
                children = cur.children
                if children is not None and cur.parent is not None and not (cur.mode & bit):
                    raise PermissionDenied(f"no traversal through {cur.name!r} for {cred.value}")
                chars += len(name)  # hash scan
                child = children.get(name) if children is not None else None
                if child is None:
                    raise NotFound(f"missing component {name!r}")
                chars += len(name)  # verification scan
                visited += 1
                resolved(child.id)
                cur = child
        finally:
            self.lock.release_read()
            metrics.dentries_visited += visited
            metrics.char_comparisons += chars
        return cur

    def lookup_original(self, path: PathBuf, cred: Credential, metrics: Optional[Metrics] = None) -> NodeId:
        """Component-wise walk from the root; the baseline every strategy must match."""
        return self.walk_from(self.root, path.components, cred, metrics).id
