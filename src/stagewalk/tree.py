"""In-memory directory tree and the component-wise walk.

The tree mirrors a kernel directory cache: every node is a dentry, and each
directory's children map (name to dentry) is the tree's only name index.
The kernel finds a child on a d_hash chain by hashing the name and then
verifying it; the walk counts both scans but does neither char by char. All
dentries are pinned (no eviction, no negative entries) and node ids are
never reused: `DirTree.nodes` is a list indexed by id (slot 0 unused), and
an unlinked dentry keeps its slot. No flag marks it: it is dead because its
parent's map no longer holds it, as the kernel's d_unhashed() asks the hash
chain, and a directory is the dentry that has a children map.

Mutations (create/rename/chmod/unlink) are serialized through the tree's
write lock. Walks on a threadsafe tree take the read side; a single-threaded
tree's walks make no lock call, since one thread cannot modify the tree
inside a walk. The walk's loop pays only for its probes: per component one
traversal test, one subscript of the children map (a missing name or a name
below a file raises there and becomes NotFound) and one assignment. A walk
counts its visits and chars once, not per component, and a resolved walk
takes its chars from the length of the text that spells its names, which its
caller passes.
Hooks registered by caching strategies fire before a mutation is applied,
with the path and the dentry the mutation resolved, so they observe
pre-mutation paths without resolving them again.
"""

from __future__ import annotations

from enum import IntEnum
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


class Credential(IntEnum):
    """A credential class, valued as the mode bit that lets it traverse a
    directory (the class's exec bit): every permission test is `mode & cred`."""

    OWNER = 0o100
    GROUP = 0o010
    OTHER = 0o001


class Dentry:
    """A cached directory-tree node.

    Six slots, none derived: `kind` is read off `children` (a map for a
    directory, None for a file) and `dead` off the parent's map; the `kind`
    argument only picks the children map. Access heat is not here: each
    stage engine's CandidateSet keeps its own.
    """

    __slots__ = ("id", "parent", "name", "mode", "size", "children")

    def __init__(self, node_id: int, parent: Optional["Dentry"], name: str, kind: str, mode: int, size: int = 0):
        self.id = node_id
        self.parent = parent
        self.name = name
        self.mode = mode
        self.size = size
        self.children: Optional[dict[str, Dentry]] = {} if kind == DIR else None

    @property
    def kind(self) -> str:
        return FILE if self.children is None else DIR

    @property
    def dead(self) -> bool:
        """Unlinked: not the root, and not what its parent's map holds under
        its name. An unlinked dentry keeps its parent and name, and a live
        one may since have taken that name."""
        parent = self.parent
        return parent is not None and parent.children.get(self.name) is not self

    def __repr__(self) -> str:
        return f"Dentry(id={self.id}, name={self.name!r}, kind={self.kind})"


# hook(path, dentry): fires pre-mutation with the path a rename, chmod or
# unlink changes and the dentry that path names
MetadataHook = Callable[[PathBuf, Dentry], None]


class DirTree:
    def __init__(self, threadsafe: bool = False):
        # whether threads may share this tree; walks, and the engines and
        # managers built on it, take their read-side locks only then
        self.threadsafe = threadsafe
        self.lock = RWLock() if threadsafe else NullRWLock()
        self.root = Dentry(1, None, "/", DIR, 0o755)
        self.nodes: list[Optional[Dentry]] = [None, self.root]  # by id; the next id is len(nodes)
        self._hooks: list[MetadataHook] = []

    # -- plumbing -----------------------------------------------------------

    def register_hook(self, hook: MetadataHook) -> None:
        self._hooks.append(hook)

    def _fire_hooks(self, path: PathBuf, dentry: Dentry) -> None:
        for hook in self._hooks:
            hook(path, dentry)

    @property
    def node_count(self) -> int:
        return sum(1 for d in self.nodes[1:] if not d.dead)

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

    def iter_subtree(self, text: str, dentry: Dentry) -> Iterator[tuple[str, Dentry]]:
        """Depth-first over the subtree rooted at dentry, dentry included:
        (path text, dentry) pairs. `text` is the path text that names
        dentry; a child's text extends its parent's."""
        stack = [(text, dentry)]
        while stack:
            text, d = stack.pop()
            yield text, d
            if d.children:
                prefix = text if d.parent is not None else ""  # the root's "/" spells no name
                # a list: extending by a generator cost fullpath's eviction 10% per node
                stack.extend([(f"{prefix}/{c.name}", c) for c in d.children.values()])

    def canonical_dump(self) -> str:
        """Sorted one-line-per-node text form; equal dumps mean equal trees."""
        lines = sorted([f"{text}\t{d.kind}\t{d.mode:o}\t{d.size}" for text, d in self.iter_subtree("/", self.root)])
        return "\n".join(lines) + "\n"

    # -- mutations ----------------------------------------------------------

    def create_node(self, parent_path: PathBuf, name: str, kind: str, mode: int, size: int = 0) -> NodeId:
        if kind not in (DIR, FILE):
            raise Unsupported(f"unknown node kind {kind!r}")
        self.lock.acquire_write()
        try:
            parent = self._resolve_admin(parent_path)
            if parent.children is None:
                raise NotADirectory(f"{parent_path.text} is not a directory")
            if name in parent.children:
                raise AlreadyExists(f"{parent_path.text}/{name} already exists")
            PathBuf((name,))  # validates the component
            d = Dentry(len(self.nodes), parent, name, kind, mode & 0o777, size)
            parent.children[name] = d
            self.nodes.append(d)
            return d.id
        finally:
            self.lock.release_write()

    def rename_node(self, old: PathBuf, new: PathBuf) -> None:
        self.lock.acquire_write()
        try:
            if old.is_root or new.is_root:
                raise Unsupported("cannot rename the root")
            d = self._resolve_admin(old)
            new_parent = self._resolve_admin(new.parent())
            if new_parent.children is None:
                raise NotADirectory(f"{new.parent().text} is not a directory")
            if new.name in new_parent.children:
                raise AlreadyExists(f"{new.text} already exists")
            cur = new_parent
            while cur is not None:
                if cur is d:
                    raise Unsupported("cannot rename a directory into its own subtree")
                cur = cur.parent
            self._fire_hooks(old, d)
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
            self._fire_hooks(path, d)
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
            self._fire_hooks(path, d)
            del d.parent.children[d.name]  # the unlink: `d.dead` is now true
        finally:
            self.lock.release_write()

    # -- lookup -------------------------------------------------------------

    def walk_from(
        self,
        start: Dentry,
        components: Sequence[str],
        cred: Credential,
        metrics: Metrics,
        text_len: int,
    ) -> Dentry:
        """Resolve components through the children maps starting at `start`.

        Shared by the original walk (start == root) and by Stage Two (start ==
        a pivot component), so both pay identical counters and apply identical
        permission rules: before descending out of a directory other than the
        root, its mode must have `cred`'s exec bit set. Each component is
        counted as the kernel's d_hash chain lookup would scan it: a hash scan
        of its name, then on a hit a verification scan and a dentry visit.

        The loop pays only for its probes: per component one traversal test,
        one subscript of the children map and one assignment. Only the
        subscript sits in a `try`, which costs nothing until it raises: a
        KeyError (no such name) or a TypeError (a file's children are None, so
        a name looked up below a file is missing) becomes NotFound.

        `text_len` is the length of the text that spells `components`, one
        '/' before each name; 0 when `components` is empty, as for the root,
        whose text "/" spells no name. A walk that resolves every component
        counts its chars from it, twice the names' total length, and builds
        no string. A failed walk counts the prefix it resolved, found by
        stepping parent links from where it stopped back to `start`, plus on
        NotFound the missing name's hash scan. Only a threadsafe tree takes
        its read lock for the walk; on one thread nothing can modify the tree
        inside it.
        """
        cur = start
        shared = self.threadsafe
        if shared:
            self.lock.acquire_read()
        try:
            for name in components:
                if not cur.mode & cred and cur.children is not None and cur.parent is not None:
                    raise PermissionDenied(f"no traversal through {cur.name!r} for {cred.name.lower()}")
                try:
                    cur = cur.children[name]
                except (KeyError, TypeError):
                    raise NotFound(f"missing component {name!r}") from None
        except (PermissionDenied, NotFound) as exc:
            resolved = 0
            d = cur
            while d is not start:
                d = d.parent
                resolved += 1
            chars = 2 * len("".join(components[:resolved]))  # hash and verification scans
            if isinstance(exc, NotFound):
                chars += len(components[resolved])  # the missing name's hash scan
            metrics.dentries_visited += resolved
            metrics.char_comparisons += chars
            raise
        finally:
            if shared:
                self.lock.release_read()
        metrics.dentries_visited += len(components)
        metrics.char_comparisons += 2 * (text_len - len(components))  # the names' chars, scanned twice
        return cur

    def lookup_original(self, path: PathBuf, cred: Credential, metrics: Metrics) -> NodeId:
        """Component-wise walk from the root; the baseline every strategy must
        match, and the miss walk of stage and fullpath, so a path is split for
        a walk from the root here alone."""
        text = path.text
        comps = path._components
        if comps is None:  # split inline, as `PathBuf.components` would
            comps = path._components = tuple(text[1:].split("/"))
        # the root's text "/" spells no name
        return self.walk_from(self.root, comps, cred, metrics, len(text) if comps else 0).id
