"""Full-path-indexed directory cache baseline.

Lookups hash the whole canonical path into a map from path text to the
dentry's id and the credentials it admits. Any rename/chmod/unlink of a node
walks its whole subtree from the dentry the mutation resolved, which the
tree's hook passes in, and evicts the cached entry under each node's path:
exactly the cost asymmetry this baseline exists to expose, since
invalidation work grows with the subtree while the pivot scheme touches at
most a pool's worth of entries. Eviction alone keeps every entry true: the
tree fires the hook before it applies the change, while each subtree node's
current path still names it, and a create changes no existing path.

A hit needs `bits & cred`, the walk's own test against the entry's bits (a
credential's value is its exec bit): fullpath's permission model, a prefix
check cache per credential (Tsai et al., SOSP 2015). A credential's bit is
ORed in only by its own successful walk, which found that bit in the mode of
every ancestor below the root; a refused walk raises before the insert, and
an ancestor's rename, chmod or unlink evicts the entry first, so no bit
outlives what it proved.

The cache serves one thread: its map and its insert run outside the tree
lock.

Cost accounting (deterministic): every probe scans the full path once (hash);
a map hit pays a second scan to verify the stored key; a miss pays the walk's
usual two scans per component; inserts reuse the probe hash.
"""

from __future__ import annotations

from .engine import _ResolverBase
from .paths import PathBuf
from .tree import Credential, Dentry, DirTree


class FullPathCache(_ResolverBase):
    def __init__(self, tree: DirTree):
        super().__init__(tree)
        self._entries: dict[str, tuple[int, int]] = {}  # path text -> (id, admitted credentials' exec bits)
        tree.register_hook(self._on_metadata)

    def _on_metadata(self, path: PathBuf, dentry: Dentry) -> None:
        # looked up per call, so a wrapper installed on the class sees it
        self.metrics.entries_touched += self.fp_invalidate_subtree(path, dentry)

    def lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        metrics = self.metrics
        metrics.lookups += 1
        key = path.text
        metrics.char_comparisons += len(key)  # probe hash scan
        entry = self._entries.get(key)
        if entry is not None and entry[1] & cred:
            metrics.char_comparisons += len(key)  # stored-key verification scan
            return entry[0]
        node_id = self.tree.lookup_original(path, cred, metrics)
        self._entries[key] = (node_id, cred | (entry[1] if entry else 0))
        return node_id

    def fp_invalidate_subtree(self, path: PathBuf, top: Dentry) -> int:
        """Evict the cached entry of every dentry in the subtree rooted at
        `top`, the dentry `path` names.

        Returns the number of dentries the walk touched, cached or not; entry
        removals are a subset.
        """
        touched = 0
        entries = self._entries
        for text, _d in self.tree.iter_subtree(path.text, top):
            entries.pop(text, None)
            touched += 1
        return touched

    @property
    def cached_entries(self) -> int:
        return len(self._entries)
