"""Full-path-indexed directory cache baseline.

Lookups hash the whole canonical path into a map; a hit is served only if the
entry's stored version matches the target dentry's current version. Any
rename/chmod/unlink of a node bumps the version of every dentry in its
subtree and evicts the cached entries under that prefix, which is exactly the
cost asymmetry this baseline exists to expose: invalidation work grows with
the subtree while the pivot scheme touches at most a pool's worth of entries.

Cost accounting (deterministic): every probe scans the full path once (hash);
a map hit pays a second scan to verify the stored key; a stale hit pays both
scans and then the fallback walk's usual two scans per component; inserts
reuse the probe hash.
"""

from __future__ import annotations

from .engine import _ResolverBase
from .errors import NotFound
from .paths import PathBuf
from .tree import Credential, DirTree


class FullPathCache(_ResolverBase):
    def __init__(self, tree: DirTree):
        super().__init__(tree)
        self._entries: dict[str, tuple[int, int]] = {}
        self._versions: list[int] = []  # by dentry id; an id past the end is at 0
        tree.register_hook(self._on_metadata)

    def _on_metadata(self, path: PathBuf) -> None:
        self.fp_invalidate_subtree(path)

    def fp_lookup(self, path: PathBuf, cred: Credential = Credential.OWNER) -> int:
        metrics = self.metrics
        metrics.lookups += 1
        key = path.text
        metrics.char_comparisons += len(key)  # probe hash scan
        entry = self._entries.get(key)
        if entry is not None:
            metrics.char_comparisons += len(key)  # stored-key verification scan
            node_id, version = entry
            versions = self._versions
            current = versions[node_id] if node_id < len(versions) else 0
            # no entry outlives its node's unlink: unlink_node first fires the
            # hook, which pops the entry under the node's path and bumps the
            # node's version, so an entry for it would fail this test too
            if current == version:
                return node_id
            del self._entries[key]  # out of date
        comps = path._components
        if comps is None:  # a hit splits nothing; the walk splits inline
            comps = path._components = tuple(key[1:].split("/"))
        tree = self.tree
        target = tree.walk_from(tree.root, comps, cred, metrics)
        versions = self._versions
        self._entries[key] = (target.id, versions[target.id] if target.id < len(versions) else 0)
        return target.id

    lookup = fp_lookup

    def fp_invalidate_subtree(self, path: PathBuf) -> int:
        """Bump versions across the subtree and evict its cached entries.

        Returns the number of dentries touched (the version bumps; entry
        removals are a subset). Unknown paths touch nothing.
        """
        try:
            top = self.tree._resolve_admin(path)
        except NotFound:
            return 0
        touched = 0
        stack = [(top, path.text)]
        versions = self._versions
        versions.extend([0] * (len(self.tree.nodes) - len(versions)))
        entries = self._entries
        while stack:
            d, text = stack.pop()
            versions[d.id] += 1
            entries.pop(text, None)
            touched += 1
            if d.children:
                prefix = text if text != "/" else ""
                stack.extend((c, f"{prefix}/{c.name}") for c in d.children.values())
        self.metrics.entries_touched += touched
        return touched

    @property
    def cached_entries(self) -> int:
        return len(self._entries)
