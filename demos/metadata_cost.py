"""Why directory renames hurt a full-path cache but not the pivot scheme.

Warms both caches over a fanout-10 tree, renames one top-level directory, and
prints how many entries each side had to touch: the full-path cache visits the
whole subtree to evict each cached path, the pivot pool drops at most a pool's
worth.
"""

from stagewalk import (
    FullPathCache,
    PathBuf,
    StageLookupEngine,
    TreeSpec,
    gen_tree,
)


def all_paths(tree):
    out, stack = [], [(tree.root, "")]
    while stack:
        d, text = stack.pop()
        if d.parent is not None:
            out.append(text)
        if d.children:
            stack.extend((c, f"{text}/{c.name}") for c in d.children.values())
    return out


tree = gen_tree(TreeSpec(levels=[10, 10, 10], seed=2))
cache = FullPathCache(tree)
engine = StageLookupEngine(tree, pool_size=16)

paths = all_paths(tree)
for text in paths:
    p = PathBuf.parse(text)
    cache.lookup(p)
    engine.stage_lookup(p)
engine.tick()

# heat a handful of files under the victim directory so pivots cover it
for i in range(8):
    for _ in range(3):
        engine.stage_lookup(PathBuf.parse(f"/a0/b{i}/c0/d0"))
engine.tick()

print(f"tree: {tree.node_count} nodes, cache warm with {cache.cached_entries} entries")
print(f"pivot pool: {engine.manager.working_pool.size} pivots")

fp0 = cache.metrics.entries_touched
st0 = engine.metrics.entries_touched
tree.rename_node(PathBuf.parse("/a0"), PathBuf.parse("/a0_moved"))

print("\nrename of /a0 (a tenth of the tree):")
print(f"  fullpath touched {cache.metrics.entries_touched - fp0} entries (whole subtree)")
print(f"  stage invalidated {engine.metrics.entries_touched - st0} pivots (bounded by the pool)")
