from __future__ import annotations

import random

import pytest

from stagewalk import (
    DIR,
    FILE,
    AlreadyExists,
    Credential,
    Metrics,
    NotADirectory,
    NotFound,
    PermissionDenied,
    Unsupported,
    DirTree,
)
from conftest import make_node, make_tree, mkpath, oracle_resolve, outcome

OWNER = Credential.OWNER


# -- create_node ----------------------------------------------------------------


def test_create_masks_mode_as_chmod_does():
    tree = DirTree()
    for name, mode in (("x", -1), ("y", 0o7777)):
        assert tree.node(tree.create_node(mkpath("/"), name, DIR, mode)).mode == 0o777


def test_create_then_lookup():
    tree = DirTree()
    nid = tree.create_node(mkpath("/"), "a1", DIR, 0o755)
    assert tree.lookup_original(mkpath("/a1"), OWNER, Metrics()) == nid


def test_create_under_missing_parent():
    tree = DirTree()
    with pytest.raises(NotFound):
        tree.create_node(mkpath("/missing"), "x", DIR, 0o755)


def test_create_duplicate_sibling():
    tree = make_tree("/a1")
    with pytest.raises(AlreadyExists):
        tree.create_node(mkpath("/"), "a1", DIR, 0o755)


def test_create_under_file():
    tree = make_tree(files=("/f",))
    with pytest.raises(NotADirectory):
        tree.create_node(mkpath("/f"), "x", FILE, 0o644)


# -- lookup_original ---------------------------------------------------------------


def test_lookup_depth8_visits_each_component():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    m = Metrics()
    tree.lookup_original(mkpath("/a0/b0/c0/d0/e0/f0/g0/h0"), OWNER, m)
    assert m.dentries_visited == 8
    # dual-scan rule: every resolved component scanned twice
    assert m.char_comparisons == 2 * sum(len(c) for c in mkpath("/a0/b0/c0/d0/e0/f0/g0/h0").components)


def test_lookup_root_identity():
    tree = DirTree()
    m = Metrics()
    assert tree.lookup_original(mkpath("/"), OWNER, m) == tree.root.id
    assert m.dentries_visited == 0


def test_permission_denied_after_three_visits():
    tree = make_tree(files=("/a/b/c/d/e",))
    tree.chmod_node(mkpath("/a/b/c"), 0o644)  # strip traversal on the 3rd component
    m = Metrics()
    with pytest.raises(PermissionDenied):
        tree.lookup_original(mkpath("/a/b/c/d/e"), OWNER, m)
    assert m.dentries_visited == 3
    # the independent walk agrees on the error class
    assert oracle_resolve(tree, mkpath("/a/b/c/d/e"), OWNER) == "err:PermissionDenied"


def test_lookup_is_pure():
    tree = make_tree(files=("/a/b/c",))
    p = mkpath("/a/b/c")
    m1, m2 = Metrics(), Metrics()
    r1 = tree.lookup_original(p, OWNER, m1)
    r2 = tree.lookup_original(p, OWNER, m2)
    assert r1 == r2
    assert (m1.dentries_visited, m1.char_comparisons) == (m2.dentries_visited, m2.char_comparisons)


# -- rename ----------------------------------------------------------------------


def test_rename_same_parent():
    tree = make_tree("/a/b", files=("/a/b/x",))
    tree.rename_node(mkpath("/a/b"), mkpath("/a/c"))
    m = Metrics()
    assert tree.lookup_original(mkpath("/a/c/x"), OWNER, m)
    with pytest.raises(NotFound):
        tree.lookup_original(mkpath("/a/b/x"), OWNER, m)


def test_rename_across_parents():
    tree = make_tree("/a/b", "/d", files=("/a/b/x",))
    tree.rename_node(mkpath("/a/b"), mkpath("/d/b"))
    assert tree.lookup_original(mkpath("/d/b/x"), OWNER, Metrics())


def test_rename_root_unsupported():
    tree = make_tree("/a")
    with pytest.raises(Unsupported):
        tree.rename_node(mkpath("/"), mkpath("/r"))


def test_rename_into_own_subtree_refused():
    tree = make_tree("/a/b/c")
    with pytest.raises(Unsupported):
        tree.rename_node(mkpath("/a"), mkpath("/a/b/c/a"))


def test_rename_to_existing_name():
    tree = make_tree("/a", "/b")
    with pytest.raises(AlreadyExists):
        tree.rename_node(mkpath("/a"), mkpath("/b"))


def test_rename_hooks_fire_before_mutation():
    tree = make_tree("/a/b")
    seen = []
    # record the node id visible at the OLD path while the hook runs
    tree.register_hook(lambda path: seen.append((path.text, tree._resolve_admin(path).id)))
    tree.rename_node(mkpath("/a/b"), mkpath("/a/c"))
    moved = tree._resolve_admin(mkpath("/a/c"))
    assert seen == [("/a/b", moved.id)]


# -- chmod -----------------------------------------------------------------------


def test_chmod_blocks_and_restores():
    tree = make_tree(files=("/a/b/x",))
    tree.chmod_node(mkpath("/a"), 0o644)
    with pytest.raises(PermissionDenied):
        tree.lookup_original(mkpath("/a/b/x"), OWNER, Metrics())
    tree.chmod_node(mkpath("/a"), 0o755)
    assert tree.lookup_original(mkpath("/a/b/x"), OWNER, Metrics())


def test_chmod_missing_path():
    tree = DirTree()
    with pytest.raises(NotFound):
        tree.chmod_node(mkpath("/nope"), 0o700)


def test_chmod_file_leaf_only_leaf_effects():
    tree = make_tree(files=("/a/b/x",))
    tree.chmod_node(mkpath("/a/b/x"), 0o000)
    # file modes never gate traversal; resolution of the leaf and its siblings
    # must agree with the independent walk for every class
    for cred in Credential:
        assert outcome(tree.lookup_original, mkpath("/a/b/x"), cred, Metrics()) == oracle_resolve(
            tree, mkpath("/a/b/x"), cred
        )
        assert outcome(tree.lookup_original, mkpath("/a/b"), cred, Metrics()) == oracle_resolve(
            tree, mkpath("/a/b"), cred
        )


def test_per_class_traversal_bits():
    tree = make_tree(files=("/a/b/x",))
    tree.chmod_node(mkpath("/a"), 0o750)  # owner+group traverse, other denied
    assert outcome(tree.lookup_original, mkpath("/a/b/x"), Credential.OWNER, Metrics()).startswith("ok:")
    assert outcome(tree.lookup_original, mkpath("/a/b/x"), Credential.GROUP, Metrics()).startswith("ok:")
    assert outcome(tree.lookup_original, mkpath("/a/b/x"), Credential.OTHER, Metrics()) == "err:PermissionDenied"


# -- unlink ----------------------------------------------------------------------


def test_unlink_leaf():
    tree = make_tree(files=("/a/x",))
    tree.unlink_node(mkpath("/a/x"))
    with pytest.raises(NotFound):
        tree.lookup_original(mkpath("/a/x"), OWNER, Metrics())


def test_unlink_nonempty_refused():
    tree = make_tree("/a/b")
    with pytest.raises(Unsupported):
        tree.unlink_node(mkpath("/a"))


# -- invariants ---------------------------------------------------------------------


def test_children_maps_are_the_only_index():
    tree = make_tree("/a/b/c", "/a/b/d", "/x/y", files=("/a/b/c/f", "/x/y/g", "/x/y/h"))
    tree.rename_node(mkpath("/a/b/c"), mkpath("/a/b/e"))  # within a parent
    tree.rename_node(mkpath("/a/b/d"), mkpath("/x/d"))  # across parents
    tree.unlink_node(mkpath("/x/y/h"))  # a leaf
    live = [d for d in tree.nodes.values() if d.parent is not None and not d.dead]
    dead = [d for d in tree.nodes.values() if d.dead]
    assert dead
    for d in live:
        assert d.parent.children[d.name] is d
    mapped = [c for d in tree.nodes.values() if d.children for c in d.children.values()]
    assert not any(c.dead for c in mapped)
    assert len(mapped) == len(live)


def test_missing_name_below_a_file_or_directory_counts_one_hash_scan():
    tree = make_tree(files=("/a/b/x",))
    tree.chmod_node(mkpath("/a/b/x"), 0o000)  # a file's mode never gates the walk
    for cred in Credential:
        m = Metrics()
        assert outcome(tree.lookup_original, mkpath("/a/b/x/y"), cred, m) == "err:NotFound"
        assert (m.dentries_visited, m.char_comparisons) == (3, 7)
    m = Metrics()
    assert outcome(tree.lookup_original, mkpath("/a/zz/q"), OWNER, m) == "err:NotFound"
    assert (m.dentries_visited, m.char_comparisons) == (1, 4)


def test_agrees_with_oracle_after_mutations():
    rng = random.Random(99)
    tree = DirTree()
    paths = []
    for i in range(200):
        depth = rng.randint(1, 5)
        comps = [f"{chr(ord('a') + d)}{rng.randint(0, 5)}" for d in range(depth)]
        p = "/" + "/".join(comps)
        try:
            make_node(tree, p, FILE if rng.random() < 0.3 and depth > 1 else DIR)
        except NotADirectory:
            continue  # tried to extend below an existing file
        paths.append(p)
    # churn: renames and chmods
    for i in range(100):
        if rng.random() < 0.5:
            src = rng.choice(paths)
            try:
                tree.rename_node(mkpath(src), mkpath(src).parent().child(f"r{i}"))
            except Exception:
                pass
        else:
            try:
                tree.chmod_node(mkpath(rng.choice(paths)), rng.choice([0o755, 0o700, 0o644, 0o711]))
            except Exception:
                pass
    universe = paths + ["/" + "/".join(f"{chr(ord('a') + d)}{rng.randint(0, 6)}" for d in range(rng.randint(1, 6))) for _ in range(50)]
    for _ in range(2000):
        p = mkpath(rng.choice(universe))
        cred = rng.choice(list(Credential))
        assert outcome(tree.lookup_original, p, cred, Metrics()) == oracle_resolve(tree, p, cred)
