from __future__ import annotations

import random

import pytest

from stagewalk import DIR, FILE, Credential, EngineError, FullPathCache, NotFound, OriginalLookup
from conftest import make_node, make_tree, mkpath, oracle_resolve, outcome, path_of

OWNER = Credential.OWNER


def test_warm_hit_two_scans_no_visits():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    cache = FullPathCache(tree)
    p = mkpath("/a0/b0/c0/d0/e0/f0/g0/h0")
    cache.lookup(p)  # cold fill
    visited0, chars0 = cache.metrics.dentries_visited, cache.metrics.char_comparisons
    nid = cache.lookup(p)  # warm
    assert nid == tree._resolve_admin(p).id
    assert cache.metrics.dentries_visited - visited0 == 0
    assert cache.metrics.char_comparisons - chars0 == 2 * len(p.text)  # exactly two full-path scans


def test_cold_path_costs_walk_plus_probe():
    tree = make_tree(files=("/a/b/f",))
    cache = FullPathCache(tree)
    baseline = OriginalLookup(tree)
    p = mkpath("/a/b/f")
    baseline.lookup(p)
    cache.lookup(p)
    assert cache.metrics.dentries_visited == baseline.metrics.dentries_visited
    # cold cost = the probe's single full-path scan + the dual-scan walk
    assert cache.metrics.char_comparisons == baseline.metrics.char_comparisons + len(p.text)


def test_target_chmod_evicts_its_entry():
    tree = make_tree(files=("/a/b/f",))
    cache = FullPathCache(tree)
    p = mkpath("/a/b/f")
    cache.lookup(p)
    tree.chmod_node(p, 0o600)  # the hook evicts the entry
    visited0 = cache.metrics.dentries_visited
    nid = cache.lookup(p)
    assert nid == tree._resolve_admin(p).id
    assert cache.metrics.dentries_visited - visited0 == 3  # the evicted entry forced a full walk


def test_rename_leaf_touches_one():
    tree = make_tree("/a", files=("/a/f",))
    cache = FullPathCache(tree)
    touched0 = cache.metrics.entries_touched
    tree.rename_node(mkpath("/a/f"), mkpath("/a/g"))
    assert cache.metrics.entries_touched - touched0 == 1


def test_rename_subtree_touch_count_matches_enumeration_oracle():
    tree = make_tree()
    rng = random.Random(8)
    for _ in range(120):
        depth = rng.randint(1, 4)
        p = "/" + "/".join(f"{chr(ord('a') + d)}{rng.randint(0, 3)}" for d in range(depth))
        try:
            make_node(tree, p)
        except Exception:
            pass
    cache = FullPathCache(tree)
    top = mkpath("/a0")
    want = sum(1 for _ in tree.iter_subtree(top.text, tree._resolve_admin(top)))
    touched0 = cache.metrics.entries_touched
    tree.rename_node(top, mkpath("/zz"))
    assert cache.metrics.entries_touched - touched0 == want


def test_empty_cache_still_counts_whole_subtree():
    tree = make_tree("/a/b/c")
    cache = FullPathCache(tree)
    assert cache.cached_entries == 0
    touched = cache.fp_invalidate_subtree(mkpath("/a"), tree._resolve_admin(mkpath("/a")))
    assert touched == 3  # a, b, c walked despite zero entry removals


def test_stale_entries_not_served_after_ancestor_rename():
    tree = make_tree("/a/b", files=("/a/b/f",))
    cache = FullPathCache(tree)
    cache.lookup(mkpath("/a/b/f"))
    tree.rename_node(mkpath("/a/b"), mkpath("/a/c"))
    assert outcome(cache.lookup, mkpath("/a/b/f"), OWNER) == "err:NotFound"
    assert outcome(cache.lookup, mkpath("/a/c/f"), OWNER).startswith("ok:")


def test_unlinked_entry_not_served_and_recreated_name_resolves_anew():
    # the unlink hook pops the entry, so no dead-node test is needed on a hit
    tree = make_tree("/a", files=("/a/f",))
    cache = FullPathCache(tree)
    p = mkpath("/a/f")
    old_id = cache.lookup(p)
    tree.unlink_node(p)
    with pytest.raises(NotFound):
        cache.lookup(p)
    new_id = tree.create_node(mkpath("/a"), "f", FILE, 0o644)
    assert new_id != old_id
    assert cache.lookup(p) == new_id
    assert cache.lookup(p) == new_id  # warm again


@pytest.mark.parametrize("cred", list(Credential), ids=lambda c: c.name.lower())
def test_randomized_equivalence_with_original(cred):
    rng = random.Random(13)
    tree = make_tree()
    paths = []
    for _ in range(150):
        depth = rng.randint(1, 5)
        p = "/" + "/".join(f"{chr(ord('a') + d)}{rng.randint(0, 4)}" for d in range(depth))
        try:
            make_node(tree, p)
            paths.append(p)
        except Exception:
            pass
    cache = FullPathCache(tree)
    baseline = OriginalLookup(tree)
    for step in range(3000):
        roll = rng.random()
        if roll < 0.05:
            src = rng.choice(paths)
            try:
                tree.rename_node(mkpath(src), mkpath(f"{src.rpartition('/')[0]}/r{step}"))
            except Exception:
                pass
        elif roll < 0.10:
            try:
                tree.chmod_node(mkpath(rng.choice(paths)), rng.choice([0o755, 0o750, 0o700, 0o644]))
            except Exception:
                pass
        else:
            p = mkpath(rng.choice(paths))
            got = outcome(cache.lookup, p, cred)
            assert got == outcome(baseline.lookup, p, cred) == oracle_resolve(tree, p, cred), (step, p.text)


def test_every_cached_path_resolves_to_its_id_under_random_churn():
    """Eviction is the cache's only invalidation. After every create, mkdir,
    rename, chmod and unlink, each cached path still resolves to the id
    cached for it, its bits admit exactly the credentials the oracle
    admits, and every lookup matches the oracle. One cache serves all three
    credentials."""
    rng = random.Random(29)
    tree = make_tree()
    for _ in range(60):
        depth = rng.randint(1, 4)
        make_node(tree, "/" + "/".join(f"{chr(ord('a') + d)}{rng.randint(0, 2)}" for d in range(depth)))
    cache = FullPathCache(tree)
    ever = set()  # every path that has named a node, so lookups also miss
    for step in range(1500):
        live = sorted(path_of(d).text for d in tree.nodes[2:] if not d.dead)
        ever.update(live)
        p = mkpath(rng.choice(live))
        roll = rng.random()
        try:
            if roll < 0.04:
                tree.create_node(p, f"n{step}", rng.choice((DIR, FILE)), 0o755)
            elif roll < 0.08:
                tree.rename_node(p, mkpath(f"{rng.choice(live)}/r{step}"))
            elif roll < 0.12:
                tree.chmod_node(p, rng.choice([0o755, 0o751, 0o750, 0o711, 0o700, 0o644]))
            elif roll < 0.15:
                tree.unlink_node(p)
            else:
                q = mkpath(rng.choice(sorted(ever)))
                for cred in Credential:
                    assert outcome(cache.lookup, q, cred) == oracle_resolve(tree, q, cred), (step, q.text, cred)
        except EngineError:
            pass  # a mutation the tree refuses changes nothing
        for text, (node_id, bits) in cache._entries.items():
            resolved = outcome(lambda t: tree._resolve_admin(mkpath(t)).id, text)
            assert resolved == f"ok:{node_id}", (step, text)
            for cred in Credential:
                admitted = oracle_resolve(tree, mkpath(text), cred) == resolved
                assert bool(bits & cred) == admitted, (step, text, cred)


# the root's mode never gates the walk, so it never decides a credential's bit
@pytest.mark.parametrize(
    "root_mode, mode, admitted", [(0o755, 0o700, False), (0o755, 0o711, True), (0o700, 0o711, True)]
)
def test_owner_warmed_entry_answers_group_and_other_as_the_walk_does(root_mode, mode, admitted):
    """An entry learns a credential's bit from that credential's own walk:
    an admitted credential misses once and then hits, a refused one is
    refused by the walk and adds nothing, and the owner keeps hitting."""
    tree = make_tree(files=("/a/b/f",))
    tree.chmod_node(mkpath("/"), root_mode)
    tree.chmod_node(mkpath("/a"), mode)
    cache = FullPathCache(tree)
    p = mkpath("/a/b/f")
    nid = tree._resolve_admin(p).id
    probe, walk, hit = len(p.text), 2 * len("abf"), 2 * len(p.text)

    def counted(cred):
        visited0, chars0 = cache.metrics.dentries_visited, cache.metrics.char_comparisons
        got = outcome(cache.lookup, p, cred)
        return got, cache.metrics.dentries_visited - visited0, cache.metrics.char_comparisons - chars0

    assert counted(OWNER) == (f"ok:{nid}", 3, probe + walk)  # the fill
    bits = OWNER
    for cred in (Credential.GROUP, Credential.OTHER):
        if admitted:
            assert oracle_resolve(tree, p, cred) == f"ok:{nid}"
            assert counted(cred) == (f"ok:{nid}", 3, probe + walk)  # a miss: the probe, then the walk
            assert counted(cred) == (f"ok:{nid}", 0, hit)  # the walk taught the entry this bit
            bits |= cred
        else:
            # the walk from the root is stopped below /a: one visit, /a's two scans
            assert oracle_resolve(tree, p, cred) == "err:PermissionDenied"
            assert counted(cred) == ("err:PermissionDenied", 1, probe + 2 * 1)
        assert cache._entries[p.text] == (nid, bits)
        assert counted(OWNER) == (f"ok:{nid}", 0, hit)
