from __future__ import annotations

import collections
import hashlib
import random
import sys
import threading
import time

import pytest

from stagewalk import (
    DIR,
    FILE,
    AlreadyExists,
    Credential,
    EngineError,
    Metrics,
    NotADirectory,
    NotFound,
    PathBuf,
    PermissionDenied,
    StageLookupEngine,
    Unsupported,
    DirTree,
    SIX_LEVEL_PRESET,
    build_pool,
    gen_tree,
)
from stagewalk.locks import NullRWLock, RWLock
from conftest import TRAV_BIT, make_node, make_tree, mkpath, oracle_resolve, outcome, path_of, reference_walk

OWNER = Credential.OWNER


# -- create_node ----------------------------------------------------------------


def test_create_masks_mode_as_chmod_does():
    tree = DirTree()
    for name, mode in (("x", -1), ("y", 0o7777)):
        assert tree.nodes[tree.create_node(mkpath("/"), name, DIR, mode)].mode == 0o777


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
    # record the dentry visible at the OLD path while the hook runs, and the one it was passed
    tree.register_hook(lambda path, dentry: seen.append((path.text, tree._resolve_admin(path), dentry)))
    tree.rename_node(mkpath("/a/b"), mkpath("/a/c"))
    moved = tree._resolve_admin(mkpath("/a/c"))
    assert seen == [("/a/b", moved, moved)]


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
    live = [d for d in tree.nodes[1:] if d.parent is not None and not d.dead]
    dead = [d for d in tree.nodes[1:] if d.dead]
    assert dead
    for d in live:
        assert d.parent.children[d.name] is d
    mapped = [c for d in tree.nodes[1:] if d.children for c in d.children.values()]
    assert not any(c.dead for c in mapped)
    assert len(mapped) == len(live)


def test_iter_subtree_spells_each_live_dentry_under_its_top():
    """After a rename, an unlink and a create, a walk from the root and one
    from an inner directory yield each live dentry under their top once,
    with the text `path_of` spells for it; the root's is "/"."""
    tree = make_tree("/a/b/c", "/a/d", "/x/y", files=("/a/b/c/f", "/x/y/g", "/x/y/h"))
    tree.rename_node(mkpath("/a/b/c"), mkpath("/x/c"))
    tree.unlink_node(mkpath("/x/y/h"))
    tree.create_node(mkpath("/x/c"), "n", FILE, 0o644)

    def under(d, top):
        while d is not None and d is not top:
            d = d.parent
        return d is top

    for top_text, size in (("/", 10), ("/x", 6)):
        top = tree._resolve_admin(mkpath(top_text))
        walked = list(tree.iter_subtree(top_text, top))
        assert walked[0] == (top_text, top) and len(walked) == size
        assert all(text == path_of(d).text for text, d in walked)
        live = [d for d in tree.nodes[1:] if not d.dead and under(d, top)]
        assert sorted(d.id for _text, d in walked) == sorted(d.id for d in live)
    assert {text for text, _d in tree.iter_subtree("/", tree.root)} >= {"/", "/x/c/f", "/x/c/n"}


def test_dead_and_kind_follow_the_children_maps_randomized():
    """Random creates, mkdirs, renames and unlinks on small trees, with
    names from a small set, so a name is unlinked and created again and a
    rename lands on a freed name: after every step each dentry is dead
    exactly when its id is in the reference set of unlinked ids, and keeps
    the kind it was created with."""
    rng = random.Random(2206)
    seen = collections.Counter()
    for _trial in range(40):
        tree = DirTree()
        kinds = {tree.root.id: DIR}
        unlinked: set[int] = set()
        freed: set[tuple[int, str]] = set()  # (parent id, name) a dentry has left
        for _step in range(60):
            live = [d for d in tree.nodes[1:] if d.id not in unlinked]
            dirs = [d for d in live if kinds[d.id] == DIR]
            name = rng.choice(("a", "b", "c"))
            roll = rng.random()
            try:
                if roll < 0.45:
                    parent, kind = rng.choice(dirs), rng.choice((DIR, FILE))
                    slot = (parent.id, name)
                    kinds[tree.create_node(path_of(parent), name, kind, 0o755)] = kind
                    seen["created again" if slot in freed else "created"] += 1
                elif roll < 0.7 and len(live) > 1:
                    d, new_parent = rng.choice(live[1:]), rng.choice(dirs)
                    old_slot, slot = (d.parent.id, d.name), (new_parent.id, name)
                    target = PathBuf(path_of(new_parent).components + (name,))
                    tree.rename_node(path_of(d), target)
                    freed.add(old_slot)
                    seen["renamed onto a freed name" if slot in freed else "renamed"] += 1
                elif len(live) > 1:
                    d = rng.choice(live[1:])
                    tree.unlink_node(path_of(d))
                    unlinked.add(d.id)
                    freed.add((d.parent.id, d.name))
                    seen["unlinked"] += 1
            except EngineError:
                seen["refused"] += 1
            for d in tree.nodes[1:]:
                assert d.dead is (d.id in unlinked), d
                assert d.kind == kinds[d.id], d
    assert all(seen[k] >= 20 for k in ("created", "created again", "renamed", "renamed onto a freed name",
                                        "unlinked", "refused")), seen


def test_a_dentry_has_six_slots():
    # kind and dead are read off the children maps and heat is the candidate
    # set's; a seventh field would grow each of the preset tree's 211,111
    # dentries by 8 bytes
    class Six:
        __slots__ = tuple("abcdef")

    tree = make_tree(files=("/a/f",))
    for path in ("/a", "/a/f"):
        assert sys.getsizeof(tree._resolve_admin(mkpath(path))) == sys.getsizeof(Six())


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


# names of different lengths, so a count that misses or doubles one shows
_COUNTED_FILES = ("/ab/cde/f/gh/ij", "/ab/cde/x")


def counted_walk(path: str, start: str = "/", chmod: str | None = None, walks: int = 1):
    """Walk `path` from the dentry at `start` (a pivot's component, as in
    Stage Two, when not the root), after stripping traversal from `chmod`;
    returns the outcome, `dentries_visited` and `char_comparisons`, all walks
    counted into one Metrics."""
    tree = make_tree(files=_COUNTED_FILES)
    if chmod is not None:
        tree.chmod_node(mkpath(chmod), 0o644)
    begin = tree._resolve_admin(mkpath(start))
    comps = mkpath(path).components[mkpath(start).depth :]
    text_len = sum(map(len, comps)) + len(comps)  # one '/' before each name
    m = Metrics()
    for _ in range(walks):
        res = outcome(tree.walk_from, begin, comps, OWNER, m, text_len)
    return res if res.startswith("err:") else "ok", m.dentries_visited, m.char_comparisons


def test_permission_denied_counts_the_resolved_prefix():
    # ab, cde and f resolved (two scans each); gh is never scanned
    assert counted_walk("/ab/cde/f/gh/ij", chmod="/ab/cde/f") == ("err:PermissionDenied", 3, 2 * (2 + 3 + 1))


def test_missing_middle_component_counts_its_hash_scan():
    assert counted_walk("/ab/zzzz/f") == ("err:NotFound", 1, 2 * 2 + 4)


def test_name_below_a_file_counts_its_hash_scan():
    assert counted_walk("/ab/cde/x/yy") == ("err:NotFound", 3, 2 * (2 + 3 + 1) + 2)


def test_failed_stage_two_walk_counts_only_below_the_pivot():
    assert counted_walk("/ab/cde/f/nope", start="/ab/cde") == ("err:NotFound", 1, 2 * 1 + 4)
    assert counted_walk("/ab/cde/f/gh", start="/ab/cde", chmod="/ab/cde/f") == ("err:PermissionDenied", 1, 2 * 1)
    # the pivot's own directory is checked before its first child is scanned
    assert counted_walk("/ab/cde/f", start="/ab/cde", chmod="/ab/cde") == ("err:PermissionDenied", 0, 0)


def test_walk_counts_accumulate_across_walks():
    assert counted_walk("/ab/cde/f/gh/ij") == ("ok", 5, 2 * (2 + 3 + 1 + 2 + 2))
    # visits and chars add up per walk
    assert counted_walk("/ab/zzzz/f", walks=3) == ("err:NotFound", 3, 3 * (2 * 2 + 4))
    walked = counted_walk("/ab/cde/f/gh", start="/ab/cde", chmod="/ab/cde/f", walks=2)
    assert walked == ("err:PermissionDenied", 2, 2 * 2)


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
                tree.rename_node(mkpath(src), mkpath(f"{src.rpartition('/')[0]}/r{i}"))
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


# -- dentries by id -------------------------------------------------------------------

# sha256 of the 211,111-node preset's canonical_dump() while `nodes` was a dict
_PRESET_DUMP_SHA256 = "1a4fcb4f5e82dcdc0dc74955b4bdd1503e5c9645e4a892c164a0f48ac7950a2d"


@pytest.fixture(scope="module")
def preset():
    return gen_tree(SIX_LEVEL_PRESET)


def test_node_returns_none_only_for_ids_never_issued():
    tree = make_tree("/a", files=("/a/f",))
    f = tree._resolve_admin(mkpath("/a/f"))
    assert tree.nodes[0] is None and tree.nodes[1] is tree.root
    assert all(d is not None and d.id == i for i, d in enumerate(tree.nodes) if i)
    count = len(tree.nodes)
    tree.unlink_node(mkpath("/a/f"))
    assert tree.nodes[f.id] is f and f.dead  # an unlinked dentry keeps its slot
    assert tree.create_node(mkpath("/a"), "f", FILE, 0o644) == count  # and its id is not issued again


def test_preset_dump_unchanged(preset):
    assert hashlib.sha256(preset.canonical_dump().encode()).hexdigest() == _PRESET_DUMP_SHA256


def test_preset_stores_each_name_once(preset):
    # five levels of ten directory names plus the leaf's one: 211,110 dentries, 51 strings
    non_root = preset.nodes[2:]
    assert len(non_root) == 211_110
    assert len({id(d.name) for d in non_root}) == len({d.name for d in non_root}) == 51


class _YieldingWriteLock(RWLock):
    def acquire_write(self) -> None:
        super().acquire_write()
        time.sleep(0.0001)


def test_walkers_racing_create_node_resolve_every_new_id():
    # two walkers share one Metrics and aim at names the creator has not made
    # yet; the creator yields while it holds the write lock, so a walk often
    # waits for the lock and then resolves an id issued while it waited
    tree = make_tree(threadsafe=True)
    tree.lock = _YieldingWriteLock()
    m = Metrics()
    total = 1000
    made = [0]
    issued: dict[int, int] = {}  # name index -> the id create_node returned
    done = threading.Event()
    returned: list[set[tuple[int, int]]] = [set(), set()]
    errors: list[BaseException] = []

    def create():
        try:
            for i in range(total):
                issued[i] = tree.create_node(mkpath("/"), f"n{i}", FILE, 0o644)
                made[0] = i + 1
        finally:
            done.set()

    def walk(ids: set[tuple[int, int]]):
        try:
            while not done.is_set():
                k = made[0]
                for i in range(k, k + 4):
                    try:
                        ids.add((i, tree.lookup_original(mkpath(f"/n{i}"), OWNER, m)))
                    except NotFound:
                        pass
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=walk, args=(ids,)) for ids in returned]
    threads.append(threading.Thread(target=create))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    seen = returned[0] | returned[1]
    assert seen  # the walkers did resolve new names
    assert all(issued[i] == node_id for i, node_id in seen)


# -- walk_from against the per-component reference ------------------------------------

# names of lengths 1-4, so a count that misses or doubles one shows
_WALK_NAMES = ("a", "bb", "ccc", "dddd", "e", "fg")
_DIR_MODES = (0o755, 0o755, 0o755, 0o750, 0o705, 0o700, 0o055, 0o000)
_FILE_MODES = (0o644, 0o755, 0o000)


def _random_walk_tree(rng: random.Random):
    """A random tree whose modes deny traversal to each credential at some
    directories, the root included, and whose files sometimes carry exec bits."""
    tree = DirTree()
    dentries = [tree.root]
    dirs = [tree.root]
    for _ in range(rng.randint(8, 50)):
        parent = rng.choice(dirs)
        name = rng.choice(_WALK_NAMES)
        if name in parent.children:
            continue
        kind = FILE if rng.random() < 0.35 else DIR
        mode = rng.choice(_FILE_MODES if kind == FILE else _DIR_MODES)
        d = tree.nodes[tree.create_node(path_of(parent), name, kind, mode)]
        dentries.append(d)
        if kind == DIR:
            dirs.append(d)
    tree.chmod_node(mkpath("/"), rng.choice((0o755, 0o700, 0o750, 0o000)))
    return tree, dentries


def _random_components(rng: random.Random, start) -> tuple[str, ...]:
    """Names below `start`: mostly existing children, sometimes a missing
    name (then maybe more names), sometimes a name below a file."""
    names: list[str] = []
    cur = start
    for _ in range(rng.randint(0, 7)):
        if cur is not None and cur.children and rng.random() < 0.85:
            name = rng.choice(sorted(cur.children))
            cur = cur.children[name]
        else:
            name = rng.choice(("zz", "q", "rrr"))  # never a child's name
            cur = None
        names.append(name)
    return tuple(names)


def _walk_result(walk, *args):
    try:
        return ("ok", walk(*args).id)
    except (NotFound, PermissionDenied) as exc:
        return (type(exc).__name__, str(exc))


def test_walk_matches_reference_randomized():
    rng = random.Random(1818)
    cases: set[str] = set()
    for _ in range(120):
        tree, dentries = _random_walk_tree(rng)
        ref_m, new_m = Metrics(), Metrics()
        for _ in range(40):
            start = tree.root if rng.random() < 0.5 else rng.choice(dentries)
            comps = _random_components(rng, start)
            text_len = sum(map(len, comps)) + len(comps)  # one '/' before each name
            for cred in Credential:
                before = ref_m.dentries_visited
                want = _walk_result(reference_walk, tree, start, comps, cred, ref_m)
                got = _walk_result(tree.walk_from, start, comps, cred, new_m, text_len)
                assert got == want, (path_of(start), comps, cred)
                assert (new_m.dentries_visited, new_m.char_comparisons) == (
                    ref_m.dentries_visited,
                    ref_m.char_comparisons,
                ), (path_of(start), comps, cred)
                resolved = ref_m.dentries_visited - before
                inner = "inner" if start is not tree.root else "root"
                if want[0] == "PermissionDenied":
                    cases.add(f"denied-{inner}-after-{resolved}")
                elif want[0] == "NotFound":
                    below = tree.nodes[_walk_result(reference_walk, tree, start, comps[:resolved], cred)[1]]
                    where = "below-file" if below.children is None else "missing"
                    cases.add(f"{where}-{'middle' if resolved + 1 < len(comps) else 'last'}")
                else:
                    cases.add(f"ok-{inner}")
                if start is tree.root and resolved and not tree.root.mode & TRAV_BIT[cred]:
                    cases.add("through-denying-root")
    expected = {"ok-root", "ok-inner", "through-denying-root"}
    expected |= {f"{w}-{p}" for w in ("missing", "below-file") for p in ("middle", "last")}
    expected |= {f"denied-root-after-{k}" for k in range(1, 6)}
    expected |= {f"denied-inner-after-{k}" for k in range(0, 4)}
    assert expected <= cases, sorted(expected - cases)


def _walk_c_calls(fn, *args):
    """fn(*args), and the C functions that the walk's own frames (walk_from's
    and lookup_original's) called, by qualified name."""
    walk_codes = {DirTree.walk_from.__code__, DirTree.lookup_original.__code__}
    called: list[str] = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code in walk_codes:
            called.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, called


# the loop subscripts the children maps, and a resolved walk counts its chars
# from the text's length: neither str.join nor dict.get is called
@pytest.mark.parametrize("text, counts", [("/ab/cde/f/gh/ij", (5, 2 * 10)), ("/", (0, 0))])
def test_root_walk_counts_without_join_or_get(text, counts):
    tree = make_tree(files=_COUNTED_FILES)
    path = PathBuf.parse(text)
    m, ref = Metrics(), Metrics()
    got, called = _walk_c_calls(tree.lookup_original, path, OWNER, m)
    assert got == reference_walk(tree, tree.root, path.components, OWNER, ref).id
    assert (m.dentries_visited, m.char_comparisons) == (ref.dentries_visited, ref.char_comparisons) == counts
    assert "str.join" not in called and "dict.get" not in called, called


def test_stage_two_walk_counts_without_join_or_get():
    tree = make_tree(files=_COUNTED_FILES)
    engine = StageLookupEngine(tree)
    engine.manager.publish_pool(build_pool({tree._resolve_admin(mkpath("/ab/cde")): 0}, 16))
    path = PathBuf.parse("/ab/cde/f/gh/ij")
    used: list = []
    got, called = _walk_c_calls(engine.lookup, path, OWNER, used)
    (pivot, depth), = used  # a Stage Two walk from /ab/cde
    assert depth == 2
    ref = Metrics()
    assert got == reference_walk(tree, pivot.components[1].node, path.components[2:], OWNER, ref).id
    scan_chars = engine._stats.char_comparisons  # Stage One's, which the engine adds first
    assert engine.metrics.dentries_visited == ref.dentries_visited == 3
    assert engine.metrics.char_comparisons - scan_chars == ref.char_comparisons == 2 * 5
    assert "str.join" not in called and "dict.get" not in called, called


def _count_calls(monkeypatch, cls, counts: dict[str, int]) -> None:
    for name in ("acquire_read", "release_read"):
        original = getattr(cls, name)

        def counted(self, _name=name, _original=original):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, name, counted)


def test_single_threaded_walk_makes_no_lock_call(monkeypatch):
    tree = make_tree(files=_COUNTED_FILES)
    tree.chmod_node(mkpath("/ab/cde/f"), 0o644)
    counts = {"acquire_read": 0, "release_read": 0}
    _count_calls(monkeypatch, NullRWLock, counts)
    for path in ("/ab/cde/x", "/ab/zzzz", "/ab/cde/x/yy", "/ab/cde/f/gh", "/"):
        outcome(tree.lookup_original, mkpath(path), OWNER, Metrics())
    assert counts == {"acquire_read": 0, "release_read": 0}


def test_threadsafe_walk_takes_one_read_lock_per_walk(monkeypatch):
    tree = make_tree(files=_COUNTED_FILES, threadsafe=True)
    tree.chmod_node(mkpath("/ab/cde/f"), 0o644)
    counts = {"acquire_read": 0, "release_read": 0}
    _count_calls(monkeypatch, RWLock, counts)
    walks = (
        ("/ab/cde/x", "ok"),
        ("/ab/zzzz", "err:NotFound"),
        ("/ab/cde/x/yy", "err:NotFound"),
        ("/ab/cde/f/gh", "err:PermissionDenied"),
        ("/", "ok"),
    )
    for n, (path, want) in enumerate(walks, 1):
        assert outcome(tree.lookup_original, mkpath(path), OWNER, Metrics()).startswith(want)
        assert counts == {"acquire_read": n, "release_read": n}
