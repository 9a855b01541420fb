from __future__ import annotations

import collections
import dataclasses
import random
import sys
import threading

import pytest

from stagewalk import (
    DIR,
    FILE,
    STRATEGIES,
    ConfigError,
    ContractViolation,
    Credential,
    MetadataView,
    NotFound,
    OriginalLookup,
    PathBuf,
    PermissionDenied,
    StageLookupEngine,
    TreeSpec,
    build_pool,
    gen_tree,
    make_resolver,
)
from stagewalk import engine as engine_module
from stagewalk.fullpath import FullPathCache
from stagewalk.pivots import find_best_pivot
from conftest import TRAV_BIT, make_node, make_tree, mkpath, oracle_resolve, outcome, path_of

OWNER = Credential.OWNER


def engine_with_pool(tree, pivot_paths, pool_size=16, **kwargs):
    engine = StageLookupEngine(tree, pool_size=pool_size, **kwargs)
    cands = [tree._resolve_admin(mkpath(p)) for p in pivot_paths]
    engine.manager.publish_pool(build_pool(dict.fromkeys(cands, 0), pool_size))
    return engine


# -- the two walk shapes ------------------------------------------------------------


def test_forward_walk_from_pivot():
    # pivot at c1; target two components below it
    tree = make_tree("/a1/b1/c1/d1", files=("/a1/b1/c1/d1/foo",))
    engine = engine_with_pool(tree, ["/a1/b1/c1"])
    res = engine.stage_lookup(mkpath("/a1/b1/c1/d1/foo"))
    assert res.walked_components == 2
    assert res.rolled_up is False
    assert res.skipped_components == 3
    assert res.pivot_used == "/a1/b1/c1"
    assert res.target == tree._resolve_admin(mkpath("/a1/b1/c1/d1/foo")).id


def test_backward_rollup_to_ancestor():
    # pivot at d2, but the target branches off at its parent c2
    tree = make_tree("/a1/b1/c2/d2", "/a1/b1/c2/d3", files=("/a1/b1/c2/d3/bar",))
    engine = engine_with_pool(tree, ["/a1/b1/c2/d2"])
    res = engine.stage_lookup(mkpath("/a1/b1/c2/d3/bar"))
    assert res.rolled_up is True  # matched depth 3 < pivot depth 4
    assert res.skipped_components == 3  # start component is c2
    assert res.walked_components == 2  # d3, bar
    assert res.target == tree._resolve_admin(mkpath("/a1/b1/c2/d3/bar")).id


def test_empty_pool_identical_to_original():
    tree = make_tree(files=("/a1/b1/c1/f",))
    engine = StageLookupEngine(tree)
    baseline = OriginalLookup(tree)
    p = mkpath("/a1/b1/c1/f")
    res = engine.stage_lookup(p)
    assert res.pivot_used is None and res.walked_components == 4
    assert res.target == baseline.lookup(p)
    assert engine.metrics.dentries_visited == baseline.metrics.dentries_visited
    assert engine.metrics.char_comparisons == baseline.metrics.char_comparisons


def test_counter_law_walked_equals_total_minus_matched():
    p = mkpath("/a0/b0/c0/d0/e0/f0/g0/h0")
    tree = make_tree(files=(p.text,))
    for cover in range(1, 8):
        engine = engine_with_pool(tree, ["/" + "/".join(p.components[:cover])])
        baseline = OriginalLookup(tree)
        before = engine.metrics.dentries_visited
        res = engine.stage_lookup(p)
        baseline.lookup(p)
        assert res.skipped_components == cover
        assert res.walked_components == 8 - cover
        # conservation: on a pivot hit the stage walk never visits more than original
        assert engine.metrics.dentries_visited - before <= baseline.metrics.dentries_visited


def test_heat_discipline_target_only():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    engine = engine_with_pool(tree, ["/a0/b0/c0"])
    path = mkpath("/a0/b0/c0/d0/e0/f0/g0/h0")
    engine.stage_lookup(path)
    engine.apply_heat()  # a lookup logs its target; the drain applies its heat
    target = tree._resolve_admin(path)
    assert engine.candidates.heat == {target: 1}  # ancestors never heat up
    engine.stage_lookup(path)
    engine.apply_heat()
    assert engine.candidates.heat == {target: 2}


def test_pool_size_zero_fallback_counter_identity():
    tree = make_tree(files=("/a1/b1/c1/f", "/a2/b2/f"))
    engine = StageLookupEngine(tree, pool_size=0)
    baseline = OriginalLookup(tree)
    rng = random.Random(3)
    paths = ["/a1/b1/c1/f", "/a2/b2/f", "/a1/b1", "/a2"]
    for _ in range(50):
        p = mkpath(rng.choice(paths))
        engine.tick() if rng.random() < 0.1 else None
        assert engine.stage_lookup(p).target == baseline.lookup(p)
    assert engine.metrics.dentries_visited == baseline.metrics.dentries_visited
    assert engine.metrics.char_comparisons == baseline.metrics.char_comparisons
    assert engine.metrics.pivot_hits == 0


def test_negative_pool_size_raises_config_error():
    """A negative pool size is refused when the engine is built, not clamped
    to an empty pool, and the refused engine registers no hook."""
    tree = make_tree("/a/b")
    with pytest.raises(ConfigError, match="pool size must be >= 0, got -1"):
        StageLookupEngine(tree, pool_size=-1)
    assert tree._hooks == []
    assert StageLookupEngine(tree, pool_size=0).manager.pool_bound == 0  # zero is a valid bound


# -- permissions --------------------------------------------------------------------


def test_prefix_permissions_ok_and_vacuous():
    tree = make_tree(files=("/a/b/c/f",))
    engine = engine_with_pool(tree, ["/a/b/c", "/a"])
    res = engine.stage_lookup(mkpath("/a/b/c/f"))
    assert res.skipped_components == 3  # mask over a,b passed
    # depth-1 pivot: no skipped ancestors at all, so its mask refuses no
    # class even where the pivot itself refuses traversal; the walk below it
    # still checks the pivot
    tree.chmod_node(mkpath("/a"), 0o700)
    engine = engine_with_pool(tree, ["/a"])  # mask built after the chmod
    for cred in Credential:
        res = engine.stage_lookup(mkpath("/a"), cred)
        assert (res.pivot_used, res.skipped_components, res.walked_components) == ("/a", 1, 0)
    assert engine.stage_lookup(mkpath("/a/b"), OWNER).pivot_used == "/a"
    with pytest.raises(PermissionDenied):
        engine.stage_lookup(mkpath("/a/b"), Credential.OTHER)
    assert engine.metrics.pivot_hits == 4


def test_prefix_mask_denies_per_class():
    tree = make_tree(files=("/a/b/c/f",))
    tree.chmod_node(mkpath("/a"), 0o750)  # other loses traversal
    engine = engine_with_pool(tree, ["/a/b/c"])  # mask built after the chmod
    assert engine.stage_lookup(mkpath("/a/b/c/f"), Credential.GROUP).target
    with pytest.raises(PermissionDenied):
        engine.stage_lookup(mkpath("/a/b/c/f"), Credential.OTHER)
    # identical classification to the original walk
    assert oracle_resolve(tree, mkpath("/a/b/c/f"), Credential.OTHER) == "err:PermissionDenied"


def test_chmod_invalidates_before_masks_go_stale():
    tree = make_tree(files=("/a/b/c/f",))
    engine = engine_with_pool(tree, ["/a/b/c"])
    assert engine.stage_lookup(mkpath("/a/b/c/f")).pivot_used == "/a/b/c"
    tree.chmod_node(mkpath("/a"), 0o644)  # hook removes every covered pivot
    assert engine.manager.working_pool.size == 0
    with pytest.raises(PermissionDenied):
        engine.stage_lookup(mkpath("/a/b/c/f"))
    # the denial came from the walk, not from a stale cached mask
    assert engine.metrics.pivot_hits == 1


def test_stage_two_checks_start_component():
    # matched component itself loses traversal: the walk must deny like the original
    tree = make_tree(files=("/a/b/c/f",))
    engine = engine_with_pool(tree, ["/a/b"])
    tree.chmod_node(mkpath("/a/b"), 0o644)
    # chmod removed the covering pivot; rebuild one to simulate a fresh period
    engine.manager.publish_pool(build_pool({tree._resolve_admin(mkpath("/a/b")): 0}, 16))
    for cred in Credential:
        assert outcome(engine.lookup, mkpath("/a/b/c/f"), cred) == oracle_resolve(tree, mkpath("/a/b/c/f"), cred)
        assert outcome(engine.lookup, mkpath("/a/b"), cred) == oracle_resolve(tree, mkpath("/a/b"), cred)


@pytest.mark.parametrize(
    "mode", [0o600 | o | g | x for o in (0, 0o100) for g in (0, 0o010) for x in (0, 0o001)], ids=lambda m: f"{m:o}"
)
def test_every_exec_bit_pattern_of_a_skipped_ancestor_answers_as_the_oracle(mode):
    """/a/b takes each of the 8 exec-bit patterns before the pool is built,
    so the pivot /a/b/c skips it: stage's hit, fullpath after an owner fill,
    and the original walk each answer every credential as the oracle does,
    and stage counts a pivot hit exactly on the lookups the oracle admits."""
    tree = make_tree(files=("/a/b/c/f",))
    tree.chmod_node(mkpath("/a/b"), mode)
    engine = engine_with_pool(tree, ["/a/b/c"])
    baseline = OriginalLookup(tree)
    for p in (mkpath("/a/b/c"), mkpath("/a/b/c/f")):
        for cred in Credential:
            want = oracle_resolve(tree, p, cred)
            assert want.startswith("ok:") == bool(mode & TRAV_BIT[cred])
            hits0 = engine.metrics.pivot_hits
            assert outcome(engine.lookup, p, cred) == want, (p.text, cred)
            assert engine.metrics.pivot_hits - hits0 == want.startswith("ok:"), (p.text, cred)
            cache = FullPathCache(tree)
            outcome(cache.lookup, p, OWNER)  # the fill; refused when the owner's bit is clear
            assert outcome(cache.lookup, p, cred) == want, (p.text, cred)
            assert outcome(baseline.lookup, p, cred) == want, (p.text, cred)


# -- modifications racing a lookup ------------------------------------------------------


def race_after_scan(monkeypatch, engine, modify):
    """Run `modify` once, right after the engine's next Stage One scan
    returns, as a modification landing between the two stages would; returns
    the list that receives that scan's (pivot path, depth)."""
    scanned = []

    def scan_then_modify(pool, path, stats):
        hit = find_best_pivot(pool, path, stats)
        if not scanned:
            scanned.append(None if hit is None else (hit[0].path, hit[1]))
            modify()
        return hit

    monkeypatch.setattr(engine_module, "find_best_pivot", scan_then_modify)
    return scanned


def raced_outcome(engine, path, cred):
    """The lookup's outcome and the pivot it used (None when it raised)."""
    try:
        res = engine.stage_lookup(path, cred)
    except (NotFound, PermissionDenied) as exc:
        return f"err:{type(exc).__name__}", None
    return f"ok:{res.target}", res.pivot_used


def assert_retried(engine, tree, path, cred, got):
    """The raced lookup dropped the pivot's result and walked from the root:
    it agrees with the tree after the race, and no pivot hit was counted."""
    result, pivot_used = got
    assert result == oracle_resolve(tree, path, cred)
    assert pivot_used is None
    assert engine.metrics.fallbacks == 1
    assert engine.metrics.pivot_hits == 0 and engine.metrics.skipped_prefix_histogram == {}


@pytest.mark.parametrize("threadsafe", [False, True])
def test_chmods_racing_the_stages_cannot_mix_two_states(monkeypatch, threadsafe):
    # before the race `d` denies `other`, after it `/a` does; the pivot's mask
    # predates the first chmod and Stage Two walks after the second
    tree = make_tree(files=("/a/b/c/d/f",), threadsafe=threadsafe)
    tree.chmod_node(mkpath("/a/b/c/d"), 0o750)
    engine = engine_with_pool(tree, ["/a/b/c"])
    path, cred = mkpath("/a/b/c/d/f"), Credential.OTHER
    assert oracle_resolve(tree, path, cred) == "err:PermissionDenied"

    def modify():
        tree.chmod_node(mkpath("/a"), 0o750)
        tree.chmod_node(mkpath("/a/b/c/d"), 0o755)

    scanned = race_after_scan(monkeypatch, engine, modify)
    got = raced_outcome(engine, path, cred)
    assert scanned == [("/a/b/c", 3)]
    assert_retried(engine, tree, path, cred, got)
    assert got[0] == "err:PermissionDenied"


@pytest.mark.parametrize("threadsafe", [False, True])
def test_rename_racing_the_stages_cannot_mix_two_states(monkeypatch, threadsafe):
    # the path resolves before the race and after it; Stage Two walks from
    # the pivot's renamed dentry, under which the target is gone
    tree = make_tree(files=("/a/b/c/d/f",), threadsafe=threadsafe)
    engine = engine_with_pool(tree, ["/a/b/c"])
    path = mkpath("/a/b/c/d/f")
    assert oracle_resolve(tree, path, OWNER).startswith("ok:")

    def modify():
        tree.rename_node(mkpath("/a/b/c"), mkpath("/a/b/old"))
        make_node(tree, "/a/b/c/d/f", FILE)
        tree.unlink_node(mkpath("/a/b/old/d/f"))

    scanned = race_after_scan(monkeypatch, engine, modify)
    got = raced_outcome(engine, path, OWNER)
    assert scanned == [("/a/b/c", 3)]
    assert_retried(engine, tree, path, OWNER, got)
    assert got[0] == f"ok:{tree._resolve_admin(path).id}"


# threadsafe only: on one thread a whole-path hit makes no Stage One call, and
# nothing runs between its path-map probe and its result
@pytest.mark.parametrize("threadsafe", [True])
def test_unlink_of_the_pivot_racing_the_stages_falls_back(monkeypatch, threadsafe):
    tree = make_tree(files=("/a/b/c/d/f",), threadsafe=threadsafe)
    engine = engine_with_pool(tree, ["/a/b/c/d/f"])
    path = mkpath("/a/b/c/d/f")
    scanned = race_after_scan(monkeypatch, engine, lambda: tree.unlink_node(path))
    got = raced_outcome(engine, path, OWNER)
    assert scanned == [("/a/b/c/d/f", 5)]
    assert_retried(engine, tree, path, OWNER, got)
    assert got[0] == "err:NotFound"


def test_stage_lookup_reports_what_lookup_did_randomized(monkeypatch):
    """Twin engines on one spec and one tick schedule, one asked through
    `stage_lookup` and one through `lookup`, resolve the same targets and
    keep the same counter rows, on both tree kinds. Unraced, `stage_lookup`
    reports the pivot and depth `find_best_pivot` gives on the working pool;
    a modification between the two stages leaves it no pivot and one more
    fallback. On a single-threaded tree only lookups that descend are raced:
    a whole-path hit there is answered from the path map, and nothing runs
    between its probe and its result."""
    for threadsafe in (False, True):
        _twin_engines_agree(monkeypatch, threadsafe)


def _twin_engines_agree(monkeypatch, threadsafe):
    spec = TreeSpec(levels=[4, 4, 4, 3], seed=11)
    trees = [gen_tree(spec, threadsafe=threadsafe), gen_tree(spec, threadsafe=threadsafe)]
    reporter, plain = (StageLookupEngine(tree, pool_size=8) for tree in trees)

    def same_mode_chmod(tree, path):
        # moves metadata_seq and changes no outcome
        return lambda: tree.chmod_node(path, tree._resolve_admin(path).mode)

    rng = random.Random(1125)
    files = [path_of(d) for d in trees[0].nodes[1:] if d.children is None]
    hot = rng.sample(files, 24)
    seen = collections.Counter()
    for step in range(3000):
        if step % 200 == 199:
            reporter.tick()
            plain.tick()
        path = rng.choice(hot) if rng.random() < 0.9 else rng.choice(files)
        if rng.random() < 0.05:
            path = mkpath(path.text.rpartition("/")[0] + "/zz")
        cred = rng.choice(list(Credential))
        want = find_best_pivot(reporter.manager.working_pool, path)
        whole = path.text in reporter.manager.working_pool.by_path
        raced = want is not None and rng.random() < 0.1 and (threadsafe or not whole)
        if raced:
            ancestor = PathBuf(path.components[: rng.randint(1, path.depth - 1)])
            scanned = race_after_scan(monkeypatch, reporter, same_mode_chmod(trees[0], ancestor))
        fallbacks = reporter.metrics.fallbacks
        try:
            res = reporter.stage_lookup(path, cred)
            got = f"ok:{res.target}"
        except (NotFound, PermissionDenied) as exc:
            res, got = None, f"err:{type(exc).__name__}"
        if raced:
            assert scanned == [(want[0].path, want[1])]
            assert reporter.metrics.fallbacks == fallbacks + 1
            assert res is None or res.pivot_used is None
            race_after_scan(monkeypatch, plain, same_mode_chmod(trees[1], ancestor))
        elif res is not None:
            pivot, depth = want if want is not None else (None, 0)
            assert res.pivot_used == (pivot.path if pivot else None)
            assert (res.skipped_components, res.walked_components) == (depth, path.depth - depth)
            assert res.rolled_up == (pivot is not None and depth < pivot.depth)
        assert got == outcome(plain.lookup, path, cred), (step, path.text)
        assert reporter.metrics.counter_rows() == plain.metrics.counter_rows()
        kind = "whole" if whole else "hit" if want else "walk"
        seen["raced" if raced else "error" if res is None else kind] += 1
    assert type(plain.lookup(hot[0], OWNER)) is int
    assert {"raced", "error", "whole", "hit", "walk"} == set(seen), (threadsafe, seen)


def test_unlink_through_hook_removes_pivots():
    tree = make_tree("/a/b", files=("/a/b/f",))
    engine = engine_with_pool(tree, ["/a/b/f"])
    tree.unlink_node(mkpath("/a/b/f"))
    assert engine.manager.working_pool.size == 0
    with pytest.raises(NotFound):
        engine.stage_lookup(mkpath("/a/b/f"))


@pytest.mark.parametrize("threadsafe", [False, True])
def test_chmod_of_a_list_built_path_retires_the_pivots_it_covers(threadsafe):
    # a list-built path equals its parsed twin, so the hook must cover the
    # same run of pivots: the chmod denies `other` the prefix the pivot skips
    tree = gen_tree(TreeSpec(levels=[2, 2], seed=1), threadsafe=threadsafe)
    engine = engine_with_pool(tree, ["/a0/b0/c0"])
    tree.chmod_node(PathBuf(["a0"]), 0o700)
    assert engine.manager.working_pool.size == 0
    path = mkpath("/a0/b0/c0")
    assert oracle_resolve(tree, path, Credential.OTHER) == "err:PermissionDenied"
    assert outcome(engine.lookup, path, Credential.OTHER) == "err:PermissionDenied"


# -- where a path is split --------------------------------------------------------------


def _calls_under_lookup(fn):
    """Run `fn` and return its result with the calls that
    `StageLookupEngine.lookup` made directly: ("py", name) for a Python
    function, ("c", qualified name) for a builtin."""
    lookup_code = StageLookupEngine.lookup.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is lookup_code:
            calls.append(("py", frame.f_code.co_name))
        elif event == "c_call" and frame.f_code is lookup_code:
            calls.append(("c", arg.__qualname__))

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def test_whole_path_hit_makes_only_the_traced_calls():
    """A whole-path hit calls the entry points the benchmark traces and,
    in Python, nothing else but a threadsafe lookup's own ScanStats; neither
    a slash count nor a split of the query. Its heat is a `list.append` to
    the engine's log, which the period applies, so on a single-threaded tree,
    where it is answered from the path map, it makes no Python call at all; a
    threadsafe tree still pins the pool with a reader token around Stage
    One. Every hit on one path keeps the one pair the pool's path map
    stores."""
    for threadsafe, traced in (
        (False, []),
        (True, ["__init__", "reader_enter", "find_best_pivot", "reader_exit"]),
    ):
        tree = gen_tree(TreeSpec(levels=[2, 2], seed=1), threadsafe=threadsafe)
        engine = engine_with_pool(tree, ["/a0/b0/c0", "/a0/b1"])
        path = mkpath("/a0/b0/c0")
        expected = tree._resolve_admin(path).id
        for fn in (lambda: engine.stage_lookup(path).target, lambda: engine.lookup(path)):
            target, calls = _calls_under_lookup(fn)
            assert target == expected
            assert [name for kind, name in calls if kind == "py"] == traced, threadsafe
            assert not {"str.count", "str.split"} & {name for kind, name in calls if kind == "c"}
        kept: list = []
        engine.lookup(path, OWNER, kept)
        engine.lookup(path, OWNER, kept)
        assert len(kept) == 2 and kept[0] is kept[1]
        assert engine.metrics.pivot_hits == 4 and engine.metrics.skipped_prefix_histogram == {3: 4}


@pytest.mark.parametrize("threadsafe", [False, True])
def test_whole_path_hit_on_a_freed_working_pool_trips_the_sentinel(threadsafe):
    # no reclaim frees the working pool; poisoning it by hand stands for a
    # protocol bug, which the path-map answer must catch as the scan does
    tree = gen_tree(TreeSpec(levels=[2, 2], seed=1), threadsafe=threadsafe)
    engine = engine_with_pool(tree, ["/a0/b0/c0"])
    engine.manager.working_pool.freed = True
    with pytest.raises(ContractViolation, match="used after reclaim"):
        engine.lookup(mkpath("/a0/b0/c0"))
    assert engine.metrics.pivot_hits == 0


def _answer(fn, path, cred):
    try:
        return fn(path, cred)
    except (NotFound, PermissionDenied) as exc:
        return type(exc).__name__, str(exc)


def test_path_map_hits_answer_as_scanned_hits_do():
    """One set of pivots on a single-threaded and a threadsafe tree of one
    spec, under the same seeded lookups: the single-threaded engine answers
    a whole-path hit from the path map's entry, the threadsafe one from a
    scan, and both give the same id or error with its message, the same
    counter rows and the same `stage_lookup` result, whatever the query
    kind."""
    spec = TreeSpec(levels=[4, 3, 3, 2], seed=4)
    pivot_paths = [
        "/a0/b0/c0/d0",
        "/a0/b0/c1",
        "/a0/b1/c0/d1/e0",
        "/a1/b0/c0",
        "/a1/b2/c1/d0",
        "/a2/b1/c2/d1",
        "/a2/b0/c0/d0/e0",
    ]  # none under /a3, nor under /a0/b2
    engines = []
    for threadsafe in (False, True):
        tree = gen_tree(spec, threadsafe=threadsafe)
        tree.chmod_node(mkpath("/a1"), 0o750)  # other may not cross /a1
        tree.chmod_node(mkpath("/a2/b1"), 0o705)  # group may not cross /a2/b1
        engines.append(engine_with_pool(tree, pivot_paths))
    pool = engines[0].manager.working_pool
    texts = [path_of(d).text for d in tree.nodes[1:]]
    rng = random.Random(4041)
    seen = collections.Counter()
    for _step in range(2000):
        roll = rng.random()
        if roll < 0.4:
            text = rng.choice(pivot_paths)
        elif roll < 0.5:
            text = rng.choice(pivot_paths) + "/zz"
        else:
            text = rng.choice(texts)
        path, cred = mkpath(text), rng.choice(list(Credential))
        answers = [
            (_answer(e.lookup, path, cred), _answer(e.stage_lookup, path, cred), e.metrics.counter_rows())
            for e in engines
        ]
        assert answers[0] == answers[1], (text, cred)
        got, hit = answers[0][0], find_best_pivot(pool, path)
        if isinstance(got, tuple) and got[1].startswith("skipped prefix"):
            kind = f"PermissionDenied on a skipped prefix for {cred.name.lower()}"
        elif hit is None:
            kind = "miss"
        elif isinstance(got, tuple) and got[0] == "NotFound":
            kind = "NotFound below a pivot"
        elif text in pool.by_path:
            kind = "whole-path hit"
        else:
            kind = f"partial hit at depth {hit[1]}"
        seen[kind] += 1
    want = {"whole-path hit", "partial hit at depth 1", "partial hit at depth 2", "miss", "NotFound below a pivot"}
    want |= {f"PermissionDenied on a skipped prefix for {who}" for who in ("group", "other")}
    assert want <= set(seen), seen


def _unsplit(path: PathBuf) -> bool:
    return path._components is None


@pytest.mark.parametrize("threadsafe", [False, True])
def test_only_a_walk_splits_a_parsed_path(threadsafe):
    """Stage One's whole-path probe and fullpath's warm hit answer from the
    text alone; a lookup that walks any component splits the path once, and
    keeps the split."""
    spec = TreeSpec(levels=[2, 2], seed=1)
    hit_text, target = "/a0/b0/c0", ("a0", "b0", "c0")
    tree = gen_tree(spec, threadsafe=threadsafe)
    engine = engine_with_pool(tree, [hit_text, "/a0/b1"])
    expected = tree._resolve_admin(mkpath(hit_text)).id

    hit = mkpath(hit_text)
    assert _unsplit(hit)
    assert engine.lookup(hit) == expected and engine.metrics.pivot_hits == 1
    assert _unsplit(hit)  # a stage whole-path hit

    stage_two = mkpath("/a0/b1/c0")
    engine.lookup(stage_two)
    assert engine.metrics.pivot_hits == 2 and engine.metrics.dentries_visited == 1
    assert stage_two._components == ("a0", "b1", "c0")

    miss = mkpath("/a1/b1/c0")  # shares no component with a pivot
    assert engine.lookup(miss) == tree._resolve_admin(miss).id
    assert engine.metrics.pivot_hits == 2
    assert miss._components == ("a1", "b1", "c0")

    empty = StageLookupEngine(gen_tree(spec, threadsafe=threadsafe))
    miss = mkpath(hit_text)
    assert empty.lookup(miss) == expected and empty.metrics.pivot_hits == 0
    assert miss._components == target  # a stage miss on an empty pool walks from the root

    original = OriginalLookup(gen_tree(spec, threadsafe=threadsafe))
    walked = mkpath(hit_text)
    assert original.lookup(walked) == expected
    assert walked._components == target

    cache = FullPathCache(gen_tree(spec, threadsafe=threadsafe))
    cold = mkpath(hit_text)
    assert cache.lookup(cold) == expected
    assert cold._components == target  # the miss walks
    warm = mkpath(hit_text)
    assert cache.lookup(warm) == expected and cache.metrics.dentries_visited == 3
    assert _unsplit(warm)  # a fullpath hit


# -- the scan's counts -------------------------------------------------------------------


def test_threadsafe_lookups_scan_with_their_own_scan_stats(monkeypatch):
    """A threadsafe engine gives each lookup a fresh ScanStats, so threads
    never share one; the counts match the same lookups made on one thread."""
    tree = make_tree("/a/b", files=("/a/b/f", "/a/g"), threadsafe=True)
    engine = engine_with_pool(tree, ["/a/b"])
    seen = []  # (thread, stats passed to the scan); holding them keeps every id distinct

    def recording_scan(pool, path, stats):
        seen.append((threading.current_thread(), stats))
        return find_best_pivot(pool, path, stats)

    monkeypatch.setattr(engine_module, "find_best_pivot", recording_scan)

    def lookups():
        for text in ("/a/b/f", "/a/g", "/a/b/f"):
            engine.lookup(mkpath(text))

    worker = threading.Thread(target=lookups)
    worker.start()
    worker.join()
    lookups()
    assert len(seen) == 6 and len({thread for thread, _ in seen}) == 2
    assert len({id(stats) for _, stats in seen}) == 6
    # the same six lookups in one thread count the same
    serial = engine_with_pool(make_tree("/a/b", files=("/a/b/f", "/a/g")), ["/a/b"])
    for _ in range(2):
        for text in ("/a/b/f", "/a/g", "/a/b/f"):
            serial.lookup(mkpath(text))
    assert engine.metrics.counter_rows() == serial.metrics.counter_rows()


# -- stat / open -------------------------------------------------------------------------


def test_stat_skips_six_of_eight():
    tree = make_tree(files=("/a0/b0/c0/d0/e0/f0/g0/h0",))
    engine = engine_with_pool(tree, ["/a0/b0/c0/d0/e0/f0"])
    view = engine.stat(mkpath("/a0/b0/c0/d0/e0/f0/g0/h0"))
    assert view.kind == FILE
    assert engine.metrics.skipped_prefix_histogram == {6: 1}
    assert engine.metrics.pivot_hits == 1


def test_open_root():
    tree = make_tree("/a")
    engine = StageLookupEngine(tree)
    assert engine.open(mkpath("/")) == tree.root.id
    assert engine.metrics.dentries_visited == 0


def test_stat_missing():
    tree = make_tree("/a")
    engine = StageLookupEngine(tree)
    with pytest.raises(NotFound):
        engine.stat(mkpath("/a/missing"))


def test_open_stat_and_lookup_name_the_same_node():
    tree = make_tree("/a/b", files=("/a/b/f",))
    stage = engine_with_pool(tree, ["/a/b"])
    assert "/a/b" in stage.manager.working_pool.by_path  # a whole-path hit
    for resolver in (OriginalLookup(tree), FullPathCache(tree), stage):
        for text in ("/", "/a", "/a/b", "/a/b/f"):
            p = mkpath(text)
            want = tree._resolve_admin(p).id
            assert resolver.open(p) == resolver.stat(p).node_id == resolver.lookup(p) == want, (type(resolver).__name__, text)
    assert stage.metrics.skipped_prefix_histogram[2] == 6  # three calls each on /a/b and /a/b/f


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stat_view_is_the_dataclass(strategy):
    """`stat` fills its view's slots without the dataclass `__init__`; the
    view still compares, prints, lists its fields and replaces as one built
    by `MetadataView(...)`, on a file and a directory, before and after a chmod."""
    tree = make_tree("/a/b")
    tree.create_node(mkpath("/a/b"), "f", FILE, 0o640, 123)
    resolver = make_resolver(strategy, tree)
    for text, kind, created_mode, size in (("/a/b/f", FILE, 0o640, 123), ("/a/b", DIR, 0o755, 0)):
        p = mkpath(text)
        node_id = tree._resolve_admin(p).id
        for mode in (created_mode, 0o700):
            if mode != created_mode:
                tree.chmod_node(p, mode)
            view = resolver.stat(p)
            assert view == MetadataView(node_id, kind, mode, size)
            assert repr(view) == f"MetadataView(node_id={node_id}, kind={kind!r}, mode={mode}, size={size})"
            assert [f.name for f in dataclasses.fields(view)] == ["node_id", "kind", "mode", "size"]
            assert dataclasses.replace(view, size=7) == MetadataView(node_id, kind, mode, 7)


# -- randomized equivalence (small; the acceptance suite runs the big one) ----------------


def test_small_randomized_equivalence_with_mutations():
    rng = random.Random(42)
    tree = make_tree()
    paths = []
    for _ in range(150):
        depth = rng.randint(1, 6)
        p = "/" + "/".join(f"{chr(ord('a') + d)}{rng.randint(0, 4)}" for d in range(depth))
        try:
            make_node(tree, p, FILE if depth >= 4 and rng.random() < 0.4 else DIR)
            paths.append(p)
        except Exception:
            pass
    engine = StageLookupEngine(tree, pool_size=8)
    baseline = OriginalLookup(tree)
    ops = 0
    hits = collections.Counter()  # pivot hits per credential
    for step in range(4000):
        roll = rng.random()
        if roll < 0.04:
            src = rng.choice(paths)
            try:
                tree.rename_node(mkpath(src), mkpath(f"{src.rpartition('/')[0]}/r{step}"))
            except Exception:
                pass
        elif roll < 0.08:
            try:
                tree.chmod_node(mkpath(rng.choice(paths)), rng.choice([0o755, 0o750, 0o700, 0o644]))
            except Exception:
                pass
        else:
            p = mkpath(rng.choice(paths))
            cred = rng.choice(list(Credential))
            hits0 = engine.metrics.pivot_hits
            got = outcome(engine.lookup, p, cred)
            # the oracle keeps its own exec-bit table, so a wrong credential value shows here
            assert got == outcome(baseline.lookup, p, cred) == oracle_resolve(tree, p, cred), (step, p.text, cred)
            hits[cred] += engine.metrics.pivot_hits - hits0
            ops += 1
        if step % 400 == 0:
            engine.tick()
    assert ops > 3000
    assert all(hits[cred] > 0 for cred in Credential), hits
