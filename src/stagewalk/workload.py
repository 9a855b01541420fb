"""Tree generation, trace synthesis, replay, and reporting.

File formats:

- tree spec (JSON object): {"levels": [fanout per directory level],
  "file_size_range": [lo, hi], "seed": int}. Directory names are the level
  letter plus the sibling index ("a0".."a9", then "b...", ...); every
  deepest-level directory gets exactly one file child named with the next
  letter ("f0" under a five-level tree).
- trace (JSON Lines, UTF-8): one event per line with fields op, path, at_ms
  (a non-negative integer), plus new_path for rename and mode (0..0o777) for
  chmod/create/mkdir.
- metrics (CSV): one row per counter, one column per run, ratio columns
  against the first run. It holds counters only, so equal-seed runs are
  byte-identical.
- outcomes (the list `replay` returns): one string per event,
  `ok:<target id>` for a stat or open, `ok:<new id>` for a create or mkdir,
  `ok:renamed` / `ok:chmod`, or `err:<error class>`. Strategies agree when
  their outcome lists, each replayed on a fresh tree of one spec, are equal.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .engine import OriginalLookup, StageLookupEngine, _ResolverBase
from .errors import ConfigError, EngineError, InvalidPath, SpecInvalid, TraceMalformed
from .fullpath import FullPathCache
from .metrics import Metrics
from .paths import PathBuf
from .pivots import build_pool, find_best_pivot, ScanStats
from .tree import DIR, FILE, Credential, Dentry, DirTree

STRATEGIES = ("original", "fullpath", "stage")

_DIR_MODE = 0o755
_FILE_MODE = 0o644

# weighted chmod palette: mostly harmless, some that deny group/other, one
# that removes traversal for everyone
_CHMOD_MODES = [0o755] * 6 + [0o751, 0o750, 0o711, 0o700, 0o644]


@dataclass(slots=True)
class TreeSpec:
    levels: list[int]
    file_size_range: tuple[int, int] = (4096, 4096)
    seed: int = 0

    def validate(self) -> None:
        # `type(x) is int`: a bool is not a fanout, a size or a seed
        if not self.levels or any(type(f) is not int or f < 1 for f in self.levels):
            raise SpecInvalid(f"levels must be positive ints, got {self.levels!r}")
        sizes = self.file_size_range
        if len(sizes) != 2 or any(type(x) is not int for x in sizes) or not 0 <= sizes[0] <= sizes[1]:
            raise SpecInvalid(f"file_size_range must be two ints 0 <= lo <= hi, got {sizes!r}")
        if type(self.seed) is not int:
            raise SpecInvalid(f"seed must be an int, got {self.seed!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"levels": self.levels, "file_size_range": list(self.file_size_range), "seed": self.seed},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TreeSpec":
        try:
            obj = json.loads(text)
            spec = cls(
                levels=list(obj["levels"]),
                file_size_range=tuple(obj.get("file_size_range", (4096, 4096))),
                seed=obj.get("seed", 0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecInvalid(f"bad tree spec: {exc}") from exc
        spec.validate()
        return spec


# the six-level measurement tree: root fanout 10, four more fanout-10 levels,
# one 4KB file per deepest directory; 211,111 nodes
SIX_LEVEL_PRESET = TreeSpec(levels=[10, 10, 10, 10, 10], file_size_range=(4096, 4096), seed=0)


def _level_letter(depth: int) -> str:
    return chr(ord("a") + (depth - 1) % 26)


def gen_tree(spec: TreeSpec, threadsafe: bool = False) -> DirTree:
    """Deterministic tree for a spec: same seed, same canonical dump.

    Breadth-first: ids follow the level, then the parent, then the sibling
    index. Each level's names are built once and the same string objects are
    attached under every parent, so a tree holds one copy of each name.
    A file size is drawn only from a range of more than one value; the
    generator serves nothing else, so skipping a one-value draw changes no
    later size.

    Each dentry is built inline, with `object.__new__` and its six slot
    stores, then put in its parent's map and in `tree.nodes`: no Python
    frame runs per node. `reference_gen_tree` in the tests builds the same
    tree through `Dentry(...)` and is the oracle for every slot, every id and
    every map's order.

    The build pauses Python's automatic garbage collection, process-wide,
    and restores the state it found on return or on an exception. Those
    passes would re-walk the half-built tree and free nothing: every dentry
    and children map stays reachable from `tree.nodes`, so a pass finds no
    unreachable cycle. The pause defers one pass rather than saving it all:
    the tree is left in the youngest generation, so the caller's next
    tracked allocation walks it once, unless the caller freezes it first.
    Neither collecting nor freezing is done here; a caller that wants either
    does it on the finished tree."""
    spec.validate()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(spec.seed)
        tree = DirTree(threadsafe=threadsafe)
        nodes, append, new = tree.nodes, tree.nodes.append, object.__new__
        parents = [tree.root]
        for depth, fanout in enumerate(spec.levels, start=1):
            letter = _level_letter(depth)
            names = [f"{letter}{i}" for i in range(fanout)]
            first = len(nodes)
            for parent in parents:
                siblings = parent.children
                for name in names:
                    d = new(Dentry)  # `Dentry(len(nodes), parent, name, DIR, _DIR_MODE)` inline
                    d.id = len(nodes)
                    d.parent = parent
                    d.name = name
                    d.mode = _DIR_MODE
                    d.size = 0
                    d.children = {}
                    siblings[name] = d
                    append(d)
            parents = nodes[first:]  # this level, in the order it was built
        lo, hi = spec.file_size_range
        leaf_name = f"{_level_letter(len(spec.levels) + 1)}0"
        for parent in parents:
            d = new(Dentry)  # `Dentry(len(nodes), parent, leaf_name, FILE, _FILE_MODE, size)` inline
            d.id = len(nodes)
            d.parent = parent
            d.name = leaf_name
            d.mode = _FILE_MODE
            d.size = rng.randint(lo, hi) if lo < hi else lo
            d.children = None
            parent.children[leaf_name] = d
            append(d)
        return tree
    finally:
        if was_enabled:
            gc.enable()


# -- traces -------------------------------------------------------------------

_OPS = ("stat", "open", "mkdir", "create", "rename", "chmod")


@dataclass(slots=True)
class TraceEvent:
    op: str
    path: str
    at_ms: int = 0
    new_path: Optional[str] = None
    mode: Optional[int] = None

    def validate(self) -> None:
        if self.op not in _OPS:
            raise TraceMalformed(f"unknown op {self.op!r}")
        if self.op == "rename" and not self.new_path:
            raise TraceMalformed("rename without new_path")
        if self.op in ("chmod",) and self.mode is None:
            raise TraceMalformed("chmod without mode")
        if type(self.at_ms) is not int or self.at_ms < 0:  # bool is not a time
            raise TraceMalformed(f"at_ms is not a non-negative integer: {self.at_ms!r}")
        if self.mode is not None and (type(self.mode) is not int or not 0 <= self.mode <= 0o777):
            raise TraceMalformed(f"mode is not an integer in 0..0o777: {self.mode!r}")
        try:
            PathBuf.parse(self.path)
            if self.op == "rename":
                PathBuf.parse(self.new_path)
        except InvalidPath as exc:
            raise TraceMalformed(f"bad path: {exc}") from exc

    def to_json_line(self) -> str:
        obj: dict = {"op": self.op, "path": self.path, "at_ms": self.at_ms}
        if self.new_path is not None:
            obj["new_path"] = self.new_path
        if self.mode is not None:
            obj["mode"] = self.mode
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "TraceEvent":
        try:
            obj = json.loads(line)
            ev = cls(
                op=obj["op"],
                path=obj["path"],
                at_ms=obj.get("at_ms", 0),
                new_path=obj.get("new_path"),
                mode=obj.get("mode"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceMalformed(f"bad trace line: {exc}") from exc
        ev.validate()
        return ev


def write_trace(events: Iterable[TraceEvent], out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(ev.to_json_line() + "\n")


def read_trace(in_path: str) -> list[TraceEvent]:
    with open(in_path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise TraceMalformed(f"trace is not UTF-8: {exc}") from None
    return [TraceEvent.from_json_line(line) for line in map(str.strip, lines) if line]


class _Universe:
    """The synthesizer's mirror of the tree, which it never changes: files and
    dirs (root aside) as dentries in path-text order, the names its renames
    set, and detached dentries for its creates; `text` spells a path."""

    def __init__(self, tree: DirTree):
        texts, nodes = [], []
        for text, d in tree.iter_subtree("/", tree.root):
            texts.append(text)
            nodes.append(d)
        # sorted by index: a (text, dentry) tuple kept per node sets off GC passes over the tree
        order = sorted(range(1, len(nodes)), key=texts.__getitem__)  # 0 is the root
        depth = max((texts[i].count("/") for i in order if nodes[i].children is None), default=1) - 1
        self.files = [nodes[i] for i in order if nodes[i].children is None]
        self.dirs = [nodes[i] for i in order if nodes[i].children is not None]
        self.deepest_dirs = [nodes[i] for i in order if nodes[i].children is not None and texts[i].count("/") == depth]
        self.names: dict[Dentry, str] = {}

    def text(self, d: Dentry) -> str:
        parts = []
        while d.parent is not None:
            parts.append(self.names.get(d, d.name))
            d = d.parent
        return "/" + "/".join(reversed(parts))


def _zipf_weight(rank: int, s: float) -> float:
    return 1.0 / (rank + 1) ** s


# trace time between two events, the length of a replay-like burst, and the
# gap between two bursts
_STEP_MS = 1
_BURST_LEN = 64
_BURST_GAP_MS = 4000
# the share of lookups that are stats rather than opens
_P_STAT = 0.55


def check_synth_settings(
    model: str, n_events: int, p_rename: float, p_chmod: float, p_create: float, hot_dirs: int, zipf_s: float
) -> None:
    """`synth_trace`'s checks, which need no tree: an unknown model, a negative
    event count, a probability outside [0, 1], mutation probabilities that
    sum above 1, fewer than one hot dir, or a `zipf_s` whose weights over
    `hot_dirs` ranks are not all finite raises ConfigError."""
    if model not in ("uniform", "hotdir-zipf", "replay-like"):
        raise ConfigError(f"unknown trace model {model!r}")
    if n_events < 0:
        raise ConfigError(f"n_events must be >= 0, got {n_events}")
    for key, value in (("p_rename", p_rename), ("p_chmod", p_chmod), ("p_create", p_create)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1], got {value}")
    # fsum: 0.1 + 0.2 + 0.7 rounds above 1 when summed left to right
    if math.fsum((p_rename, p_chmod, p_create)) > 1.0:
        raise ConfigError("p_rename + p_chmod + p_create must be <= 1")
    if hot_dirs < 1:
        raise ConfigError(f"hot_dirs must be >= 1, got {hot_dirs}")
    # a tree gives at most hot_dirs ranks, and the weights are monotone in
    # rank, so the first and the last rank bound every weight and the total
    try:
        bound = hot_dirs * (_zipf_weight(0, zipf_s) + _zipf_weight(hot_dirs - 1, zipf_s))
    except ArithmeticError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ConfigError(f"zipf_s {zipf_s} gives no finite Zipf weights over {hot_dirs} hot dirs")


def synth_trace(
    tree: DirTree,
    model: str,
    *,
    n_events: int = 10_000,
    p_rename: float = 0.0,
    p_chmod: float = 0.0,
    p_create: float = 0.0,
    hot_dirs: int = 8,
    zipf_s: float = 1.0,
    seed: int = 0,
) -> list[TraceEvent]:
    """Deterministic event stream over a generated tree.

    Models: "uniform" targets leaves uniformly; "hotdir-zipf" concentrates
    targets under `hot_dirs` directories with Zipf exponent `zipf_s`;
    "replay-like" emits bursts of opens separated by compressed four-second
    gaps. Mutation mix is controlled by p_rename / p_chmod / p_create: a
    rename moves a file or directory to `r<k>` under the same parent, a
    create adds `n<k>` under a directory. The tree is not changed. Raises
    ConfigError where `check_synth_settings` does, and before any random
    draw for a tree whose deepest file is under the root or that has none.
    """
    check_synth_settings(model, n_events, p_rename, p_chmod, p_create, hot_dirs, zipf_s)
    uni = _Universe(tree)
    if not uni.deepest_dirs:
        raise ConfigError("synth_trace needs a tree whose deepest file is below a directory other than the root")
    rng = random.Random(seed)
    events: list[TraceEvent] = []
    at_ms = 0
    rename_seq = 0
    create_seq = 0

    k = min(hot_dirs, len(uni.deepest_dirs))
    hot = rng.sample(uni.deepest_dirs, k)
    weights = [_zipf_weight(rank, zipf_s) for rank in range(k)]
    hot_children = [[c for _, c in sorted(hd.children.items()) if c.children is None] or [hd] for hd in hot]

    def pick_target() -> str:
        if model == "uniform":
            return uni.text(rng.choice(uni.files))
        kids = rng.choices(hot_children, weights=weights, k=1)[0]
        return uni.text(rng.choice(kids))

    p_mut = p_rename + p_chmod + p_create
    for i in range(n_events):
        if model == "replay-like" and i and i % _BURST_LEN == 0:
            at_ms += _BURST_GAP_MS
        else:
            at_ms += _STEP_MS
        roll = rng.random()
        if roll < p_rename:
            d = rng.choice(uni.files) if rng.random() < 0.5 else rng.choice(uni.dirs)
            old = uni.text(d)
            rename_seq += 1
            uni.names[d] = f"r{rename_seq}"
            events.append(TraceEvent("rename", old, at_ms, new_path=uni.text(d)))
        elif roll < p_rename + p_chmod:
            target = rng.choice(uni.dirs) if rng.random() < 0.8 else rng.choice(uni.files)
            events.append(TraceEvent("chmod", uni.text(target), at_ms, mode=rng.choice(_CHMOD_MODES)))
        elif roll < p_mut:
            create_seq += 1
            new = Dentry(0, rng.choice(uni.dirs), f"n{create_seq}", FILE, _FILE_MODE)
            events.append(TraceEvent("create", uni.text(new), at_ms, mode=_FILE_MODE))
            uni.files.append(new)
        else:
            op = "stat" if rng.random() < _P_STAT else "open"
            events.append(TraceEvent(op, pick_target(), at_ms))
    return events


# -- replay -------------------------------------------------------------------


def check_stage_settings(pool_size: int, heat_threshold: int, heat_capacity: int) -> None:
    """`make_resolver`'s check: a negative stage setting raises ConfigError."""
    if heat_capacity < 0 or heat_threshold < 0:
        raise ConfigError("heat capacity/threshold must be >= 0")
    if pool_size < 0:
        raise ConfigError(f"pool size must be >= 0, got {pool_size}")


def make_resolver(
    strategy: str,
    tree: DirTree,
    pool_size: int = 16,
    heat_threshold: int = 4,
    heat_capacity: int = 64,
) -> _ResolverBase:
    """A fresh resolver of `strategy` over `tree`. Only stage reads the three
    settings, but a negative one raises ConfigError for every strategy, so a
    run refuses it before anything replays."""
    check_stage_settings(pool_size, heat_threshold, heat_capacity)
    if strategy == "original":
        return OriginalLookup(tree)
    if strategy == "fullpath":
        return FullPathCache(tree)
    if strategy == "stage":
        return StageLookupEngine(tree, pool_size=pool_size, heat_threshold=heat_threshold, heat_capacity=heat_capacity)
    raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _apply_mutation(tree: DirTree, ev: TraceEvent) -> str:
    path = PathBuf.parse(ev.path)
    if ev.op == "mkdir":
        nid = tree.create_node(path.parent(), path.name, DIR, ev.mode if ev.mode is not None else _DIR_MODE)
        return f"ok:{nid}"
    if ev.op == "create":
        nid = tree.create_node(path.parent(), path.name, FILE, ev.mode if ev.mode is not None else _FILE_MODE)
        return f"ok:{nid}"
    if ev.op == "rename":
        tree.rename_node(path, PathBuf.parse(ev.new_path))
        return "ok:renamed"
    if ev.op == "chmod":
        tree.chmod_node(path, ev.mode)
        return "ok:chmod"
    raise TraceMalformed(f"not a mutation op: {ev.op}")


def check_tick_schedule(tick_every: Optional[int], period_ms: Optional[int]) -> None:
    """`replay`'s check: both schedules given, or one below 1, raises ConfigError."""
    if tick_every is not None and period_ms is not None:
        raise ConfigError("give tick_every or period_ms, not both")
    for name, value in (("tick_every", tick_every), ("period_ms", period_ms)):
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def replay(
    trace: Sequence[TraceEvent],
    resolver: _ResolverBase,
    cred: Credential = Credential.OWNER,
    tick_every: Optional[int] = None,
    period_ms: Optional[int] = None,
) -> list[str]:
    """Execute every event through `resolver` and against its tree; return
    one outcome per event. The counters it leaves in `resolver.metrics` are
    fully determined by (tree, trace, strategy, config, tick schedule).

    The resolver ticks before every `tick_every`-th event when that is
    given, and otherwise once per `period_ms` (default 2000) of trace time
    crossed; the periods one event's `at_ms` crosses go to one
    `tick(periods)` call. Raises ConfigError where `check_tick_schedule` does.
    """
    check_tick_schedule(tick_every, period_ms)
    if period_ms is None:
        period_ms = 2000
    outcomes: list[str] = []
    ticks_fired = 0
    for i, ev in enumerate(trace):
        if tick_every is not None:
            if i and i % tick_every == 0:
                resolver.tick()
        else:
            due = ev.at_ms // period_ms - ticks_fired
            if due > 0:
                resolver.tick(due)  # an idle gap costs O(1) after its first period
                ticks_fired += due
        try:
            if ev.op in ("stat", "open"):
                out = f"ok:{resolver.lookup(PathBuf.parse(ev.path), cred)}"
            else:
                out = _apply_mutation(resolver.tree, ev)
        except EngineError as exc:
            out = f"err:{type(exc).__name__}"
        outcomes.append(out)
    return outcomes


# -- reporting ----------------------------------------------------------------


def report(runs: Sequence[tuple[str, Metrics]]) -> tuple[str, str]:
    """Build the comparison table (text) and its CSV form: the same
    counter rows, with a ratio column against the first run for each run
    beyond it.
    """
    if not runs:
        raise ConfigError("report needs at least one run")
    labels = [label for label, _ in runs]
    rows = [m.counter_rows() for _, m in runs]
    header = ["metric"] + labels + [f"{lab}_vs_{labels[0]}" for lab in labels[1:]]
    table_rows = [header]
    for r, (name, _) in enumerate(rows[0]):
        vals = [rows[c][r][1] for c in range(len(runs))]
        ratios = []
        for v in vals[1:]:
            try:
                base = float(vals[0])
                ratios.append(f"{float(v) / base:.4f}" if base else "")
            except ValueError:
                ratios.append("")
        table_rows.append([name] + vals + ratios)

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(table_rows)
    widths = [max(len(row[c]) for row in table_rows) for c in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    table_rows.insert(1, ["-" * w for w in widths])
    return "".join(fmt.format(*row) + "\n" for row in table_rows), out.getvalue()


# -- stage-two depth sweep (counter analogue of the latency-vs-depth study) ----

BENCH_POOL_SIZES = (1, 2, 4, 8, 16)


def bench_depth_grid() -> list[dict]:
    """For depth-8 paths, sweep how many components Stage Two must walk (k)
    against the pool sizes in BENCH_POOL_SIZES; one lookup per (k, pool size)
    cell gives its row, since every column is an exact counter.

    The covering pivot sits at depth 8-k; the rest of the pool is decoys from
    a disjoint subtree, so pool size changes only the Stage One probe cost.
    k == 8 means no pivot covers the path and the walk falls back entirely.
    """
    spec = TreeSpec(levels=[2] * 7, file_size_range=(0, 0), seed=7)
    tree = gen_tree(spec)
    target = PathBuf.parse("/a0/b0/c0/d0/e0/f0/g0/h0")
    assert target.depth == 8

    decoy_root = tree._resolve_admin(PathBuf.parse("/a1"))
    decoys = [d for text, d in sorted(tree.iter_subtree("/a1", decoy_root), key=itemgetter(0))
              if d.kind == DIR and text.count("/") == 7]

    base = OriginalLookup(tree)
    base.stat(target)
    original_visited = base.metrics.dentries_visited

    # one engine, its pool published per cell: the grid never ticks, so the
    # pool bound, the heat and the candidates read nothing into a row
    engine = StageLookupEngine(tree)
    rows: list[dict] = []
    for pool_size in BENCH_POOL_SIZES:
        for k in range(9):
            cands: list[Dentry] = []
            if k < 8:
                cover = tree._resolve_admin(PathBuf(target.components[: 8 - k]))
                cands.append(cover)
            cands.extend(decoys[: pool_size - len(cands)])
            engine.manager.publish_pool(build_pool(dict.fromkeys(cands, 0), pool_size))

            stats = ScanStats()
            find_best_pivot(engine.manager.working_pool, target, stats)
            res = engine.stage_lookup(target)
            rows.append(
                {
                    "stage_two": k,
                    "pool_size": pool_size,
                    "walked_components": res.walked_components,
                    "target": res.target,
                    "pivots_visited": stats.pivots_visited,
                    "stage_one_chars": stats.char_comparisons,
                    "original_visited": original_visited,
                }
            )
    return rows


def grid_csv(rows: Sequence[dict]) -> str:
    cols = ["stage_two", "pool_size", "walked_components", "target", "pivots_visited", "stage_one_chars", "original_visited"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(str(r[c]) for c in cols))
    return "\n".join(lines) + "\n"
