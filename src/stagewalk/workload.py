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
  against the first run. Wall times are excluded so equal-seed runs are
  byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .engine import OriginalLookup, StageLookupEngine, _ResolverBase
from .errors import ConfigError, EngineError, InvalidPath, SpecInvalid, TraceMalformed
from .fullpath import FullPathCache
from .metrics import Metrics
from .paths import PathBuf
from .pivots import build_pool, find_best_pivot, ScanStats, verify_pool
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
        if not self.levels or any(not isinstance(f, int) or f < 1 for f in self.levels):
            raise SpecInvalid(f"levels must be positive ints, got {self.levels!r}")
        lo, hi = self.file_size_range
        if lo < 0 or hi < lo:
            raise SpecInvalid(f"bad file_size_range {self.file_size_range!r}")

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
                seed=int(obj.get("seed", 0)),
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


def gen_tree(
    spec: TreeSpec,
    seed: Optional[int] = None,
    threadsafe: bool = False,
) -> DirTree:
    """Deterministic tree for a spec: same seed, same canonical dump."""
    spec.validate()
    rng = random.Random(spec.seed if seed is None else seed)
    tree = DirTree(threadsafe=threadsafe)
    parents = [tree.root]
    for depth, fanout in enumerate(spec.levels, start=1):
        letter = _level_letter(depth)
        next_parents = []
        for parent in parents:
            for i in range(fanout):
                next_parents.append(tree._attach(parent, f"{letter}{i}", DIR, _DIR_MODE))
        parents = next_parents
    lo, hi = spec.file_size_range
    leaf_letter = _level_letter(len(spec.levels) + 1)
    for parent in parents:
        tree._attach(parent, f"{leaf_letter}0", FILE, _FILE_MODE, rng.randint(lo, hi))
    return tree


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
    events = []
    with open(in_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json_line(line))
    return events


class _Universe:
    """Path bookkeeping for the synthesizer; mirrors its own mutations."""

    def __init__(self, tree: DirTree):
        self.files: list[str] = []
        self.dirs: list[str] = []
        self.deepest_dirs: list[str] = []
        max_depth = 0
        stack = [(tree.root, "", 0)]
        while stack:
            d, text, depth = stack.pop()
            if d.kind == FILE:
                self.files.append(text)
                continue
            if d.parent is not None:
                self.dirs.append(text)
                max_depth = max(max_depth, depth)
            for c in sorted(d.children.values(), key=lambda x: x.name):
                stack.append((c, f"{text}/{c.name}", depth + 1))
        dir_file_depth = max((p.count("/") for p in self.files), default=1)
        self.deepest_dirs = [p for p in self.dirs if p.count("/") == dir_file_depth - 1]
        self.files.sort()
        self.dirs.sort()
        self.deepest_dirs.sort()
        # every path list a rename must update; the synthesizer adds its own
        self.pools = [self.files, self.dirs, self.deepest_dirs]

    def apply_rename(self, old: str, new: str) -> None:
        """Move `old` and every path under it to `new`, as the tree will."""
        under = old + "/"
        cut = len(old)
        for pool in self.pools:
            for i, p in enumerate(pool):
                if p == old or p.startswith(under):
                    pool[i] = new + p[cut:]


def _check_synth_params(p: dict) -> None:
    if int(p["n_events"]) < 0:
        raise ConfigError(f"n_events must be >= 0, got {p['n_events']}")
    for key, value in p.items():
        if key.startswith("p_") and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1], got {value}")
    # fsum: 0.1 + 0.2 + 0.7 rounds above 1 when summed left to right
    if math.fsum((p["p_rename"], p["p_chmod"], p["p_create"])) > 1.0:
        raise ConfigError("p_rename + p_chmod + p_create must be <= 1")
    ranks = int(p["hot_dirs"])
    if ranks < 1:
        raise ConfigError(f"hot_dirs must be >= 1, got {p['hot_dirs']}")
    # a tree gives at most hot_dirs ranks, and the weights are monotone in
    # rank, so the first and the last rank bound every weight and the total
    s = float(p["zipf_s"])
    try:
        bound = ranks * (_zipf_weight(0, s) + _zipf_weight(ranks - 1, s))
    except ArithmeticError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ConfigError(f"zipf_s {s} gives no finite Zipf weights over {ranks} hot dirs")


def _zipf_weight(rank: int, s: float) -> float:
    return 1.0 / (rank + 1) ** s


def synth_trace(
    tree: DirTree,
    model: str,
    params: Optional[dict] = None,
    seed: int = 0,
) -> list[TraceEvent]:
    """Deterministic event stream over a generated tree.

    Models: "uniform" targets leaves uniformly; "hotdir-zipf" concentrates
    targets under `hot_dirs` directories with Zipf exponent `zipf_s`;
    "replay-like" emits bursts of opens separated by compressed four-second
    gaps. Mutation mix is controlled by p_rename / p_chmod / p_create
    (renames pick files or directories, always to fresh names). Raises
    ConfigError on a negative event count, a probability outside [0, 1],
    mutation probabilities that sum above 1, fewer than one hot dir, or a
    `zipf_s` whose weights over `hot_dirs` ranks are not all finite.
    """
    if model not in ("uniform", "hotdir-zipf", "replay-like"):
        raise ConfigError(f"unknown trace model {model!r}")
    p = {
        "n_events": 10_000,
        "p_rename": 0.0,
        "p_chmod": 0.0,
        "p_create": 0.0,
        "p_stat": 0.55,
        "hot_dirs": 8,
        "zipf_s": 1.0,
        "burst_len": 64,
        "gap_ms": 4000,
        "step_ms": 1,
    }
    p.update(params or {})
    _check_synth_params(p)
    rng = random.Random(seed)
    uni = _Universe(tree)
    events: list[TraceEvent] = []
    at_ms = 0
    rename_seq = 0
    create_seq = 0

    k = max(1, min(int(p["hot_dirs"]), len(uni.deepest_dirs)))
    hot = rng.sample(uni.deepest_dirs, k)
    weights = [_zipf_weight(rank, float(p["zipf_s"])) for rank in range(k)]
    hot_children = [[f for f in uni.files if f.rsplit("/", 1)[0] == hd] or [hd] for hd in hot]
    uni.pools += hot_children

    def pick_target() -> str:
        if model == "uniform":
            return rng.choice(uni.files)
        kids = rng.choices(hot_children, weights=weights, k=1)[0]
        return rng.choice(kids)

    p_mut = p["p_rename"] + p["p_chmod"] + p["p_create"]
    for i in range(int(p["n_events"])):
        if model == "replay-like" and i and i % int(p["burst_len"]) == 0:
            at_ms += int(p["gap_ms"])
        else:
            at_ms += int(p["step_ms"])
        roll = rng.random()
        if roll < p["p_rename"]:
            old = rng.choice(uni.files) if rng.random() < 0.5 else rng.choice(uni.dirs)
            parent, _, _name = old.rpartition("/")
            rename_seq += 1
            new = f"{parent}/r{rename_seq}"
            events.append(TraceEvent("rename", old, at_ms, new_path=new))
            uni.apply_rename(old, new)
        elif roll < p["p_rename"] + p["p_chmod"]:
            target = rng.choice(uni.dirs) if rng.random() < 0.8 else rng.choice(uni.files)
            events.append(TraceEvent("chmod", target, at_ms, mode=rng.choice(_CHMOD_MODES)))
        elif roll < p_mut:
            parent = rng.choice(uni.dirs)
            create_seq += 1
            new = f"{parent}/n{create_seq}"
            events.append(TraceEvent("create", new, at_ms, mode=_FILE_MODE))
            uni.files.append(new)
        else:
            op = "stat" if rng.random() < p["p_stat"] else "open"
            events.append(TraceEvent(op, pick_target(), at_ms))
    return events


# -- replay -------------------------------------------------------------------


def make_resolver(
    strategy: str,
    tree: DirTree,
    pool_size: int = 16,
    heat_threshold: int = 4,
    heat_capacity: int = 64,
    metrics: Optional[Metrics] = None,
) -> _ResolverBase:
    if strategy == "original":
        return OriginalLookup(tree, metrics)
    if strategy == "fullpath":
        return FullPathCache(tree, metrics)
    if strategy == "stage":
        return StageLookupEngine(
            tree,
            pool_size=pool_size,
            heat_threshold=heat_threshold,
            heat_capacity=heat_capacity,
            metrics=metrics,
        )
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


@dataclass(slots=True)
class ReplayResult:
    metrics: Metrics
    outcomes: Optional[list[str]]
    resolver: _ResolverBase


def replay(
    trace: Sequence[TraceEvent],
    strategy: str,
    tree: DirTree,
    cred: Credential = Credential.OWNER,
    manual_tick: bool = False,
    tick_every: int = 1000,
    period_ms: int = 2000,
    record_outcomes: bool = False,
    **resolver_kwargs,
) -> ReplayResult:
    """Execute every event against one strategy; counters are fully determined
    by (tree, trace, strategy, config, tick schedule)."""
    resolver = make_resolver(strategy, tree, **resolver_kwargs)
    outcomes: Optional[list[str]] = [] if record_outcomes else None
    ticks_fired = 0
    started = time.perf_counter()
    for i, ev in enumerate(trace):
        if manual_tick:
            if tick_every and i and i % tick_every == 0:
                resolver.tick()
        else:
            while (ev.at_ms // period_ms) > ticks_fired:
                resolver.tick()
                ticks_fired += 1
        try:
            if ev.op in ("stat", "open"):
                fn = resolver.stat if ev.op == "stat" else resolver.open
                res = fn(PathBuf.parse(ev.path), cred)
                out = f"ok:{res.node_id}" if ev.op == "stat" else "ok:open"
            else:
                out = _apply_mutation(tree, ev)
        except EngineError as exc:
            out = f"err:{type(exc).__name__}"
        if outcomes is not None:
            outcomes.append(out)
    resolver.metrics.wall_time["replay"] = time.perf_counter() - started
    return ReplayResult(resolver.metrics, outcomes, resolver)


def equivalence_run(
    trace: Sequence[TraceEvent],
    tree: DirTree,
    strategies: Sequence[str] = STRATEGIES,
    cred: Credential = Credential.OWNER,
    tick_every: int = 1000,
    **resolver_kwargs,
) -> tuple[list[tuple[int, str, list[str]]], dict[str, Metrics]]:
    """Run all strategies side by side on one shared tree, mutating it once
    per event, and report every event where the per-strategy outcomes differ."""
    resolvers = [(s, make_resolver(s, tree, **resolver_kwargs)) for s in strategies]
    mismatches: list[tuple[int, str, list[str]]] = []
    for i, ev in enumerate(trace):
        if tick_every and i and i % tick_every == 0:
            for _, r in resolvers:
                r.tick()
        if ev.op in ("stat", "open"):
            path = PathBuf.parse(ev.path)
            results = []
            for _, r in resolvers:
                try:
                    results.append(f"ok:{r.lookup(path, cred)}")
                except EngineError as exc:
                    results.append(f"err:{type(exc).__name__}")
            if len(set(results)) != 1:
                mismatches.append((i, ev.path, results))
        else:
            try:
                _apply_mutation(tree, ev)
            except EngineError:
                pass  # e.g. rename of an already renamed-away path; same for everyone
    return mismatches, {s: r.metrics for s, r in resolvers}


# -- reporting ----------------------------------------------------------------


def report(runs: Sequence[tuple[str, Metrics]]) -> tuple[str, str]:
    """Build the comparison table (text) and its CSV form.

    The CSV holds only deterministic counters; wall times appear in the text
    table. Runs beyond the first get a ratio column against the first run.
    """
    if not runs:
        raise ConfigError("report needs at least one run")
    labels = [label for label, _ in runs]
    rows = [m.counter_rows() for _, m in runs]
    names = [name for name, _ in rows[0]]
    ratio_labels = [f"{lab}_vs_{labels[0]}" for lab in labels[1:]]

    csv_lines = ["metric," + ",".join(labels + ratio_labels)]
    table_rows: list[list[str]] = []
    for r, name in enumerate(names):
        vals = [rows[c][r][1] for c in range(len(runs))]
        ratios = []
        for v in vals[1:]:
            try:
                base = float(vals[0])
                ratios.append(f"{float(v) / base:.4f}" if base else "")
            except ValueError:
                ratios.append("")
        csv_lines.append(",".join([name] + [_csv_quote(v) for v in vals] + ratios))
        table_rows.append([name] + vals + ratios)
    for label, m in runs:
        for phase, secs in sorted(m.wall_time.items()):
            table_rows.append([f"wall.{label}.{phase}", f"{secs:.3f}s"] + [""] * (len(runs) - 1 + len(ratio_labels)))

    header = ["metric"] + labels + ratio_labels
    widths = [max(len(str(row[c])) for row in [header] + table_rows) for c in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    table_lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    table_lines += [fmt.format(*(row + [""] * (len(header) - len(row)))) for row in table_rows]
    return "\n".join(table_lines) + "\n", "\n".join(csv_lines) + "\n"


def _csv_quote(value: str) -> str:
    if "," in value or '"' in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def parse_metrics_csv(text: str) -> dict[str, dict[str, str]]:
    """Inverse of the CSV emitted by report(); ratio columns are skipped."""
    import csv as _csv
    import io

    reader = _csv.reader(io.StringIO(text))
    header = next(reader)
    labels = [h for h in header[1:] if "_vs_" not in h]
    out: dict[str, dict[str, str]] = {lab: {} for lab in labels}
    for row in reader:
        for i, lab in enumerate(labels):
            out[lab][row[0]] = row[i + 1]
    return out


# -- stage-two depth sweep (counter analogue of the latency-vs-depth study) ----

BENCH_POOL_SIZES = (1, 2, 4, 8, 16)


def bench_depth_grid(
    pool_sizes: Sequence[int] = BENCH_POOL_SIZES,
    stage_two_lengths: Sequence[int] = tuple(range(9)),
    reps: int = 50,
    measure_wall: bool = False,
) -> list[dict]:
    """For depth-8 paths, sweep how many components Stage Two must walk (k)
    against pool sizes; emits one row per (k, pool size) plus the baseline.

    The covering pivot sits at depth 8-k; the rest of the pool is decoys from
    a disjoint subtree, so pool size changes only the Stage One probe cost.
    k == 8 means no pivot covers the path and the walk falls back entirely.
    Raises ConfigError when `reps` is below 1.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    spec = TreeSpec(levels=[2] * 7, file_size_range=(0, 0), seed=7)
    tree = gen_tree(spec)
    target = PathBuf.parse("/a0/b0/c0/d0/e0/f0/g0/h0")
    assert target.depth == 8

    decoy_root = tree._resolve_admin(PathBuf.parse("/a1"))
    decoys = [d for d in tree.iter_subtree(decoy_root) if d.kind == DIR and tree.materialize_path(d).depth == 7]
    decoys.sort(key=lambda d: tree.materialize_path(d).text)

    base = OriginalLookup(tree)
    for _ in range(reps):
        base.stat(target)
    original_visited = base.metrics.dentries_visited // reps

    rows: list[dict] = []
    for pool_size in pool_sizes:
        for k in stage_two_lengths:
            engine = StageLookupEngine(tree, pool_size=pool_size)
            cands: list[Dentry] = []
            if k < 8:
                cover = tree._resolve_admin(PathBuf(target.components[: 8 - k]))
                cands.append(cover)
            cands.extend(decoys[: pool_size - len(cands)])
            engine.manager.publish_pool(build_pool(cands, pool_size))

            stats = ScanStats()
            find_best_pivot(engine.manager.working_pool, target, stats)
            walked = set()
            results = set()
            t0 = time.perf_counter()
            for _ in range(reps):
                res = engine.stage_lookup(target)
                walked.add(res.walked_components)
                results.add(res.target)
            elapsed = time.perf_counter() - t0
            rows.append(
                {
                    "stage_two": k,
                    "pool_size": pool_size,
                    "walked_components": walked.pop() if len(walked) == 1 else sorted(walked),
                    "target": results.pop() if len(results) == 1 else sorted(results),
                    "pivots_visited": stats.pivots_visited,
                    "stage_one_chars": stats.char_comparisons,
                    "original_visited": original_visited,
                    "wall_s": elapsed if measure_wall else None,
                }
            )
    return rows


def grid_csv(rows: Sequence[dict]) -> str:
    cols = ["stage_two", "pool_size", "walked_components", "target", "pivots_visited", "stage_one_chars", "original_visited"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(str(r[c]) for c in cols))
    return "\n".join(lines) + "\n"


# -- concurrency soak -----------------------------------------------------------


@dataclass(slots=True)
class SoakReport:
    ticks: int = 0
    swaps: int = 0
    renames: int = 0
    lookups: int = 0
    selections: int = 0
    reclaim_pending: int = 0
    contract_violations: list[str] = field(default_factory=list)
    audit_violations: list[str] = field(default_factory=list)
    pool_violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.contract_violations or self.audit_violations or self.pool_violations)


def run_soak(
    tree: DirTree,
    engine: StageLookupEngine,
    hot_paths: Sequence[str],
    mutate_dirs: Sequence[str],
    n_readers: int = 8,
    n_ticks: int = 10_000,
    tick_cadence_s: float = 0.0005,
    mutate_sleep_s: float = 0.003,
    seed: int = 0,
) -> SoakReport:
    """Readers, one rename mutator, and the ticking manager, run concurrently.

    Every pivot selection is logged with a global sequence number taken before
    the read-side entry; every rename logs its number after its invalidation
    completed. The post-hoc audit flags any selection of a pivot covered by a
    rename that had completed before the reader entered (renamed paths are
    never reused, so rebuilt pools cannot legally recreate them).
    """
    report_ = SoakReport()
    seq = itertools.count(1)
    stop = threading.Event()
    mutation_log: list[tuple[int, str]] = []
    fresh_paths: list[str] = list(hot_paths)
    selections: list[tuple[int, str]] = []
    sel_lock = threading.Lock()
    counters_lock = threading.Lock()

    def reader(tid: int) -> None:
        rng = random.Random(seed * 1009 + tid)
        local_sel: list[tuple[int, str]] = []
        local_lookups = 0
        local_errors: list[str] = []
        while not stop.is_set():
            pool = fresh_paths
            text = pool[rng.randrange(len(pool))]
            eseq = next(seq)
            try:
                res = engine.stage_lookup(PathBuf.parse(text))
                if res.pivot_used is not None:
                    local_sel.append((eseq, res.pivot_used))
            except EngineError as exc:
                if exc.__class__.__name__ in ("NotFound", "PermissionDenied"):
                    pass
                else:
                    local_errors.append(f"reader{tid}: {type(exc).__name__}: {exc}")
            local_lookups += 1
        with sel_lock:
            selections.extend(local_sel)
        with counters_lock:
            report_.lookups += local_lookups
            report_.contract_violations.extend(local_errors)

    def mutator() -> None:
        current = {d: d for d in mutate_dirs}
        n = 0
        while not stop.is_set():
            for base in mutate_dirs:
                if stop.is_set():
                    break
                old = current[base]
                n += 1
                parent, _, _ = old.rpartition("/")
                new = f"{parent}/{base.rsplit('/', 1)[1]}_m{n}"
                try:
                    tree.rename_node(PathBuf.parse(old), PathBuf.parse(new))
                except EngineError:
                    continue
                mutation_log.append((next(seq), old))
                current[base] = new
                fresh = tree._resolve_admin(PathBuf.parse(new))
                kids = list(fresh.children.values()) if fresh.children else []
                fresh_paths.append(f"{new}/{kids[0].name}" if kids else new)
                report_.renames += 1
                if mutate_sleep_s:
                    time.sleep(mutate_sleep_s)
                else:
                    time.sleep(0)

    def manager() -> None:
        for _ in range(n_ticks):
            engine.tick()
            report_.ticks += 1
            if tick_cadence_s:
                time.sleep(tick_cadence_s)
            else:
                time.sleep(0)
        stop.set()

    threads = [threading.Thread(target=reader, args=(t,), daemon=True) for t in range(n_readers)]
    threads.append(threading.Thread(target=mutator, daemon=True))
    threads.append(threading.Thread(target=manager, daemon=True))
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    report_.swaps = engine.manager.swaps
    report_.selections = len(selections)

    # post-hoc audit of every pivot selection against the mutation log
    selections.sort(key=lambda s: s[0])
    mutated: set[str] = set()
    mi = 0
    for eseq, pivot_path in selections:
        while mi < len(mutation_log) and mutation_log[mi][0] < eseq:
            mutated.add(mutation_log[mi][1])
            mi += 1
        parts = pivot_path.split("/")[1:]
        probe = ""
        for name in parts:
            probe += "/" + name
            if probe in mutated:
                report_.audit_violations.append(f"selection@{eseq} used {pivot_path} covered by {probe}")
                break

    if engine.manager.active_reader_count != 0:
        report_.contract_violations.append("tokens leaked after soak")
    engine.manager.reclaim()
    report_.reclaim_pending = engine.manager.reclaim_queue.pending
    report_.pool_violations = verify_pool(engine.manager.working_pool)
    try:
        with engine.heat_lock:
            engine.candidates.validate()
    except EngineError as exc:
        report_.contract_violations.append(f"candidate set: {exc}")
    return report_
