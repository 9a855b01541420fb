"""Replay benchmark: the three lookup strategies on one seeded trace.

    python3 bench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Closed loop, one client: each event starts when the previous one returned.
Every event goes through the package's public API on one fresh resolver
(`make_resolver`, `.stat` / `.open`, `.tick`, `DirTree.rename_node` /
`.chmod_node`) over a fresh `SIX_LEVEL_PRESET` tree.

`--trace 0` replays the trace under all three strategies, period by period in
turn, in each of `ROUNDS` rounds with fresh trees, and reports the end-to-end
metrics, timed at one reference machine speed (see `GAUGE_REF_NS`).
`--trace 1` replays a shorter trace twice per strategy, plain and with spans
around the layer entry points, and reports per-layer metrics and the tracing
overhead. Both check that every strategy's outcome of every event
equals `original`'s, and that the deterministic counters repeat exactly across
the replays of one strategy. The last line of stdout is one JSON object; a
failed check prints it with `"correct": false` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

ROUNDS = 3
# operations per --seconds, sized on a 2-core x86-64 machine (Python 3.11) so
# that ROUNDS untraced replays of all three strategies take about --seconds
OPS_PER_SECOND = {"hot-read": 9_000, "cold-read": 5_000, "churn": 8_000}
# a traced run replays this share of that trace twice (plain and traced)
TRACED_SHARE = 0.5
# Shared machines run the same code at different speeds as neighbours come and
# go. On the 2-vCPU reference machine speed flips between a fast state and one
# 1.4-2x slower, in stretches from under a millisecond to minutes, and some
# runs never see the fast state; a plain wall time then moves by up to 2x
# between runs. So every timing is scaled to one reference speed: `gauge()`
# times a fixed piece of pure-Python work that owes nothing to the package
# before and after every CHUNK events of every replay, and each time measured
# in a chunk is multiplied by GAUGE_REF_NS / (mean of the chunk's two gauges).
# The ROUNDS replays of one strategy do identical work on identical fresh
# trees, so each event's (and each chunk's) time is then the smaller of its
# ROUNDS scaled times. No event and no chunk is ever left out.
# Set-up is one long call per tree, so it is scaled by the mean of gauges
# sampled every SAMPLE_S seconds from a timer signal while it runs.
GAUGE_REF_NS = 10_500  # gauge() on the reference machine in its fast state
CHUNK = 143  # events between two gauges; 7 chunks make one tick period
SAMPLE_S = 0.02

_GAUGE_KEYS = tuple(f"/g{i}" for i in range(256))
_GAUGE_MAP = {k: i for i, k in enumerate(_GAUGE_KEYS)}


def gauge() -> int:
    """Nanoseconds a fixed piece of pure-Python work takes: the machine's
    speed at this moment, whatever the package does.

    The work allocates nothing, so it never sets off a collection of what the
    package left behind, and an untimed first pass brings its table back
    into the caches the package evicted."""
    clock, table = time.perf_counter_ns, _GAUGE_MAP
    for k in _GAUGE_KEYS:
        table[k] - len(k)
    t0 = clock()
    for k in _GAUGE_KEYS:
        table[k] - len(k)
    return clock() - t0


class SpeedSampler:
    """Samples `gauge()` at the start and end of a `with` block and every
    SAMPLE_S seconds in between; `factor` is then GAUGE_REF_NS / their mean."""

    def __enter__(self) -> SpeedSampler:
        self.samples = [gauge()]
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.samples.append(gauge()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(gauge())
        self.factor = GAUGE_REF_NS / statistics.mean(self.samples)


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import stagewalk
    except ImportError as exc:
        sys.exit(f"bench: cannot import stagewalk from {SRC}: {exc}")
    if not os.path.abspath(stagewalk.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: stagewalk imported from {stagewalk.__file__}, not from {SRC}")
    return stagewalk


sw = _import_package()
from spans import Tracer  # noqa: E402
from workloads import LOOKUP_OPS, TICK_EVERY, WORKLOADS, make_trace  # noqa: E402

PERIOD = TICK_EVERY + 1  # events in one tick period: the operations and their tick


class Replayer:
    """One fresh tree and resolver, replaying a trace one tick period at a time.

    Building the tree and resolver is the timed set-up. The tree is then
    frozen out of the garbage collector until the replay ends, so a full
    collection never walks it (nor the other strategies' trees, which are
    alive at the same time): the timings leave out what a program holding
    one such tree would pay for the collector traversing it.
    """

    def __init__(self, strategy: str, tracer: Tracer | None = None):
        self.strategy = strategy
        self.tracer = tracer
        gc.collect()
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            self.tree = sw.gen_tree(sw.SIX_LEVEL_PRESET)
            t1 = time.perf_counter()
            self.resolver = sw.make_resolver(strategy, self.tree)
            t2 = time.perf_counter()
        self.setup_s = (t2 - t0) * speed.factor  # at the reference speed
        self.gen_tree_s = t1 - t0  # wall time, like every per-layer time
        gc.freeze()
        self.event_ns = array("q")  # every event, ticks included
        self.period_ns = array("q")
        self.chunk_ns = array("q")
        self.chunk_events = array("q")
        self.chunk_speed = array("d")  # GAUGE_REF_NS / mean of the gauges around each chunk
        self.outcomes: list = []
        self.failed = 0
        self.counters: list = []
        self.stats: dict = {}

    def run(self, period: list) -> None:
        """Closed loop: each event starts when the previous one returned."""
        tracer = self.tracer
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            step = _stepper(self.resolver, self.tree)
            if tracer is not None:
                tracer.begin_period()
                step = tracer.wrap("event", step, root=True)
            clock = time.perf_counter_ns
            error = sw.EngineError
            event_ns, outcomes = self.event_ns, self.outcomes
            period_ns = 0
            before = gauge()
            for start in range(0, len(period), CHUNK):
                chunk = period[start : start + CHUNK]
                begin = clock()
                for op, path, arg in chunk:
                    t0 = clock()
                    try:
                        out = step(op, path, arg)
                    except error as exc:
                        out = type(exc).__name__
                        self.failed += 1
                    event_ns.append(clock() - t0)
                    outcomes.append(out)
                ns = clock() - begin
                after = gauge()
                period_ns += ns
                self.chunk_ns.append(ns)
                self.chunk_events.append(len(chunk))
                self.chunk_speed.append(2 * GAUGE_REF_NS / (before + after))
                before = after
            self.period_ns.append(period_ns)

    def scaled_event_ns(self) -> list[float]:
        """Each event's time at the reference speed."""
        out: list[float] = []
        i = 0
        for n, f in zip(self.chunk_events, self.chunk_speed):
            out += [t * f for t in self.event_ns[i : i + n]]
            i += n
        return out

    def finish(self) -> None:
        """Keep the counters, drop the tree."""
        m = self.resolver.metrics
        self.counters = m.counter_rows()
        self.stats = {
            "lookups": m.lookups,
            "dentries_visited": m.dentries_visited,
            "char_comparisons": m.char_comparisons,
            "pivot_hits": m.pivot_hits,
            "fallbacks": m.fallbacks,
        }
        if self.strategy == "stage":
            manager = self.resolver.manager
            self.counters += [("ticks", str(manager.ticks)), ("swaps", str(manager.swaps))]
            self.stats.update(ticks=manager.ticks, swaps=manager.swaps)
        if self.strategy == "fullpath":
            self.stats["cached_entries"] = self.resolver.cached_entries
        self.tree = self.resolver = None


def _stepper(resolver, tree):
    cred = sw.Credential.OWNER
    parse = sw.PathBuf.parse
    stat, open_, tick = resolver.stat, resolver.open, resolver.tick
    rename, chmod = tree.rename_node, tree.chmod_node

    def step(op, path, arg):
        if op == "stat":
            return stat(parse(path), cred).node_id
        if op == "open":
            return open_(parse(path), cred)
        if op == "tick":
            return tick()
        if op == "rename":
            return rename(parse(path), parse(arg))
        return chmod(parse(path), arg)

    return step


def interleave(replayers: list[Replayer], periods: list[list]) -> None:
    """Replay each period on every replayer in turn, rotating who goes first,
    so that all of them see the same drift in machine speed."""
    k = len(replayers)
    for c, period in enumerate(periods):
        for j in range(k):
            replayers[(c + j) % k].run(period)
    for r in replayers:
        r.finish()
    gc.unfreeze()


def check(replays: list[Replayer]) -> list[str]:
    """Outcome of every event equals original's; counters repeat per strategy."""
    problems = []
    reference = next(r for r in replays if r.strategy == "original").outcomes
    first_counters: dict[str, list] = {}
    for r in replays:
        if r.outcomes != reference:
            i = next((i for i, (a, b) in enumerate(zip(r.outcomes, reference)) if a != b), None)
            if i is None:
                problems.append(f"{r.strategy}: {len(r.outcomes)} outcomes, original has {len(reference)}")
            else:
                problems.append(f"{r.strategy}: event {i} gave {r.outcomes[i]!r}, original gave {reference[i]!r}")
        counters = first_counters.setdefault(r.strategy, r.counters)
        if r.counters != counters:
            problems.append(f"{r.strategy}: counters differ between replays: {counters} vs {r.counters}")
    return problems


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def split(events: list) -> list[list]:
    return [events[i : i + PERIOD] for i in range(0, len(events), PERIOD)]


def run_untraced(workload: str, seed: int, seconds: int) -> tuple[list[Replayer], dict, list[str]]:
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        events = make_trace(workload, seed, OPS_PER_SECOND[workload] * seconds)
        t1 = time.perf_counter()
    trace_s = (t1 - t0) * speed.factor
    replays = []
    for _ in range(ROUNDS):
        replayers = [Replayer(s) for s in sw.STRATEGIES]
        interleave(replayers, split(events))
        replays += replayers
    metrics, notes = end_to_end(replays, events, trace_s)
    return replays, metrics, notes


def end_to_end(replays: list[Replayer], events: list, trace_s: float) -> tuple[dict, list[str]]:
    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    is_lookup = [op in LOOKUP_OPS for op, _path, _arg in events]
    is_mutation = [op not in LOOKUP_OPS and op != "tick" for op, _path, _arg in events]
    for s in sw.STRATEGIES:
        mine = [r for r in replays if r.strategy == s]
        best = [min(ts) for ts in zip(*(r.scaled_event_ns() for r in mine))]
        lookups = [t for t, keep in zip(best, is_lookup) if keep]
        chunk_ns = [min(ts) for ts in zip(*([ns * f for ns, f in zip(r.chunk_ns, r.chunk_speed)] for r in mine))]
        metrics[f"events_per_s.{s}"] = (len(events) / (sum(chunk_ns) / 1e9), "1/s")
        metrics[f"lookup_p50_us.{s}"] = (quantile(lookups, 0.50) / 1e3, "us")
        metrics[f"lookup_p99_us.{s}"] = (quantile(lookups, 0.99) / 1e3, "us")
        notes.append(f"samples.{s} {len(lookups)} lookups, each the faster of {len(mine)} replays")
        mutations = [t for t, keep in zip(best, is_mutation) if keep]
        if mutations:
            notes.append(f"mutation_p99_us.{s} {quantile(mutations, 0.99) / 1e3} us ({len(mutations)} mutations)")
        raw = [t for r in mine for t, keep in zip(r.event_ns, is_lookup) if keep]
        speed = statistics.median(f for r in mine for f in r.chunk_speed)
        notes.append(
            f"unscaled.{s} events_per_s {len(mine) * len(events) / (sum(sum(r.chunk_ns) for r in mine) / 1e9)}"
            f" lookup_p50_us {quantile(raw, 0.5) / 1e3} lookup_p99_us {quantile(raw, 0.99) / 1e3};"
            f" median speed factor {speed:.3f}"
        )
    builds = [r.setup_s for r in replays]
    metrics["setup_s"] = (trace_s + statistics.median(builds), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes.append(f"setup_s: trace {trace_s:.3f} s + median of {len(builds)} tree+resolver builds")
    return metrics, notes


def run_traced(workload: str, seed: int, seconds: int) -> tuple[list[Replayer], dict, list[str]]:
    events = make_trace(workload, seed, int(OPS_PER_SECOND[workload] * seconds * TRACED_SHARE))
    gc.collect()
    tracemalloc.start()
    sw.gen_tree(sw.SIX_LEVEL_PRESET)
    gen_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    os.makedirs(OUT_DIR, exist_ok=True)
    replays = []
    layers = {}
    for s in sw.STRATEGIES:
        tracer = Tracer()
        plain, traced = Replayer(s), Replayer(s, tracer)
        interleave([plain, traced], split(events))
        replays += [plain, traced]
        layers[s] = summarize(tracer, events)
        layers[s]["plain"] = plain
        layers[s]["traced"] = traced
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{s}"))
        del tracer
    metrics, notes = per_layer(layers, replays, events, gen_peak)
    return replays, metrics, notes


class _Acc:
    """Count and summed nanoseconds of one kind of span."""

    __slots__ = ("n", "ns")

    def __init__(self) -> None:
        self.n = 0
        self.ns = 0.0

    def add(self, ns: float) -> None:
        self.n += 1
        self.ns += ns

    @property
    def mean_us(self) -> float:
        return self.ns / self.n / 1e3 if self.n else float("nan")


def summarize(tracer: Tracer, events: list) -> dict:
    """Self times and notes of one strategy's traced replay, grouped by layer."""
    own = tracer.self_times()
    names = [tracer.names[i] for i in tracer.name]
    ordinal = {}  # event span -> index into events
    acc: dict[str, _Acc] = {}
    for i, name in enumerate(names):
        acc.setdefault(name, _Acc()).add(own[i])
        if name == "event":
            ordinal[i] = len(ordinal)
    out = {
        "acc": acc, "stage_two": _Acc(), "stage_two_components": 0, "scan_visited": 0, "scan_chars": 0,
        "scan_buckets": {}, "admitted": 0, "pending_max": 0, "invalidated": 0, "touched": 0,
        "fp_walked": set(), "event_ns": [0.0] * len(events),  # lookup events only
        "cost": tracer.cost,
    }
    matched = {}  # event span -> depth Stage One matched
    for i, note in tracer.notes.items():
        name = names[i]
        if name == "pivots.find_best_pivot":
            pool, depth, visited, chars = note
            out["scan_visited"] += visited
            out["scan_chars"] += chars
            out["scan_buckets"].setdefault((pool, depth), _Acc()).add(own[i])
            matched[tracer.event[i]] = depth
        elif name == "heat.maybe_admit":
            out["admitted"] += note
        elif name == "fullpath.fp_invalidate_subtree":
            out["touched"] += note
        else:  # epoch.periodic_update / epoch.invalidate_for_metadata
            out["pending_max"] = max(out["pending_max"], note[1])
            if name == "epoch.invalidate_for_metadata":
                out["invalidated"] += note[0]
    event_ns = out["event_ns"]
    for i, name in enumerate(names):
        e = tracer.event[i]
        if events[ordinal[e]][0] in LOOKUP_OPS:
            event_ns[ordinal[e]] += own[i]
        if name != "tree.walk_from":
            continue
        depth = matched.get(e, 0)
        if depth:  # walked on from the pivot's component: Stage Two
            out["stage_two"].add(own[i])
            out["stage_two_components"] += events[ordinal[e]][1].count("/") - depth
        parent = tracer.parent[i]
        if parent >= 0 and names[parent] == "fullpath.fp_lookup":
            out["fp_walked"].add(parent)
    return out


def per_layer(layers: dict, replays: list[Replayer], events: list, gen_peak: int) -> tuple[dict, list[str]]:
    m: dict[str, tuple[float, str]] = {}
    notes: list[str] = []

    def pooled(name: str) -> _Acc:
        total = _Acc()
        for lay in layers.values():
            a = lay["acc"].get(name)
            if a is not None:
                total.n += a.n
                total.ns += a.ns
        return total

    def mean(name: str, s: str) -> _Acc:
        return layers[s]["acc"].get(name, _Acc())

    m["paths.parse_us"] = (pooled("paths.parse").mean_us, "us")
    walk_ns = mean("tree.walk_from", "original").ns
    walk_comps = layers["original"]["plain"].stats["dentries_visited"]
    m["tree.walk_us_per_component"] = (walk_ns / walk_comps / 1e3, "us")
    notes.append(f"tree.walk_us_per_component base: {walk_comps} components walked by original")
    for s in sw.STRATEGIES:
        st = layers[s]["plain"].stats
        m[f"tree.dentries_visited_per_lookup.{s}"] = (st["dentries_visited"] / st["lookups"], "count")
        m[f"tree.char_comparisons_per_lookup.{s}"] = (st["char_comparisons"] / st["lookups"], "count")
    m["tree.gen_tree_s"] = (statistics.median(r.gen_tree_s for r in replays), "s")
    m["tree.gen_tree_peak_mb"] = (gen_peak / 2**20, "MB")
    for span, label in (("tree.rename_node", "tree.rename_us"), ("tree.chmod_node", "tree.chmod_us")):
        a = pooled(span)
        notes.append(f"{label} {a.mean_us} us (self time without hooks; n={a.n})")

    stage = layers["stage"]
    st = stage["plain"].stats
    scan = mean("pivots.find_best_pivot", "stage")
    m["pivots.stage_one_us"] = (scan.mean_us, "us")
    m["pivots.pivots_visited_per_scan"] = (stage["scan_visited"] / scan.n, "count")
    m["pivots.stage_one_chars_per_scan"] = (stage["scan_chars"] / scan.n, "count")
    for (pool, depth), a in sorted(stage["scan_buckets"].items()):
        notes.append(f"pivots.stage_one_us[pool={pool},depth={depth}] {a.mean_us} us (n={a.n})")
    m["pivots.build_pool_us"] = (mean("pivots.build_pool", "stage").mean_us, "us")

    m["engine.pivot_hit_ratio"] = (st["pivot_hits"] / st["lookups"], "ratio")
    notes.append(f"engine.pivot_hit_ratio base: {st['pivot_hits']} hits / {st['lookups']} lookups")
    m["engine.fallbacks"] = (st["fallbacks"], "count")
    two = stage["stage_two"]
    notes.append(f"engine.stage_two_us {two.mean_us} us (n={two.n} Stage Two walks)")
    notes.append(
        f"engine.stage_two_components_per_lookup {stage['stage_two_components'] / st['lookups']}"
        f" ({stage['stage_two_components']} components / {st['lookups']} lookups)"
    )

    admit = mean("heat.maybe_admit", "stage")
    m["heat.observe_us"] = (mean("heat.observe_target", "stage").mean_us, "us")
    m["heat.admit_ratio"] = (stage["admitted"] / admit.n if admit.n else 0.0, "ratio")
    m["heat.maybe_admit_calls"] = (admit.n, "count")
    notes.append(f"heat.admit_ratio base: {stage['admitted']} admitted or replaced / {admit.n} maybe_admit calls")

    enter, leave = mean("epoch.reader_enter", "stage"), mean("epoch.reader_exit", "stage")
    m["epoch.reader_token_us"] = ((enter.ns + leave.ns) / enter.n / 1e3, "us")
    m["epoch.tick_us"] = (mean("epoch.periodic_update", "stage").mean_us, "us")
    m["epoch.swap_ratio"] = (st["swaps"] / st["ticks"], "ratio")
    notes.append(f"epoch.swap_ratio base: {st['swaps']} swaps / {st['ticks']} ticks")
    inval = mean("epoch.invalidate_for_metadata", "stage")
    notes.append(f"epoch.invalidate_us {inval.mean_us} us (n={inval.n})")
    if inval.n:
        notes.append(
            f"epoch.pivots_invalidated_per_mutation {stage['invalidated'] / inval.n}"
            f" ({stage['invalidated']} pivots / {inval.n} mutations)"
        )
    m["epoch.reclaim_pending_max"] = (stage["pending_max"], "count")

    fp = layers["fullpath"]
    fp_lookup = mean("fullpath.fp_lookup", "fullpath")
    hits = fp_lookup.n - len(fp["fp_walked"])
    m["fullpath.hit_ratio"] = (hits / fp_lookup.n, "ratio")
    notes.append(f"fullpath.hit_ratio base: {hits} hits / {fp_lookup.n} lookups")
    m["fullpath.lookup_us"] = (fp_lookup.mean_us, "us")
    fp_inval = mean("fullpath.fp_invalidate_subtree", "fullpath")
    notes.append(f"fullpath.invalidate_us {fp_inval.mean_us} us (n={fp_inval.n})")
    if fp_inval.n:
        notes.append(
            f"fullpath.entries_touched_per_mutation {fp['touched'] / fp_inval.n}"
            f" ({fp['touched']} entries / {fp_inval.n} mutations)"
        )
    m["fullpath.cached_entries"] = (fp["plain"].stats["cached_entries"], "count")

    for s in sw.STRATEGIES:
        plain, traced, event_ns = layers[s]["plain"], layers[s]["traced"], layers[s]["event_ns"]
        speed, accounted = [], []
        for c in range(len(plain.period_ns)):
            speed.append(plain.period_ns[c] / traced.period_ns[c])
            span = slice(c * PERIOD, (c + 1) * PERIOD)
            ops = (op for op, _path, _arg in events[span])
            lookup_plain = sum(t for t, op in zip(plain.event_ns[span], ops) if op in LOOKUP_OPS)
            accounted.append(sum(event_ns[span]) / lookup_plain)
        m[f"trace.events_per_s_ratio.{s}"] = (statistics.median(speed), "ratio")
        m[f"trace.accounted_share.{s}"] = (statistics.median(accounted), "ratio")
    costs = [c for lay in layers.values() for c in lay["cost"]]
    inner, outer = statistics.median(c[0] for c in costs), statistics.median(c[1] for c in costs)
    m["trace.span_overhead_us"] = (outer / 1e3, "us")
    notes.append(f"span cost, median over periods: {inner:.0f} ns inside each span, {outer:.0f} ns added to its caller")
    notes.append("trace.events_per_s_ratio: traced / plain events per second, median over periods")
    notes.append(
        "trace.accounted_share: summed self times of a period's lookups, less span overhead,"
        " / its plain lookup time, median over periods"
    )
    return m, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    run = run_traced if args.trace else run_untraced
    replays, metrics, notes = run(args.workload, args.seed, args.seconds)
    problems = check(replays)
    attempted = sum(len(r.outcomes) for r in replays)
    failed = sum(r.failed for r in replays)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in notes:
        print(line)
    print(f"error_share {failed / attempted} ({failed} failed / {attempted} events attempted)")
    for s in sw.STRATEGIES:
        counters = next(r.counters for r in replays if r.strategy == s)
        print(f"counters.{s} " + " ".join(f"{k}={v}" for k, v in counters))
    for p in problems:
        print(f"MISMATCH {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
