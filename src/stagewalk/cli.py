"""Command-line entry point.

Subcommands: gen-tree, synth, replay, compare, bench-depth. All flags are
long-form with defaults; exit codes: 0 success, 2 config error, 3 IO error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import ConfigError, ContractViolation, EngineError, SpecInvalid, TraceMalformed
from .workload import (
    STRATEGIES,
    TreeSpec,
    bench_depth_grid,
    check_stage_settings,
    check_synth_settings,
    check_tick_schedule,
    gen_tree,
    grid_csv,
    make_resolver,
    read_trace,
    replay,
    report,
    synth_trace,
    write_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pool-size", type=int, default=16)
    p.add_argument("--heat-threshold", type=int, default=4)
    p.add_argument("--heat-capacity", type=int, default=64)
    ticks = p.add_mutually_exclusive_group()
    ticks.add_argument("--period-ms", type=int, help="tick once per this much trace time (default 2000)")
    ticks.add_argument("--tick-every", type=int, help="tick every this many events instead of by trace time")


def _load_spec(path: str) -> TreeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return TreeSpec.from_json(fh.read())
        except UnicodeDecodeError as exc:
            raise SpecInvalid(f"spec is not UTF-8: {exc}") from None


def cmd_gen_tree(args: argparse.Namespace) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        raise ConfigError(f"--levels takes comma-separated integers, got {args.levels!r}") from None
    lo, _, hi = args.file_size.partition(":")
    try:
        file_size_range = (int(lo), int(hi or lo))
    except ValueError:
        raise ConfigError(f"--file-size takes lo:hi integers, got {args.file_size!r}") from None
    spec = TreeSpec(levels=levels, file_size_range=file_size_range, seed=args.seed)
    tree = gen_tree(spec)
    with open(f"{args.out}.spec.json", "w", encoding="utf-8") as fh:
        fh.write(spec.to_json() + "\n")
    with open(f"{args.out}.tree.txt", "w", encoding="utf-8") as fh:
        fh.write(tree.canonical_dump())
    print(f"tree: {tree.node_count} nodes -> {args.out}.spec.json, {args.out}.tree.txt")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    settings = dict(
        n_events=args.events,
        p_rename=args.p_rename,
        p_chmod=args.p_chmod,
        p_create=args.p_create,
        hot_dirs=args.hot_dirs,
        zipf_s=args.zipf_s,
    )
    check_synth_settings(args.model, **settings)
    events = synth_trace(gen_tree(_load_spec(args.tree)), args.model, seed=args.seed, **settings)
    write_trace(events, args.out)
    print(f"trace: {len(events)} events -> {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    """`replay` runs `--strategy`, `compare` every strategy in `STRATEGIES`
    order, each on a fresh tree of the spec, after checking every setting."""
    spec = _load_spec(args.tree)
    trace = read_trace(args.trace)
    check_stage_settings(args.pool_size, args.heat_threshold, args.heat_capacity)
    check_tick_schedule(args.tick_every, args.period_ms)
    runs, walls = [], []
    for strategy in (args.strategy,) if args.command == "replay" else STRATEGIES:
        resolver = make_resolver(
            strategy,
            gen_tree(spec),
            pool_size=args.pool_size,
            heat_threshold=args.heat_threshold,
            heat_capacity=args.heat_capacity,
        )
        started = time.perf_counter()
        replay(trace, resolver, tick_every=args.tick_every, period_ms=args.period_ms)
        walls.append(f"wall.{strategy}.replay  {time.perf_counter() - started:.3f}s\n")
        runs.append((strategy, resolver.metrics))
    table, csv_text = report(runs)
    print(table + "".join(walls), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"metrics -> {args.out}")
    return EXIT_OK


def cmd_bench_depth(args: argparse.Namespace) -> int:
    text = grid_csv(bench_depth_grid())
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"grid -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stagewalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tree", help="generate a directory tree spec + dump")
    p.add_argument("--levels", default="10,10,10,10,10", help="comma-separated fanout per level")
    p.add_argument("--file-size", default="4096:4096", help="lo:hi leaf file size bytes")
    p.add_argument("--out", default="tree", help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_tree)

    p = sub.add_parser("synth", help="synthesize a trace over a tree spec")
    p.add_argument("--tree", required=True, help="tree spec JSON file")
    p.add_argument("--model", choices=("uniform", "hotdir-zipf", "replay-like"), default="hotdir-zipf")
    p.add_argument("--events", type=int, default=10_000)
    p.add_argument("--hot-dirs", type=int, default=8)
    p.add_argument("--zipf-s", type=float, default=1.0)
    p.add_argument("--p-rename", type=float, default=0.0)
    p.add_argument("--p-chmod", type=float, default=0.0)
    p.add_argument("--p-create", type=float, default=0.0)
    p.add_argument("--out", default="trace.jsonl")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("replay", help="replay a trace with one strategy")
    p.add_argument("--tree", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default="", help="metrics CSV output path")
    p.add_argument("--strategy", choices=STRATEGIES, default="stage")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="replay the same inputs under every strategy")
    p.add_argument("--tree", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default="")
    _add_run_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench-depth", help="stage-two length x pool size counter grid")
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_bench_depth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, SpecInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, TraceMalformed) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ContractViolation, EngineError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
