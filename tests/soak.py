"""The concurrency soak of acceptance criterion 7: readers, one rename
mutator and the ticking manager on one threadsafe tree, with a post-hoc audit
of every pivot selection."""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from stagewalk import DirTree, PathBuf, StageLookupEngine
from stagewalk.errors import EngineError, NotFound, PermissionDenied
from stagewalk.pivots import verify_pool


@dataclass(slots=True)
class SoakReport:
    ticks: int = 0
    swaps: int = 0
    renames: int = 0
    lookups: int = 0
    selections: int = 0
    retries: int = 0
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
    never reused, so rebuilt pools cannot legally recreate them). `retries`
    is the engine's `fallbacks`: lookups a modification raced, which dropped
    their pivot's result and walked again from the root.
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
            except (NotFound, PermissionDenied):
                pass
            except EngineError as exc:
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
                time.sleep(mutate_sleep_s)

    def manager() -> None:
        for _ in range(n_ticks):
            engine.tick()
            report_.ticks += 1
            time.sleep(tick_cadence_s)
        stop.set()

    threads = [threading.Thread(target=reader, args=(t,), daemon=True) for t in range(n_readers)]
    threads.append(threading.Thread(target=mutator, daemon=True))
    threads.append(threading.Thread(target=manager, daemon=True))
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    report_.swaps = engine.manager.swaps
    report_.retries = engine.metrics.fallbacks
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
            engine.apply_heat()  # the lookups since the last tick, logged but not yet applied
            engine.candidates.validate()
    except EngineError as exc:
        report_.contract_violations.append(f"candidate set: {exc}")
    return report_
