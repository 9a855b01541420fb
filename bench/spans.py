"""In-memory spans around the package's public layer entry points.

`Tracer.installed()` wraps the entry points named in `ENTRY_POINTS` for the
duration of a `with` block and puts the originals back afterwards. Each span
records its name, start, end, parent span and the event it belongs to; an
optional note function keeps what the call received or returned (pool size,
match depth, scan counts, swap outcome) for the per-layer ratios.

Self time is a span's duration minus the durations of its child spans. The
wrapper itself costs time: `inner` ns land inside every span, and `outer` ns
per child land in the parent's self time. That cost follows the machine's
speed, which drifts, so `begin_period` measures it again before each period
of the replay and `self_times` subtracts each period's own figures.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

from stagewalk import engine, epoch
from stagewalk.fullpath import FullPathCache
from stagewalk.heat import Admission, CandidateSet
from stagewalk.engine import OriginalLookup, StageLookupEngine
from stagewalk.epoch import PivotManager
from stagewalk.paths import PathBuf
from stagewalk.tree import DirTree


def _scan_note(args, result):
    pool, _path, stats = args
    return (pool.size, result[1] if result else 0, stats.pivots_visited, stats.char_comparisons)


def _pending_note(args, result):
    return (result, args[0].reclaim_queue.pending)


# (owner, attribute, span name, note). FullPathCache.lookup is fp_lookup. The
# engine and epoch modules import find_best_pivot, observe_target and
# build_pool by name, so those are wrapped where they are looked up.
ENTRY_POINTS = (
    (PathBuf, "parse", "paths.parse", None),
    (OriginalLookup, "lookup", "resolver.lookup", None),
    (StageLookupEngine, "lookup", "resolver.lookup", None),
    (FullPathCache, "lookup", "fullpath.fp_lookup", None),
    (FullPathCache, "fp_invalidate_subtree", "fullpath.fp_invalidate_subtree", lambda a, r: r),
    (DirTree, "walk_from", "tree.walk_from", None),
    (DirTree, "rename_node", "tree.rename_node", None),
    (DirTree, "chmod_node", "tree.chmod_node", None),
    (engine, "find_best_pivot", "pivots.find_best_pivot", _scan_note),
    (epoch, "build_pool", "pivots.build_pool", None),
    (engine, "observe_target", "heat.observe_target", None),
    (CandidateSet, "maybe_admit", "heat.maybe_admit", lambda a, r: r[0] is not Admission.REJECTED),
    (PivotManager, "reader_enter", "epoch.reader_enter", None),
    (PivotManager, "reader_exit", "epoch.reader_exit", None),
    (PivotManager, "periodic_update", "epoch.periodic_update", _pending_note),
    (PivotManager, "invalidate_for_metadata", "epoch.invalidate_for_metadata", _pending_note),
)


class Tracer:
    """Spans in int64 columns, indexed by span id; `notes` maps span id to note."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.event = array("q")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[int, object] = {}
        self.period_start: list[int] = []  # first span id of each period
        self.cost: list[tuple[float, float]] = []  # (inner, outer) ns per period
        self._stack = [-1]
        self._event = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_name: str, fn, note=None, root: bool = False):
        """`fn` recording one span per call; a root span starts a new event.

        Entry points take positional arguments only, which keeps the wrapper
        cheap.
        """
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, event, start, end = self.name, self.parent, self.event, self.start, self.end
        stack, notes, current, clock = self._stack, self.notes, self._event, time.perf_counter_ns

        def traced(*args):
            idx = len(end)
            if root:
                current[0] = idx
            name.append(nid)
            parent.append(stack[-1])
            event.append(current[0])
            end.append(0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, span_name, note in ENTRY_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(span_name, original.__func__, note))
                else:
                    wrapped = self.wrap(span_name, original, note)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def begin_period(self) -> None:
        """Measure the span cost now, for the spans recorded until the next call."""
        self.period_start.append(len(self.end))
        self.cost.append(calibrate())

    def self_times(self) -> list[float]:
        """Per span: duration minus children, minus the wrapper's own cost."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = dur[:]
        bounds = self.period_start + [len(dur)]
        for (inner, outer), lo, hi in zip(self.cost, bounds, bounds[1:]):
            for i in range(lo, hi):
                own[i] -= inner
                p = self.parent[i]
                if p >= 0:
                    own[p] -= dur[i] + outer - inner
        return own

    def write(self, path: str) -> None:
        """Binary int64 columns (name, parent, event, start_ns, end_ns) plus a JSON header."""
        with open(path + ".bin", "wb") as fh:
            for column in (self.name, self.parent, self.event, self.start, self.end):
                column.tofile(fh)
        header = {
            "names": self.names,
            "count": len(self),
            "columns": ["name", "parent", "event", "start_ns", "end_ns"],
            "layout": f"int64 {sys.byteorder}-endian, one column after another",
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def calibrate(reps: int = 200) -> tuple[float, float]:
    """(inner, outer) ns one span adds: inside its own interval, and to its caller.

    Times an event-shaped call tree, a root calling four different functions,
    plain and with every call wrapped; the best of five rounds of `reps` trees.
    """

    def make_leaf():
        def leaf(a, b, c):
            return None

        return leaf

    def tree(wrap):
        children = [wrap(f"c{k}", make_leaf()) for k in range(4)]

        def root(a, b, c):
            for child in children:
                child(a, b, c)

        return wrap("root", root)

    clock = time.perf_counter_ns
    tracer = Tracer()
    best = []
    for fn in (tree(lambda name, f: f), tree(tracer.wrap)):
        rounds = []
        for _ in range(5):
            t0 = clock()
            for _ in range(reps):
                fn(1, 2, 3)
            rounds.append((clock() - t0) / reps)
        best.append(min(rounds))
    leaves = sorted(e - s for e, s, p in zip(tracer.end, tracer.start, tracer.parent) if p >= 0)
    return float(leaves[len(leaves) // 2]), (best[1] - best[0]) / 5
