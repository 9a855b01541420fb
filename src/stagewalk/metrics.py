"""Operation counters that stand in for wall-clock latency.

Counter semantics:

- dentries_visited: one per path component resolved (hits only; a failed
  final probe does not count).
- char_comparisons: per-character work. A resolved component costs two scans
  of its name, which model the kernel's d_hash chain lookup (hash, then
  verification); a missing one costs the hash scan. The walk counts these
  scans but does not perform them: it resolves through the children maps,
  and adds a walk's visits and chars to the counters once, when it ends or
  fails. Full-path-probe costs are added by the fullpath strategy. Stage One
  adds the model's char-by-char cost of its single forward pivot scan: a name's
  length on a match, or the chars up to and including the first differing
  one on a mismatch (the shorter name's length when one is a prefix of the
  other). The code performs neither that scan nor the char compares: it
  descends the pool's component index, built when the pool is installed,
  whose every node holds the scan's running char count on reaching that
  node's run. Where the query leaves the index it reads that count once and
  adds the run's own cost: the rest of a single pivot's names, or the
  mismatch cost against the names of the run's groups, which the node
  memoizes per missing name. A pool that holds an invalid pivot is scanned
  linearly, comparing whole names. The engine takes Stage One's count off
  one reused per-thread `ScanStats`, so counting allocates nothing per
  lookup.
- effective_search_ratio: distinct dentries ever resolved divided by total
  dentry searches; measures how redundant the walk traffic was.
- wall_time: per-phase seconds; diagnostic only, excluded from CSV output so
  identical-seed runs serialize byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(slots=True)
class Metrics:
    dentries_visited: int = 0
    char_comparisons: int = 0
    lookups: int = 0
    pivot_hits: int = 0
    fallbacks: int = 0
    entries_touched: int = 0
    skipped_prefix_histogram: dict[int, int] = field(default_factory=dict)
    distinct_resolved: set[int] = field(default_factory=set)
    wall_time: dict[str, float] = field(default_factory=dict)

    @property
    def effective_search_ratio(self) -> float:
        if self.dentries_visited == 0:
            return 0.0
        return len(self.distinct_resolved) / self.dentries_visited

    def counter_rows(self) -> list[tuple[str, str]]:
        """Deterministic (name, value) rows for tables and CSV."""
        hist = {str(k): v for k, v in sorted(self.skipped_prefix_histogram.items())}
        return [
            ("lookups", str(self.lookups)),
            ("dentries_visited", str(self.dentries_visited)),
            ("char_comparisons", str(self.char_comparisons)),
            ("pivot_hits", str(self.pivot_hits)),
            ("fallbacks", str(self.fallbacks)),
            ("entries_touched", str(self.entries_touched)),
            ("distinct_resolved", str(len(self.distinct_resolved))),
            ("effective_search_ratio", f"{self.effective_search_ratio:.6f}"),
            ("skipped_prefix_histogram", json.dumps(hist, sort_keys=True)),
        ]
