"""Operation counters that stand in for wall-clock latency.

Counter semantics:

- lookups: one per lookup a strategy answered or refused.
- dentries_visited: one per path component resolved (hits only; a failed
  final probe does not count). Every walk counts: `walk_from` takes the
  Metrics it adds to.
- char_comparisons: per-character work. A resolved component costs two scans
  of its name, which model the kernel's d_hash chain lookup (hash, then
  verification); a missing one costs the hash scan. The walk counts these
  scans but does not perform them: it resolves through the children maps
  and counts nothing per component. A walk that resolves every component
  adds twice its names' total length at once, taken from the length of the
  path text that spells them less one '/' per name, so it builds no string;
  a failed one adds the same for the prefix it resolved, plus the missing
  name's hash scan on NotFound.
  Full-path-probe costs are added by the fullpath strategy. Stage One
  adds the model's char-by-char cost of its single forward pivot scan: a name's
  length on a match, or the chars up to and including the first differing
  one on a mismatch (the shorter name's length when one is a prefix of the
  other). The code compares whole names, not chars. A whole-path hit is one
  probe of the pool's path map, whose entries carry the scan's counts;
  partial hits and misses run the scan, which adds a matched name's length
  and a mismatched pair's cost, cached per pair of names. The engine takes
  a single-threaded whole-path hit's count off the path map's entry, and
  every other Stage One count off a `ScanStats`: one reused instance on a
  single-threaded tree, so counting allocates nothing per lookup there, and a
  fresh one per lookup on a threadsafe tree.
- pivot_hits: lookups that kept a pivot's result, read as the total of
  skipped_prefix_histogram, which every such lookup bumps at its matched
  depth; no counter of its own is kept.
- fallbacks: a modification raced the lookup, which then walked from the
  root. Only another thread modifying the tree during a lookup can make it
  non-zero, so it is 0 in every `replay`, `compare` and bench run, which
  run on one thread.
- entries_touched: invalidation work; the dentries a metadata hook visited
  (fullpath's subtree walk) or the pivots it covered (stage).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(slots=True)
class Metrics:
    dentries_visited: int = 0
    char_comparisons: int = 0
    lookups: int = 0
    fallbacks: int = 0
    entries_touched: int = 0
    skipped_prefix_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def pivot_hits(self) -> int:
        return sum(self.skipped_prefix_histogram.values())

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
            ("skipped_prefix_histogram", json.dumps(hist, sort_keys=True)),
        ]
