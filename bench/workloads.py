"""Seeded trace generator for the replay benchmark.

The benchmark makes its own traces instead of calling `synth_trace`, so a
change to the package's synthesizer cannot move the benchmark.

A trace is a list of events `(op, path, arg)` over the `SIX_LEVEL_PRESET`
tree:

- `("stat" | "open", path, None)`: one lookup;
- `("rename", path, new_path)`: rename to a fresh name in the same directory;
- `("chmod", path, mode)`: directories keep their owner traversal bit, so
  owner lookups never fail on permissions;
- `("tick", None, None)`: one manager period, after every `TICK_EVERY`
  operations.

Nodes are keyed by their sibling indices from the root, so `(3, 1, 4, 1, 5, 0)`
is the file `/a3/b1/c4/d1/e5/f0` of the fresh tree. A rename records the new
name of the key; every path the generator emits is built from the current
names of all its ancestors, so the descendants of a renamed directory move
with it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

from stagewalk import SIX_LEVEL_PRESET

TICK_EVERY = 1000
STAT_SHARE = 0.55
HOT_DIRS = 8
ZIPF_S = 1.0

# every directory mode keeps 0o100, the owner's traversal bit
DIR_MODES = [0o755] * 6 + [0o751, 0o750, 0o711, 0o700]
FILE_MODES = [0o644, 0o640, 0o600]

# name: (targets, rename share, chmod share); shares are per operation.
# "hot" reads Zipf-skewed files under HOT_DIRS directories; "new" reads every
# file once in random order before any file repeats, so no lookup target is
# warm in a cache.
WORKLOADS = {
    "hot-read": ("hot", 0.0, 0.0),
    "cold-read": ("new", 0.0, 0.0),
    "churn": ("hot", 0.01, 0.01),
}

LOOKUP_OPS = ("stat", "open")

_LEVELS = tuple(SIX_LEVEL_PRESET.levels)


def _letter(depth: int) -> str:
    return chr(ord("a") + depth - 1)


def _digits(index: int, radices: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for radix in reversed(radices):
        index, d = divmod(index, radix)
        out.append(d)
    return tuple(reversed(out))


class _Names:
    """Current path of each node key under the renames emitted so far."""

    def __init__(self) -> None:
        self._renamed: dict[tuple[int, ...], str] = {}
        self._paths: dict[tuple[int, ...], str] = {}

    def path(self, key: tuple[int, ...]) -> str:
        text = self._paths.get(key)
        if text is None:
            renamed = self._renamed
            text = "".join(
                "/" + (renamed.get(key[:d]) or f"{_letter(d)}{key[d - 1]}") for d in range(1, len(key) + 1)
            )
            self._paths[key] = text
        return text

    def rename(self, key: tuple[int, ...], name: str) -> None:
        self._renamed[key] = name
        self._paths.clear()  # descendants' paths changed too


def make_trace(workload: str, seed: int, n_ops: int) -> list[tuple]:
    """`n_ops` operations plus one tick per `TICK_EVERY`; same seed, same trace."""
    targets, p_rename, p_chmod = WORKLOADS[workload]
    rng = random.Random(seed)
    names = _Names()
    dirs_per_depth = [math.prod(_LEVELS[:d]) for d in range(1, len(_LEVELS) + 1)]
    dir_ends = list(itertools.accumulate(dirs_per_depth))

    def random_file() -> tuple[int, ...]:
        return tuple(rng.randrange(f) for f in _LEVELS) + (0,)

    def random_dir() -> tuple[int, ...]:
        index = rng.randrange(dir_ends[-1])
        depth = bisect.bisect_right(dir_ends, index) + 1
        below = dir_ends[depth - 2] if depth > 1 else 0
        return _digits(index - below, _LEVELS[:depth])

    if targets == "hot":
        hot = [_digits(i, _LEVELS) + (0,) for i in rng.sample(range(dirs_per_depth[-1]), HOT_DIRS)]
        cum = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_DIRS)))

        def pick_target() -> tuple[int, ...]:
            return hot[bisect.bisect_right(cum, rng.random() * cum[-1])]
    else:
        files: list[int] = []

        def pick_target() -> tuple[int, ...]:
            if not files:  # every file once, in random order, then again
                files.extend(range(dirs_per_depth[-1]))
                rng.shuffle(files)
            return _digits(files.pop(), _LEVELS) + (0,)

    events: list[tuple] = []
    renames = 0
    for i in range(1, n_ops + 1):
        roll = rng.random()
        if roll < p_rename:
            key = random_file() if rng.random() < 0.5 else random_dir()
            old = names.path(key)
            renames += 1
            names.rename(key, f"r{renames}")
            events.append(("rename", old, names.path(key)))
        elif roll < p_rename + p_chmod:
            if rng.random() < 0.8:
                events.append(("chmod", names.path(random_dir()), rng.choice(DIR_MODES)))
            else:
                events.append(("chmod", names.path(random_file()), rng.choice(FILE_MODES)))
        else:
            op = "stat" if rng.random() < STAT_SHARE else "open"
            events.append((op, names.path(pick_target()), None))
        if i % TICK_EVERY == 0:
            events.append(("tick", None, None))
    return events
