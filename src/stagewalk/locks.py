"""Reader/writer locking for the directory tree.

The default tree is single threaded and carries a NullRWLock, whose calls do
nothing; its walks make no lock call at all, since one thread cannot modify
the tree inside a walk. The concurrency harness builds trees with the real
writer-preferring RWLock instead (`DirTree(threadsafe=True)`), and only their
walks take the read side.

`DirTree.threadsafe` also decides the stage engine's read side: only a
threadsafe tree keeps the reader-token registry (`PivotManager`), under a
lock. A single-threaded tree registers no readers at all, since on one
thread nothing reclaims a pool inside a lookup. Concurrent lookups therefore
need a threadsafe tree. No lookup takes the heat lock on either kind: a
lookup appends its target to the engine's heat log, which the GIL keeps
atomic, and the engine's period end, or a lookup that finds the log full,
applies the log under the heat lock.
"""

from __future__ import annotations

import threading


class NullRWLock:
    __slots__ = ()

    def acquire_read(self) -> None:
        pass

    def release_read(self) -> None:
        pass

    def acquire_write(self) -> None:
        pass

    def release_write(self) -> None:
        pass


class RWLock:
    """Writer-preferring reader/writer lock (writers cannot starve behind readers)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()
