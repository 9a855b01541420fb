"""Normalized absolute paths.

A path is its canonical text plus, once split, the tuple of its component
names. The root is the empty tuple rendered as "/". Components never contain
'/', and "." / ".." are rejected at ingest; the model has no symlinks.

Validation happens once, where a component enters: `PathBuf(components)`
checks every name, and `parse` checks a canonical text as a whole rather than
name by name. `parent` reuses components that are already valid. A text is
canonical when

    type(raw) is str and raw and raw[0] == "/" != raw[-1]
    and "//" not in raw and "/." not in raw

holds: a `str` that starts with '/', does not end with '/' and contains
neither "//" nor "/.", tested without a slice. The type test comes first, so
a sequence such as ["/", "a"] never reaches the index tests. Such a text is
kept as the path's text and is not split: no name in it can be empty or
start with ".". `parse` builds that path inline, with
`object.__new__` and two slot stores, as `_trusted` does for `parent`: every
stat and open event parses once, and the canonical case then pays no frame
past `parse` itself. Any other text is trimmed of trailing slashes and goes
through the checking constructor, so a malformed one's error names the bad
component.

A path is split only where its names are read. Stage One's whole-path probe
and fullpath's cache read the text alone, so a lookup that one of them
answers splits nothing. `components`, and the members built on it, split on
first use and keep the tuple in `_components`; `PathBuf(...)`, `parent`, the
root and a non-canonical `parse` store it at once. The one walk from the
root, `DirTree.lookup_original`, which original, stage's miss and fullpath's
miss all take, splits inline from that slot, so it pays no call for it.
Threads sharing a threadsafe tree may split one path at the same time: each
stores an equal tuple, and either one serves.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InvalidPath


class PathBuf:
    __slots__ = ("_components", "text")

    def __init__(self, components: Iterable[str]):
        components = tuple(components)
        for name in components:
            _check_name(name)
        self._components = components
        self.text = "/" + "/".join(components) if components else "/"

    @classmethod
    def parse(cls, raw: str) -> "PathBuf":
        if type(raw) is str and raw and raw[0] == "/" != raw[-1] and "//" not in raw and "/." not in raw:
            # canonical: no name is empty or starts with "."; split on first read
            path = _new(PathBuf)  # `_trusted(None, raw)` inline: one frame less per event
            path._components = None
            path.text = raw
            return path
        if not isinstance(raw, str) or not raw.startswith("/"):
            raise InvalidPath(f"not an absolute path: {raw!r}")
        trimmed = raw.rstrip("/")
        return cls(trimmed.split("/")[1:]) if trimmed else _ROOT

    @property
    def components(self) -> tuple[str, ...]:
        comps = self._components
        if comps is None:  # a canonical parse, never the root
            comps = self._components = tuple(self.text[1:].split("/"))
        return comps

    @property
    def depth(self) -> int:
        return len(self.components)

    @property
    def is_root(self) -> bool:
        return self.text == "/"

    def parent(self) -> "PathBuf":
        comps = self.components
        if not comps:
            raise InvalidPath("root has no parent")
        return _trusted(comps[:-1], self.text.rpartition("/")[0] or "/")

    @property
    def name(self) -> str:
        comps = self.components
        if not comps:
            raise InvalidPath("root has no name")
        return comps[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PathBuf) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"PathBuf({self.text!r})"

    def __str__(self) -> str:
        return self.text


def _check_name(name: str) -> None:
    if not name:
        raise InvalidPath("empty path component")
    if name in (".", ".."):
        raise InvalidPath(f"component {name!r} rejected at ingest")
    if "/" in name:
        raise InvalidPath(f"component contains '/': {name!r}")


_new = object.__new__  # bound once: `parse` runs on every event


def _trusted(components: Optional[tuple[str, ...]], text: str) -> PathBuf:
    """A PathBuf from valid components and their canonical text, unchecked;
    None for `components` leaves a non-root text to be split on first read."""
    path = _new(PathBuf)
    path._components = components
    path.text = text
    return path


_ROOT = PathBuf(())

ROOT = _ROOT
