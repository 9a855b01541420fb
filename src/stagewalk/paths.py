"""Normalized absolute paths.

A path is its canonical text plus, once split, the tuple of its component
names. The root is the empty tuple rendered as "/". Components never contain
'/', and "." / ".." are rejected at ingest; the model has no symlinks.

Validation happens once, where a component enters: `PathBuf(components)`
checks every name, `parse` checks the whole text and builds the path without
checking its names again, and `child` checks only the name it adds. `parent`
and `child` reuse components that are already valid. A canonical text (a
`str` that starts with '/', does not end with '/' and contains neither "//"
nor "/.") is kept as the path's text and is not split: no name in it can be
empty or start with ".". Any other text is trimmed of trailing slashes and
tested for "//", "/./" and "/../"; a malformed one goes through the checking
constructor, so its error names the bad component.

A path is split only where its names are read. Stage One's whole-path probe
and fullpath's cache read the text alone, so a lookup that one of them
answers splits nothing. `components`, and the members built on it, split on
first use and keep the tuple in `_components`; `PathBuf(...)`, `child`,
`parent`, the root and a non-canonical `parse` store it at once. The one
walk from the root, `DirTree.lookup_original`, which original, stage's miss
and fullpath's miss all take, splits inline from that slot, so it pays no
call for it. Threads sharing a threadsafe tree may split one path at the
same time: each stores an equal tuple, and either one serves.
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
        if type(raw) is str and raw[:1] == "/" and raw[-1:] != "/" and "//" not in raw and "/." not in raw:
            return _trusted(None, raw)  # canonical: no name is empty or starts with "."; split on first read
        if not isinstance(raw, str) or not raw.startswith("/"):
            raise InvalidPath(f"not an absolute path: {raw!r}")
        trimmed = raw.rstrip("/")
        if not trimmed:
            return _ROOT
        parts = tuple(trimmed.split("/")[1:])
        probe = trimmed + "/"
        if "//" in probe or "/./" in probe or "/../" in probe:
            return cls(parts)  # raises, naming the empty, "." or ".." component
        return _trusted(parts, trimmed)

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

    def child(self, name: str) -> "PathBuf":
        _check_name(name)
        comps = self.components
        return _trusted(comps + (name,), (self.text if comps else "") + "/" + name)

    def is_component_prefix_of(self, other: "PathBuf") -> bool:
        """Whole-component prefix test; the root prefixes everything."""
        comps = self.components
        return other.components[: len(comps)] == comps

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


_new = object.__new__  # bound once: `_trusted` runs on every parse


def _trusted(components: Optional[tuple[str, ...]], text: str) -> PathBuf:
    """A PathBuf from valid components and their canonical text, unchecked;
    None for `components` leaves a non-root text to be split on first read."""
    path = _new(PathBuf)
    path._components = components
    path.text = text
    return path


_ROOT = PathBuf(())

ROOT = _ROOT
