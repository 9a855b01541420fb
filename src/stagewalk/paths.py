"""Normalized absolute paths.

A path is stored as a tuple of component names plus its canonical text form.
The root is the empty tuple rendered as "/". Components never contain '/',
and "." / ".." are rejected at ingest; the model has no symlinks.

Validation happens once, where a component enters: `PathBuf(components)`
checks every name, `parse` checks the whole text with three substring tests
and builds the path without checking its names again, and `child` checks
only the name it adds. `parent` and `child` reuse components that are
already valid. A malformed text goes through the checking constructor, so
its error names the bad component.
"""

from __future__ import annotations

from .errors import InvalidPath


class PathBuf:
    __slots__ = ("components", "text")

    def __init__(self, components: tuple[str, ...]):
        for name in components:
            _check_name(name)
        self.components = components
        self.text = "/" + "/".join(components) if components else "/"

    @classmethod
    def parse(cls, raw: str) -> "PathBuf":
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
    def depth(self) -> int:
        return len(self.components)

    @property
    def is_root(self) -> bool:
        return not self.components

    def parent(self) -> "PathBuf":
        if not self.components:
            raise InvalidPath("root has no parent")
        return _trusted(self.components[:-1], self.text.rpartition("/")[0] or "/")

    @property
    def name(self) -> str:
        if not self.components:
            raise InvalidPath("root has no name")
        return self.components[-1]

    def child(self, name: str) -> "PathBuf":
        _check_name(name)
        return _trusted(self.components + (name,), (self.text if self.components else "") + "/" + name)

    def is_component_prefix_of(self, other: "PathBuf") -> bool:
        """Whole-component prefix test; the root prefixes everything."""
        n = len(self.components)
        return other.components[:n] == self.components

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


def _trusted(components: tuple[str, ...], text: str) -> PathBuf:
    """A PathBuf from valid components and their canonical text, unchecked."""
    path = object.__new__(PathBuf)
    path.components = components
    path.text = text
    return path


_ROOT = PathBuf(())

ROOT = _ROOT
