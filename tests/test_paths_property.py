"""Property tests: a parsed path, split on first read, acts as the path the
checking constructor builds from the same names, and a malformed text
raises the error the reference parse raises."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stagewalk import InvalidPath, PathBuf  # noqa: E402
from conftest import reference_parse  # noqa: E402

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=400)

# valid names; a text with a name that starts with "." takes the non-canonical branch
_NAMES = st.one_of(
    st.sampled_from(["a", "b", "ab", "a.", ".a", "...", ".hidden", "a b", "é"]),
    st.text(alphabet="ab.é ", min_size=1, max_size=4).filter(lambda n: n not in (".", "..")),
)
_VALID = st.tuples(st.lists(_NAMES, max_size=5), st.sampled_from(["", "/", "//"]))


def _text(names, trail) -> str:
    return "/" + "/".join(names) + trail


def _member(fn, path):
    """A member's value, a derived path as its (type, text, components), or
    the error it raises."""
    try:
        value = fn(path)
    except InvalidPath as exc:
        return (InvalidPath, str(exc))
    if isinstance(value, PathBuf):
        return (PathBuf, value.text, value.components)
    return value


_MEMBERS = {
    "components": lambda p: p.components,
    "text": lambda p: p.text,
    "depth": lambda p: p.depth,
    "name": lambda p: p.name,
    "is_root": lambda p: p.is_root,
    "parent": lambda p: p.parent(),
    "str": str,
    "repr": repr,
    "hash": hash,
}


@_SETTINGS
@given(_VALID)
def test_parse_agrees_with_the_eager_path(case):
    names, trail = case
    eager = PathBuf(names)
    expected = {k: _member(fn, eager) for k, fn in _MEMBERS.items()}
    for first, fn in _MEMBERS.items():
        path = PathBuf.parse(_text(names, trail))
        assert path == eager and eager == path
        assert _member(fn, path) == expected[first], first  # read before or as the path splits
        assert path.components == eager.components
        assert {k: _member(f, path) for k, f in _MEMBERS.items()} == expected  # and after


@_SETTINGS
@given(_VALID, _VALID)
def test_equality_agrees_with_the_eager_paths(a, b):
    lazy_a, lazy_b = PathBuf.parse(_text(*a)), PathBuf.parse(_text(*b))
    eager_a, eager_b = PathBuf(a[0]), PathBuf(b[0])
    assert (lazy_a == lazy_b) == (lazy_a == eager_b) == (eager_a == eager_b) == (a[0] == b[0])


def _result(parse, raw):
    try:
        p = parse(raw)
    except InvalidPath as exc:
        return (InvalidPath, str(exc))
    return (p.components, p.text)


@_SETTINGS
@given(st.text(alphabet="/.ab", max_size=12))
def test_parse_raises_what_the_reference_raises(raw):
    assert _result(PathBuf.parse, raw) == _result(reference_parse, raw)
