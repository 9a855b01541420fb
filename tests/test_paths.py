from __future__ import annotations

import itertools

import pytest

from stagewalk import InvalidPath, PathBuf


def test_parse_root():
    p = PathBuf.parse("/")
    assert p.is_root and p.depth == 0 and p.text == "/"


def test_parse_components_and_text():
    p = PathBuf.parse("/a1/b2/c3")
    assert p.components == ("a1", "b2", "c3")
    assert p.text == "/a1/b2/c3"
    assert p.depth == 3


def test_trailing_slash_tolerated():
    assert PathBuf.parse("/a1/b2/").text == "/a1/b2"


@pytest.mark.parametrize("bad", ["a1/b2", "", "/a//b", "/a/./b", "/a/../b", "/."])
def test_rejects_malformed(bad):
    with pytest.raises(InvalidPath):
        PathBuf.parse(bad)


def test_malformed_error_names_the_component():
    with pytest.raises(InvalidPath, match=r"'\.\.'"):
        PathBuf.parse("/a/../b")
    with pytest.raises(InvalidPath, match="empty"):
        PathBuf.parse("/a//b")


# every path of up to four pieces from this alphabet, between each lead and trail
_PIECES = ("", ".", "..", "...", ".a", "a.", "a", "ab", "a b", "é")
_LEADS = ("", "/", "//")
_TRAILS = ("", "/", "//")


def _checked(raw: str) -> PathBuf:
    """The oracle: the checking constructor on the split text."""
    if not raw.startswith("/"):
        raise InvalidPath(f"not an absolute path: {raw!r}")
    return PathBuf(tuple(raw.rstrip("/").split("/")[1:]))


def _outcome(fn, raw):
    try:
        p = fn(raw)
    except InvalidPath:
        return "InvalidPath"
    return (type(p), p.components, p.text)


def test_parse_agrees_with_checking_constructor():
    n = 0
    for k in range(5):
        for pieces in itertools.product(_PIECES, repeat=k):
            body = "/".join(pieces)
            for lead in _LEADS:
                for trail in _TRAILS:
                    raw = lead + body + trail
                    assert _outcome(PathBuf.parse, raw) == _outcome(_checked, raw), raw
                    n += 1
    assert n == 99_999


@pytest.mark.parametrize("raw", [None, 5, b"/a", ["/a"], ("a",)])
def test_parse_rejects_non_str(raw):
    with pytest.raises(InvalidPath):
        PathBuf.parse(raw)


def test_parent_and_child():
    p = PathBuf.parse("/a/b")
    assert p.parent().text == "/a"
    assert p.child("c").text == "/a/b/c"
    assert p.name == "b"
    with pytest.raises(InvalidPath):
        PathBuf.parse("/").parent()


def test_parent_and_child_match_checking_constructor():
    root = PathBuf.parse("/")
    a = root.child("a")
    assert (a.components, a.text) == (("a",), "/a")
    assert (a.parent().components, a.parent().text) == ((), "/")
    abc = PathBuf.parse("/a/b/c")
    assert (abc.parent().components, abc.parent().text) == (("a", "b"), "/a/b")
    assert abc.child("d") == PathBuf(("a", "b", "c", "d"))


@pytest.mark.parametrize("bad", ["..", ".", "", "a/b"])
def test_child_checks_the_added_name(bad):
    with pytest.raises(InvalidPath):
        PathBuf.parse("/a").child(bad)


def test_component_prefix():
    root = PathBuf.parse("/")
    a = PathBuf.parse("/a")
    ab = PathBuf.parse("/a/b")
    ax = PathBuf.parse("/ax")
    assert root.is_component_prefix_of(ab)
    assert a.is_component_prefix_of(ab)
    assert a.is_component_prefix_of(a)
    assert not a.is_component_prefix_of(ax)  # string prefix is not component prefix
    assert not ab.is_component_prefix_of(a)


def test_equality_and_hash():
    assert PathBuf.parse("/a/b") == PathBuf.parse("/a/b/")
    assert len({PathBuf.parse("/a"), PathBuf.parse("/a")}) == 1
