from __future__ import annotations

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


def test_parent_and_child():
    p = PathBuf.parse("/a/b")
    assert p.parent().text == "/a"
    assert p.child("c").text == "/a/b/c"
    assert p.name == "b"
    with pytest.raises(InvalidPath):
        PathBuf.parse("/").parent()


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
