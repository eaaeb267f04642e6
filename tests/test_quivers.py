"""Quiver and path bookkeeping: composition order, enumeration, validation."""

import pytest

from siltkit.core.quivers import (
    Arrow,
    Path,
    Quiver,
    compose,
    enumerate_paths,
    trivial_path,
)


A2 = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
A3 = Quiver(("1", "2", "3"), (Arrow("a", "2", "1"), Arrow("b", "3", "2")))


def test_trivial_path_endpoints():
    e = trivial_path("1")
    assert e.source == e.target == "1"
    assert e.arrows == ()
    assert str(e) == "e_1"


def test_compose_is_function_order():
    """(a, b) means apply b first, then a: the composite runs 3 -> 1."""
    a = Path(("a",), "2", "1")
    b = Path(("b",), "3", "2")
    ab = compose(a, b)
    assert ab is not None
    assert ab.arrows == ("a", "b")
    assert ab.source == "3" and ab.target == "1"
    assert compose(b, a) is None


def test_compose_with_trivial_paths():
    a = Path(("a",), "2", "1")
    assert compose(trivial_path("1"), a) == a
    assert compose(a, trivial_path("2")) == a
    assert compose(trivial_path("2"), a) is None


def test_path_string_joins_arrow_names():
    p = Path(("a", "b"), "3", "1")
    assert str(p) == "a;b"


def test_quiver_rejects_undeclared_endpoints():
    with pytest.raises(ValueError):
        Quiver(("1",), (Arrow("a", "1", "9"),))


def test_quiver_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Quiver(("1", "1"), ())
    with pytest.raises(ValueError):
        Quiver(("1",), (Arrow("a", "1", "1"), Arrow("a", "1", "1")))


def test_enumerate_paths_linear_quiver():
    paths = enumerate_paths(A3, 2)
    # three trivial, two arrows, one composite
    assert len(paths) == 6
    lengths = sorted(len(p.arrows) for p in paths)
    assert lengths == [0, 0, 0, 1, 1, 2]


def test_enumerate_paths_respects_length_cap():
    loop = Quiver(("1",), (Arrow("x", "1", "1"),))
    assert len(enumerate_paths(loop, 0)) == 1
    assert len(enumerate_paths(loop, 3)) == 4


def test_enumerate_paths_kronecker_growth():
    kron = Quiver(("1", "2"), (Arrow("a", "2", "1"), Arrow("b", "2", "1")))
    # 2 trivial + 2 arrows; nothing composes twice
    assert len(enumerate_paths(kron, 5)) == 4
