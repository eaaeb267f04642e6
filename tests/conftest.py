"""Shared fixtures: the small algebras every layer of the suite exercises."""

from __future__ import annotations

import pathlib

import pytest

import siltkit.correspond.checks as checks
from siltkit.core.algebras import build_algebra
from siltkit.core.quivers import Arrow, Path, Quiver
from siltkit.fields import QQ

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"

#: A semifree stage cap that none of the suite's small resolutions reaches.
STAGES = 8


def linear_algebra_text(n: int, radical_square_zero: bool) -> str:
    """Algebra file of the linear quiver n -> ... -> 1, hereditary or with
    every path of length two a relation."""
    lines = ["[field]", "characteristic = 0", "", "[vertices]"]
    lines += [str(v) for v in range(1, n + 1)]
    lines += ["", "[arrows]"] + [f"a{k}: {k + 1} -> {k}" for k in range(1, n)]
    if radical_square_zero:
        lines += ["", "[relations]"] + [f"a{k};a{k + 1}" for k in range(1, n - 1)]
    lines += ["", "[bound]", str(2 if radical_square_zero else n)]
    return "\n".join(lines) + "\n"


def standard_pair_text(n: int) -> str:
    """Pair file of the projectives and the resolved simples over the
    vertices 1, ..., n."""
    vertices = range(1, n + 1)
    return (
        f"silting std = [{', '.join(f'proj({v})' for v in vertices)}]\n"
        f"smc std = [{', '.join(f'res(simple {v})' for v in vertices)}]\n"
    )


@pytest.fixture(scope="session")
def a2():
    """Two vertices, one arrow 2 -> 1; dimension 3."""
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    return build_algebra(quiver, [], 2)


@pytest.fixture(scope="session")
def a3():
    """Three vertices in a line; dimension 6."""
    quiver = Quiver(("1", "2", "3"), (Arrow("a", "2", "1"), Arrow("b", "3", "2")))
    return build_algebra(quiver, [], 3)


@pytest.fixture(scope="session")
def a3rel():
    """The linear three-vertex quiver with ab = 0; dimension 5."""
    quiver = Quiver(("1", "2", "3"), (Arrow("a", "2", "1"), Arrow("b", "3", "2")))
    relation = [[(QQ.one, Path(("a", "b"), "3", "1"))]]
    return build_algebra(quiver, relation, 2)


@pytest.fixture(scope="session")
def kronecker():
    """Two parallel arrows 2 -> 1; dimension 4."""
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"), Arrow("b", "2", "1")))
    return build_algebra(quiver, [], 2)


@pytest.fixture(scope="session")
def loop2():
    """One vertex with a loop squaring to zero; dimension 2."""
    quiver = Quiver(("1",), (Arrow("x", "1", "1"),))
    relation = [[(QQ.one, Path(("x", "x"), "1", "1"))]]
    return build_algebra(quiver, relation, 2)


@pytest.fixture(scope="session")
def one_vertex():
    """The base field as a path algebra: one vertex, no arrows."""
    return build_algebra(Quiver(("1",), ()), [], 1)


@pytest.fixture
def searches(monkeypatch):
    """The collections the bounded thick-closure search is run on."""
    calls = []
    real = checks._closure_search

    def counting(collection, *args, **kwargs):
        calls.append(collection)
        return real(collection, *args, **kwargs)

    monkeypatch.setattr(checks, "_closure_search", counting)
    return calls


#: Forbidden subwords per fixture name, for the independent path oracles.
FORBIDDEN = {
    "a2": (),
    "a3": (),
    "a3rel": (("a", "b"),),
    "kronecker": (),
    "loop2": (("x", "x"),),
    "one_vertex": (),
}
