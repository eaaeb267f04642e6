"""Right modules: simples, projectives, covers, minimal resolutions, and
their Homs."""

import pytest

from oracles import module_hom_dimension
from siltkit.core.modules import (
    ProjectiveSumModule,
    minimal_projective_resolution,
    projective_cover,
    simple_module,
)
from siltkit.errors import ZeroModule
from siltkit.homotopy.homs import hom_space


def test_simple_module_shape(a2):
    s = simple_module(a2, "1")
    assert s.dims == {"1": 1, "2": 0}
    assert not s.is_zero()


def test_projective_module_dimension_vector(a2, a3):
    """e_v A is spanned by the paths into v, graded by their sources."""
    assert ProjectiveSumModule(a2, ("1",)).dims == {"1": 1, "2": 1}
    assert ProjectiveSumModule(a2, ("2",)).dims == {"1": 0, "2": 1}
    assert ProjectiveSumModule(a3, ("1",)).dims == {"1": 1, "2": 1, "3": 1}
    assert ProjectiveSumModule(a3, ("3",)).dims == {"1": 0, "2": 0, "3": 1}


def test_projective_dimension_vector_respects_relations(a3rel):
    # with ab = 0 the projective at 1 no longer reaches vertex 3
    assert ProjectiveSumModule(a3rel, ("1",)).dims == {"1": 1, "2": 1, "3": 0}


@pytest.mark.parametrize(
    "v,w,expected",
    [("1", "1", 1), ("1", "2", 0), ("2", "1", 0), ("2", "2", 1)],
)
def test_simple_homs_are_diagonal(a2, v, w, expected):
    res_v, res_w = (minimal_projective_resolution(simple_module(a2, u), 12) for u in (v, w))
    assert hom_space(res_v, res_w, 0).dimension == expected


def test_module_homs_match_the_sympy_oracle(a3, a3rel, kronecker):
    """Hom of modules is H^0 of the Hom complex between their resolutions."""
    for algebra in (a3, a3rel, kronecker):
        objects = [simple_module(algebra, v) for v in algebra.quiver.vertices]
        objects += [ProjectiveSumModule(algebra, (v,)) for v in algebra.quiver.vertices]
        resolved = [minimal_projective_resolution(m, 12) for m in objects]
        for m, x in zip(objects, resolved):
            for n, y in zip(objects, resolved):
                assert hom_space(x, y, 0).dimension == module_hom_dimension(m, n)


def test_projective_cover_of_a_simple(a2):
    mults, cover = projective_cover(simple_module(a2, "1"))
    assert mults == {"1": 1, "2": 0}
    assert cover.source.dims == {"1": 1, "2": 1}


def test_projective_cover_of_zero_raises(a2):
    zero = simple_module(a2, "1")
    zero = type(zero)(a2, {"1": 0, "2": 0}, {"a": []})
    with pytest.raises(ZeroModule):
        projective_cover(zero)


def test_resolution_of_the_a2_simples(a2):
    r1 = minimal_projective_resolution(simple_module(a2, "1"), 12)
    assert r1.summands == {0: ("1",), -1: ("2",)}
    assert r1.complete
    r2 = minimal_projective_resolution(simple_module(a2, "2"), 12)
    assert r2.summands == {0: ("2",)}
    assert r2.complete


def test_resolution_depth_three_with_relation(a3rel):
    """With ab = 0 the simple at 1 resolves through every projective."""
    r1 = minimal_projective_resolution(simple_module(a3rel, "1"), 12)
    assert r1.summands == {0: ("1",), -1: ("2",), -2: ("3",)}
    assert r1.complete


def test_resolution_of_projective_is_a_stalk(a3):
    r = minimal_projective_resolution(ProjectiveSumModule(a3, ("2",)), 12)
    assert r.summands == {0: ("2",)}


def test_loop_resolution_is_periodic_and_truncated(loop2):
    r = minimal_projective_resolution(simple_module(loop2, "1"), 6)
    assert r.summands == {k: ("1",) for k in range(-6, 1)}
    assert not r.complete


def test_resolution_differentials_square_to_zero(a3rel):
    r = minimal_projective_resolution(simple_module(a3rel, "3"), 12)
    # d^2 = 0 is enforced on construction; spot-check the composite matrix
    for k in r.diffs:
        if k + 1 in r.diffs:
            upper, lower = r.diffs[k + 1], r.diffs[k]
            for i in range(len(upper)):
                for j in range(len(lower[0])):
                    entry = sum(
                        (upper[i][t] * lower[t][j]).coeffs != {} for t in range(len(lower))
                    )
                    composite = None
                    for t in range(len(lower)):
                        term = upper[i][t] * lower[t][j]
                        composite = term if composite is None else composite + term
                    assert composite is None or composite.is_zero()
