"""Isomorphism testing in the homotopy category and indecomposability."""

import pytest

from siltkit.core.modules import RightModule, minimal_projective_resolution, simple_module
from siltkit.errors import CharacteristicUnsupported, Inconclusive
from siltkit.fields import QQ, PrimeField
from siltkit.homotopy.compare import find_isomorphism, is_indecomposable, is_isomorphic
from siltkit.homotopy.complexes import (
    cone,
    direct_sum,
    identity_map,
    shift,
    single_projective,
)
from siltkit.homotopy.homs import hom_space


def res(algebra, v):
    return minimal_projective_resolution(simple_module(algebra, v), 12)


def test_isomorphic_to_itself_and_shifts_differ(a2):
    r1 = res(a2, "1")
    assert is_isomorphic(r1, r1)
    assert not is_isomorphic(r1, shift(r1, 1))
    assert not is_isomorphic(r1, shift(r1, 2))


def test_isomorphism_ignores_contractible_padding(a2):
    p2 = single_projective(a2, "2", 0)
    r1 = res(a2, "1")
    padded = direct_sum(r1, cone(identity_map(p2)))
    assert is_isomorphic(r1, padded)
    assert is_isomorphic(padded, r1)


def test_cone_over_the_arrow_is_the_resolved_simple(a2):
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    f = hom_space(p2, p1, 0).representatives[0]
    assert is_isomorphic(cone(f), res(a2, "1"))


def test_distinct_simples_are_not_isomorphic(a2):
    assert not is_isomorphic(res(a2, "1"), res(a2, "2"))


def test_direct_sum_order_does_not_matter(a2):
    x = direct_sum(res(a2, "1"), res(a2, "2"))
    y = direct_sum(res(a2, "2"), res(a2, "1"))
    assert is_isomorphic(x, y)


def test_find_isomorphism_produces_mutually_inverse_maps(a2):
    r1 = res(a2, "1")
    p2 = single_projective(a2, "2", 0)
    padded = direct_sum(cone(identity_map(p2)), r1)
    found = find_isomorphism(r1, padded)
    assert found is not None


def test_zero_complexes_are_isomorphic(a2):
    from siltkit.homotopy.complexes import make_complex

    zero1 = make_complex(a2, {}, {})
    zero2 = make_complex(a2, {}, {})
    assert is_isomorphic(zero1, zero2)
    assert not is_isomorphic(zero1, res(a2, "1"))


def test_stalks_and_resolutions_are_indecomposable(a2, a3rel):
    assert is_indecomposable(single_projective(a2, "1", 0))
    assert is_indecomposable(res(a2, "1"))
    assert is_indecomposable(res(a3rel, "1"))


def test_direct_sums_are_decomposable(a2):
    both = direct_sum(res(a2, "1"), res(a2, "2"))
    assert not is_indecomposable(both)
    twice = direct_sum(res(a2, "1"), res(a2, "1"))
    assert not is_indecomposable(twice)


def test_endomorphism_field_of_degree_two_is_not_called_decomposable(kronecker):
    """With a = I and b = [[0, -1], [1, 0]] the Kronecker module has End = Q(i),
    a field.  Its semisimple quotient is two-dimensional, yet it has no
    nontrivial idempotent, so the answer must not be a definitive False."""
    one, zero = QQ.one, QQ.zero
    module = RightModule(
        kronecker,
        {"1": 2, "2": 2},
        {"a": [[one, zero], [zero, one]], "b": [[zero, -one], [one, zero]]},
    )
    x = minimal_projective_resolution(module, 12)
    with pytest.raises(Inconclusive, match="SEARCH_BUDGET"):
        is_indecomposable(x)


def test_indecomposability_over_a_prime_field():
    from siltkit.core.algebras import build_algebra
    from siltkit.core.quivers import Arrow, Quiver

    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    algebra = build_algebra(quiver, [], 2, field=PrimeField(3))
    p1 = single_projective(algebra, "1", 0)
    assert is_indecomposable(p1)
    assert not is_indecomposable(direct_sum(p1, p1))


def test_kronecker_regular_family_is_inconclusive(kronecker):
    """Cones over the two arrows share every coarse invariant but are not
    isomorphic; the randomized test must refuse to answer rather than
    claim either verdict."""
    from siltkit.errors import Inconclusive

    p1 = single_projective(kronecker, "1", 0)
    p2 = single_projective(kronecker, "2", 0)
    maps = hom_space(p2, p1, 0).representatives
    assert len(maps) == 2
    x, y = cone(maps[0]), cone(maps[1])
    assert is_isomorphic(x, x)
    with pytest.raises(Inconclusive):
        is_isomorphic(x, y)
