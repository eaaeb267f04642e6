"""Isomorphism testing in the homotopy category and indecomposability."""

import pytest

from siltkit.cli.parsing import parse_matrix
from siltkit.core.modules import minimal_projective_resolution
from siltkit.errors import CharacteristicUnsupported, Inconclusive
from siltkit.fields import PrimeField
from siltkit.homotopy.compare import (
    find_isomorphism,
    is_indecomposable,
    is_isomorphic,
    isomorphic_collections,
)
from siltkit.homotopy.complexes import (
    ProjComplex,
    cone,
    direct_sum,
    identity_map,
    shift,
    single_projective,
)
from siltkit.homotopy.homs import hom_space


def res(algebra, v):
    return minimal_projective_resolution(algebra, v, 12)


def kronecker_presentation(kronecker, d):
    """P2^2 -> P1^2 in degrees -1, 0, with the differential ``d`` written as
    a complex literal: the minimal resolution of a Kronecker module of
    dimension vector (2, 2) on which a acts by the identity."""
    return ProjComplex(
        kronecker, {-1: ("2", "2"), 0: ("1", "1")}, {-1: parse_matrix(d, kronecker, 1)}
    )


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
    zero1 = ProjComplex(a2, {}, {})
    zero2 = ProjComplex(a2, {}, {})
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
    x = kronecker_presentation(kronecker, "-b, a | a, b")
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


def regulars(kronecker):
    """The Kronecker regular modules R_a = cone(a) and R_b = cone(b)."""
    p1 = single_projective(kronecker, "1", 0)
    p2 = single_projective(kronecker, "2", 0)
    maps = hom_space(p2, p1, 0).representatives
    assert len(maps) == 2
    return cone(maps[0]), cone(maps[1])


def direct_sums(*xs):
    total = xs[0]
    for x in xs[1:]:
        total = direct_sum(total, x)
    return total


def test_kronecker_regular_family_is_not_isomorphic(kronecker):
    """Cones over the two arrows share every coarse invariant, but H^0 Hom
    between them vanishes, so they are not isomorphic."""
    x, y = regulars(kronecker)
    assert is_isomorphic(x, x)
    assert not is_isomorphic(x, y)


def test_doubled_regular_modules_are_not_isomorphic(kronecker):
    ra, rb = regulars(kronecker)
    assert not is_isomorphic(direct_sum(ra, ra), direct_sum(rb, rb))


def test_a_local_side_with_no_invertible_representative_decides(kronecker):
    """The regular Kronecker module of length two (b acting by a Jordan
    block) has a local End of dimension 2; the sum of two copies of its
    top shares every invariant and has nonzero Homs both ways.  No Hom
    representative is invertible, so they are not isomorphic, in either
    order."""
    x = kronecker_presentation(kronecker, "b, -a | 0, b")
    y = kronecker_presentation(kronecker, "b, 0 | 0, b")
    assert hom_space(x, y, 0).dimension and hom_space(y, x, 0).dimension
    assert is_indecomposable(x)
    assert not is_isomorphic(x, y)
    assert not is_isomorphic(y, x)


def test_sums_beyond_the_coefficient_box_are_isomorphic(kronecker):
    """End dimensions 9 and 8 put every combination search out of reach;
    matching the visible summands settles both."""
    p1 = single_projective(kronecker, "1", 0)
    cube = direct_sums(p1, p1, p1)
    assert hom_space(cube, cube, 0).dimension == 9
    assert is_isomorphic(cube, cube)
    ra, rb = regulars(kronecker)
    x, y = direct_sums(ra, ra, rb, rb), direct_sums(ra, rb, ra, rb)
    assert hom_space(x, x, 0).dimension == 8
    assert is_isomorphic(x, y)


def test_an_open_comparison_names_the_search_budget(kronecker):
    ra, rb = regulars(kronecker)
    x, y = direct_sums(ra, ra, rb, rb), direct_sums(ra, ra, ra, rb)
    with pytest.raises(Inconclusive, match="SEARCH_BUDGET = 100000"):
        is_isomorphic(x, y)


def test_collections_match_up_to_order(a2):
    a, b, c = res(a2, "1"), res(a2, "2"), shift(res(a2, "1"), 1)
    assert isomorphic_collections([a, b, c], [c, a, b])
    assert not isomorphic_collections([a, a, b], [a, b, b])
    assert not isomorphic_collections([a, b], [a, b, c])


def test_an_unmatched_open_member_reraises(kronecker):
    ra, rb = regulars(kronecker)
    p1 = single_projective(kronecker, "1", 0)
    x, y = direct_sums(ra, ra, rb, rb), direct_sums(ra, ra, ra, rb)
    with pytest.raises(Inconclusive, match="SEARCH_BUDGET"):
        isomorphic_collections([p1, x], [y, p1])
