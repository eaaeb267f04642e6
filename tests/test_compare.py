"""Isomorphism testing in the homotopy category and indecomposability."""

import random
from fractions import Fraction

import pytest

import siltkit.homotopy.compare as compare
from siltkit.cli.parsing import parse_matrix
from siltkit.core.algebras import build_algebra
from siltkit.core.modules import minimal_projective_resolution
from siltkit.core.quivers import Arrow, Quiver
from siltkit.errors import Inconclusive
from siltkit.fields import QQ, PrimeField, field_of_characteristic
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
from siltkit.homotopy.homs import HomComplex, hom_space


def res(algebra, v):
    return minimal_projective_resolution(algebra, v)


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
    with pytest.raises(Inconclusive, match="End modulo its radical has dimension 2"):
        is_indecomposable(x)


@pytest.mark.parametrize("p, expected", [(2, True), (3, True), (5, False)])
def test_indecomposability_over_f_p_follows_x_squared_plus_one(p, expected):
    """The module of the Q(i) test has End = F_p[x]/(x^2 + 1): local over
    F_2, the field F_9 over F_3, and F_5 × F_5 over F_5, where x^2 + 1
    splits.  Nothing splits the differential visibly."""
    x = kronecker_presentation(kronecker_over(p), "-b, a | a, b")
    assert is_indecomposable(x) is expected


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("d, second", [("a, b | 0, b", "b"), ("a, a | 0, a", "a")])
def test_a_connected_differential_can_still_decompose(p, d, second):
    """[[a, b], [0, b]] and [[a, a], [0, a]] are diag(a, b) and diag(a, a)
    after a change of basis of P1^2, so the complexes are R_a ⊕ R_b and
    R_a ⊕ R_a, with End/rad = k × k and M_2(k), although their
    differentials do not split."""
    kronecker = kronecker_over(p)
    x = kronecker_presentation(kronecker, d)
    ra, rb = regulars(kronecker)
    assert not is_indecomposable(x)
    assert is_isomorphic(x, direct_sum(ra, {"a": ra, "b": rb}[second]))


@pytest.mark.parametrize(
    "poly, repeated, rational",
    [
        ([0, 0, 1], True, True),
        ([1, 0, 1], False, False),
        ([1, 0, 2, 0, 1], True, False),
        ([-2, 0, 1], False, False),
        ([Fraction(-1, 4), 0, 1], False, True),
        ([6, -5, 1], False, True),
    ],
    ids=["t^2", "t^2+1", "(t^2+1)^2", "t^2-2", "t^2-1/4", "(t-2)(t-3)"],
)
def test_the_splitting_tests_on_minimal_polynomials(poly, repeated, rational):
    assert compare._has_repeated_factor(QQ, poly) is repeated
    assert compare._has_rational_root(poly) is rational


def test_indecomposability_over_a_prime_field():
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    algebra = build_algebra(quiver, [], 2, field=PrimeField(3))
    p1 = single_projective(algebra, "1", 0)
    assert is_indecomposable(p1)
    assert not is_indecomposable(direct_sum(p1, p1))


def kronecker_over(p):
    """The Kronecker algebra over the field of characteristic p."""
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"), Arrow("b", "2", "1")))
    return build_algebra(quiver, [], 2, field=field_of_characteristic(p))


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
    """Sums with End of dimension 9 and 8, once beyond the reach of a
    coefficient search, are decided through End modulo its radical."""
    p1 = single_projective(kronecker, "1", 0)
    cube = direct_sums(p1, p1, p1)
    assert hom_space(cube, cube, 0).dimension == 9
    assert is_isomorphic(cube, cube)
    ra, rb = regulars(kronecker)
    x, y = direct_sums(ra, ra, rb, rb), direct_sums(ra, rb, ra, rb)
    assert hom_space(x, x, 0).dimension == 8
    assert is_isomorphic(x, y)


def test_sums_with_different_multiplicities_are_not_isomorphic():
    """R_a^2 ⊕ R_b^2 and R_a^3 ⊕ R_b share every invariant the shortcuts
    read, and End has dimension 8 on both sides; they differ in the
    multiplicities, which t(x, y) reads off, in every characteristic."""
    for p in (0, 2, 3):
        ra, rb = regulars(kronecker_over(p))
        x, y = direct_sums(ra, ra, rb, rb), direct_sums(ra, ra, ra, rb)
        assert not is_isomorphic(x, y)
        assert not is_isomorphic(y, x)


@pytest.mark.parametrize("p", [0, 2])
def test_isomorphism_reads_krull_schmidt_multiplicities(p):
    """Direct sums of six pairwise non-isomorphic indecomposables, taken
    in shuffled order, are isomorphic exactly when their multiplicity
    vectors agree.  R_a ⊕ R_b and the Jordan regular J share every
    invariant the shortcuts read, and so do the sums built on them."""
    kronecker = kronecker_over(p)
    ra, rb = regulars(kronecker)
    jordan = kronecker_presentation(kronecker, "b, -a | 0, b")
    p1 = single_projective(kronecker, "1", 0)
    p2 = single_projective(kronecker, "2", 0)
    pieces = [p1, p2, ra, rb, jordan, shift(ra, 1)]
    vectors = [
        (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 2, 0, 0, 0),
        (1, 0, 1, 1, 0, 0),
        (1, 0, 0, 0, 1, 0),
        (0, 1, 0, 1, 1, 1),
        (0, 1, 1, 2, 0, 1),
    ]
    shuffle = random.Random(p).shuffle

    def summed(vector):
        summands = [x for x, m in zip(pieces, vector) for _ in range(m)]
        shuffle(summands)
        return direct_sums(*summands)

    for u in vectors:
        for v in vectors:
            assert is_isomorphic(summed(u), summed(v)) == (u == v), (u, v)


def test_collections_match_up_to_order(a2):
    a, b, c = res(a2, "1"), res(a2, "2"), shift(res(a2, "1"), 1)
    assert isomorphic_collections([a, b, c], [c, a, b])
    assert not isomorphic_collections([a, a, b], [a, b, b])
    assert not isomorphic_collections([a, b], [a, b, c])


def test_equal_complete_minimal_forms_are_isomorphic_without_a_search(
    kronecker, monkeypatch
):
    """Equal keys make the identity an isomorphism, so no Hom space is
    computed, not even for two objects with different labels or a
    contractible summand on one side."""

    def no_search(x, y, n):
        raise AssertionError("a Hom space was computed for identical minimal forms")

    monkeypatch.setattr(compare, "hom_space", no_search)
    x, y = res(kronecker, "1"), res(kronecker, "1")
    assert x is not y and x.key == y.key
    contractible = cone(identity_map(single_projective(kronecker, "2")))
    padded = direct_sum(res(kronecker, "1"), contractible)
    assert padded.key != x.key
    assert is_isomorphic(x, y)
    assert is_isomorphic(padded, y)
    assert is_isomorphic(single_projective(kronecker, "1", 0, "A"),
                         single_projective(kronecker, "1", 0, "B"))


def test_a_second_isomorphism_test_builds_no_end_table(kronecker, monkeypatch):
    """The H^0 End tables are kept on the minimal forms, so asking again
    composes only the products of the two Hom spaces between them."""
    ra, rb = regulars(kronecker)
    x, y = direct_sums(ra, ra, rb, rb), direct_sums(ra, rb, ra, rb)
    compositions = []
    real = HomComplex.compose

    def counting(self, *args):
        compositions.append(1)
        return real(self, *args)

    monkeypatch.setattr(HomComplex, "compose", counting)
    assert is_isomorphic(x, y)
    first, compositions[:] = len(compositions), []
    assert is_isomorphic(x, y)
    between = hom_space(y, x, 0).dimension * hom_space(x, y, 0).dimension
    assert len(compositions) == between < first
