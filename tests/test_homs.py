"""Hom complexes between complexes of projectives and the Euler pairing."""

import pytest

from conftest import FORBIDDEN, INPUTS
from oracles import euler_pairing, hom_cohomology_dims
from siltkit.cli.parsing import parse_algebra
from siltkit.core.modules import minimal_projective_resolution
from siltkit.correspond.checks import support_window
from siltkit.correspond.pipeline import standard_pair
from siltkit.errors import TruncationUnsound
from siltkit.homotopy.complexes import cone, shift, single_projective
from siltkit.homotopy.homs import (
    HomComplex,
    cartan_pairing,
    hom_dims,
    hom_space,
    trusted_window,
)
from siltkit.homotopy.mutation import silting_mutate, smc_mutate


def res(algebra, v):
    return minimal_projective_resolution(algebra, v, 12)


def all_hom_dims(x, y, lo=-4, hi=4):
    out = {}
    for n in range(lo, hi + 1):
        d = hom_space(x, y, n).dimension
        if d:
            out[n] = d
    return out


def test_stalk_homs_are_cartan_entries(a2):
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    assert hom_space(p1, p1, 0).dimension == 1
    assert hom_space(p2, p1, 0).dimension == 1
    assert hom_space(p1, p2, 0).dimension == 0
    assert all(hom_space(p2, p1, n).dimension == 0 for n in (-2, -1, 1, 2))


def test_delta_table_of_projectives_against_simples(a2):
    """A projective stalk sees exactly its own simple, in degree 0."""
    stalks = {v: single_projective(a2, v, 0) for v in a2.quiver.vertices}
    simples = {v: res(a2, v) for v in a2.quiver.vertices}
    for v, p in stalks.items():
        for w, s in simples.items():
            expected = {0: 1} if v == w else {}
            assert all_hom_dims(p, s) == expected


def test_simple_resolution_hom_table(a2):
    """Between the two resolved simples: one class in degree +1 and nothing
    back, and scalar endomorphisms."""
    r1, r2 = res(a2, "1"), res(a2, "2")
    assert all_hom_dims(r1, r2) == {1: 1}
    assert all_hom_dims(r2, r1) == {}
    assert all_hom_dims(r1, r1) == {0: 1}
    assert all_hom_dims(r2, r2) == {0: 1}


def test_underlying_hom_complex_of_the_f_classes(a2):
    """The Hom complex from the resolved 2 to the resolved 1 is spanned by
    the degree-0 and degree -1 maps, with a rank-one differential."""
    hom = HomComplex(res(a2, "2"), res(a2, "1"))
    assert hom.dimension(0) == 1
    assert hom.dimension(-1) == 1
    assert hom.differential_rank(-1) == 1
    assert hom.cohomology(0).dimension == 0
    assert hom.cohomology(-1).dimension == 0


def test_shift_equivariance_of_hom_spaces(a2):
    """A hom space survives shifting either argument, reappearing one
    degree up when the source is shifted and one degree down when the
    target is."""
    r1, r2 = res(a2, "1"), res(a2, "2")
    for n in range(-3, 4):
        base = hom_space(r1, r2, n).dimension
        assert hom_space(shift(r1, 1), r2, n + 1).dimension == base
        assert hom_space(r1, shift(r2, 1), n - 1).dimension == base
        assert hom_space(shift(r1, -1), shift(r2, -1), n).dimension == base


def test_hom_dims_match_the_sympy_oracle_on_cones(a2, kronecker):
    for algebra, key in ((a2, "a2"), (kronecker, "kronecker")):
        p1 = single_projective(algebra, "1", 0)
        p2 = single_projective(algebra, "2", 0)
        f = hom_space(p2, p1, 0).representatives[0]
        objects = [p1, p2, cone(f), shift(cone(f), 1), res(algebra, "1")]
        for x in objects:
            for y in objects:
                assert all_hom_dims(x, y) == hom_cohomology_dims(
                    algebra, x, y, FORBIDDEN[key]
                )


def test_representatives_are_chain_maps_spanning_the_space(a2):
    space = hom_space(res(a2, "2"), single_projective(a2, "2", 0), 0)
    assert space.dimension == len(space.representatives) == 1
    f = space.representatives[0]
    assert f.degree == 0
    assert space.class_coordinates(f) == [1]


def test_boundary_detection(a2):
    """Maps from a projective stalk to a contractible complex are boundaries."""
    p2 = single_projective(a2, "2", 0)
    from siltkit.homotopy.complexes import identity_map

    contractible = cone(identity_map(p2))
    space = hom_space(p2, contractible, 0)
    assert space.dimension == 0
    cocycles = space.cohomology.cocycles
    assert cocycles
    for z in cocycles:
        # A boundary has zero coordinates; a non-boundary would raise.
        assert not any(space.class_coordinates(space.complex.vector_to_map(0, z)))


def test_euler_pairing_equals_cartan_pairing(a2, a3rel):
    for algebra, key in ((a2, "a2"), (a3rel, "a3rel")):
        objects = [res(algebra, v) for v in algebra.quiver.vertices]
        objects += [single_projective(algebra, v, 0) for v in algebra.quiver.vertices]
        for x in objects:
            for y in objects:
                assert cartan_pairing(
                    algebra, x.class_vector(), y.class_vector()
                ) == euler_pairing(algebra, x, y, FORBIDDEN[key])


def test_truncated_resolutions_have_a_trust_window(loop2):
    """Maps out of a truncation are untrusted in high degrees, where they
    would probe the missing tail; maps in are untrusted in low degrees."""
    r = minimal_projective_resolution(loop2, "1", 5)
    assert not r.complete
    p = single_projective(loop2, "1", 0)
    lo, hi = trusted_window(r, p)
    assert lo == float("-inf") and hi < float("inf")
    with pytest.raises(TruncationUnsound):
        hom_space(r, p, int(hi) + 1)
    lo2, hi2 = trusted_window(p, r)
    assert lo2 > float("-inf") and hi2 == float("inf")
    with pytest.raises(TruncationUnsound):
        hom_space(p, r, int(lo2) - 1)


def test_trusted_degrees_still_answer_on_truncations(loop2):
    r = minimal_projective_resolution(loop2, "1", 5)
    p = single_projective(loop2, "1", 0)
    assert hom_space(r, p, 0).dimension == 1


PAIRS = [("a2", False), ("a3rel", False), ("kronecker", False), ("a3rel", True)]


@pytest.mark.parametrize("name, mutated", PAIRS, ids=[f"{n}-{m}" for n, m in PAIRS])
def test_hom_dims_agree_with_hom_space(name, mutated, request):
    """Over every ordered pair of members of a standard pair (or of a3rel's
    pair after one left mutation), each degree of the support window
    widened by one reads the same dimension from hom_dims as from
    hom_space's representatives."""
    algebra = request.getfixturevalue(name)
    silting, smc = standard_pair(algebra)
    if mutated:
        silting, smc = silting_mutate(silting, 0, "left"), smc_mutate(smc, 0, "left")
    members = list(silting) + list(smc)
    for x in members:
        for y in members:
            window = support_window(x, y)
            for n in range(window.start - 1, window.stop + 1):
                assert hom_dims(x, y, [n])[n] == hom_space(x, y, n).dimension
            degrees = list(range(window.start - 1, window.stop + 1))
            assert hom_dims(x, y, degrees) == {
                n: hom_space(x, y, n).dimension for n in degrees
            }


def first_refusal(x, y, degrees):
    for n in degrees:
        try:
            hom_space(x, y, n)
        except TruncationUnsound as exc:
            return exc
    return None


def test_hom_dims_refuses_truncations_where_hom_space_does(loop2):
    r = minimal_projective_resolution(loop2, "1", 5)
    p = single_projective(loop2, "1", 0)
    degrees = list(range(-8, 9))
    for x, y in ((r, p), (p, r), (r, r)):
        for order in (degrees, degrees[::-1]):
            expected = first_refusal(x, y, order)
            assert expected is not None
            with pytest.raises(TruncationUnsound) as info:
                hom_dims(x, y, order)
            assert str(info.value) == str(expected)
            assert info.value.degree == expected.degree


def test_equal_complexes_share_one_hom_complex(kronecker):
    """A second Hom complex between equal but distinct complexes reuses
    the first one's linear data, while its maps run between the caller's
    own complexes."""
    x, y = res(kronecker, "1"), res(kronecker, "2")
    x2, y2 = res(kronecker, "1"), res(kronecker, "2")
    assert x is not x2 and y is not y2
    first, second = HomComplex(x, y), HomComplex(x2, y2)
    assert second.basis is first.basis
    for n in first.basis:
        assert second.differential_matrix(n) is first.differential_matrix(n)
        assert second.cohomology(n) is first.cohomology(n)
    space = hom_space(x2, y2, 1)
    assert space.dimension == hom_space(x, y, 1).dimension == 2
    assert all(f.source is x2 and f.target is y2 for f in space.representatives)


def test_two_algebras_from_one_file_never_share_hom_data():
    text = (INPUTS / "kron.alg").read_text(encoding="utf-8")
    first, second = parse_algebra(text), parse_algebra(text)
    x, y = res(first, "1"), res(second, "1")
    assert x.key == y.key
    a, b = HomComplex(x, x), HomComplex(y, y)
    assert first.hom_data is not second.hom_data
    assert list(first.hom_data) == list(second.hom_data) == [(x.key, x.key)]
    assert a.basis is not b.basis and a.basis == b.basis
    assert a.differential_matrix(0)
    for n in a.basis:
        assert a.differential_matrix(n) is not b.differential_matrix(n)
        assert a.differential_matrix(n) == b.differential_matrix(n)
