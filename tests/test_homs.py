"""Hom complexes between complexes of projectives and the Euler pairing."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FORBIDDEN, INPUTS
from oracles import (
    element_product,
    euler_pairing,
    hom_cochain_coordinates,
    hom_cohomology_dims,
    hom_differential_matrix,
    relation_words,
)
from siltkit.cli.parsing import parse_algebra
from siltkit.core.modules import minimal_projective_resolution
from siltkit.correspond.checks import support_window
from siltkit.correspond.pipeline import standard_pair
from siltkit.homotopy.complexes import cone, shift, single_projective
from siltkit.homotopy.homs import (
    HomComplex,
    cartan_pairing,
    hom_dims,
    hom_space,
)
from siltkit.homotopy.mutation import silting_mutate, smc_mutate


def res(algebra, v):
    return minimal_projective_resolution(algebra, v)


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


@pytest.mark.parametrize("name", ["a3rel", "kronecker"])
def test_the_differential_is_one_sparse_image_per_basis_element(name, request):
    """Between the members of a standard pair, differential(n) holds one
    image per degree-n basis element, with no zero entry, and each image
    is the oracle's column of the same basis element."""
    algebra = request.getfixturevalue(name)
    silting, smc = standard_pair(algebra)
    members = list(silting) + list(smc)
    for x in members:
        for y in members:
            hom = HomComplex(x, y)
            for n in hom.basis:
                images = hom.differential(n)
                assert len(images) == hom.dimension(n)
                assert all(all(image.values()) for image in images)
                matrix, _, _ = hom_differential_matrix(algebra, x, y, n, FORBIDDEN[name])
                rows = hom_cochain_coordinates(algebra, x, y, n + 1)
                for col, elt in enumerate(hom_cochain_coordinates(algebra, x, y, n)):
                    assert images[hom.index[n][elt]] == {
                        hom.index[n + 1][rows[r]]: c
                        for r, row in enumerate(matrix)
                        if (c := row[col])
                    }


def test_representatives_are_chain_maps_spanning_the_space(a2):
    space = hom_space(res(a2, "2"), single_projective(a2, "2", 0), 0)
    assert space.dimension == len(space.representatives) == 1
    f = space.representatives[0]
    assert f.degree == 0
    assert space.cohomology.coordinates(space.cohomology.reps[0]) == {0: 1}


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
        # A boundary has zero coordinates; a non-cocycle would read None.
        assert space.cohomology.coordinates(z) == {}


def test_euler_pairing_equals_cartan_pairing(a2, a3rel):
    for algebra, key in ((a2, "a2"), (a3rel, "a3rel")):
        objects = [res(algebra, v) for v in algebra.quiver.vertices]
        objects += [single_projective(algebra, v, 0) for v in algebra.quiver.vertices]
        for x in objects:
            for y in objects:
                assert cartan_pairing(
                    algebra, x.class_vector(), y.class_vector()
                ) == euler_pairing(algebra, x, y, FORBIDDEN[key])


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
        assert second.differential(n) is first.differential(n)
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
    assert a.differential(0)
    for n in a.basis:
        assert a.differential(n) is not b.differential(n)
        assert a.differential(n) == b.differential(n)


COMPOSE_FILES = {
    "a2": INPUTS / "a2.alg",
    "a3rel": INPUTS / "a3rel.alg",
    "kron": INPUTS / "kron.alg",
    "square": INPUTS.parent / "tests" / "golden" / "resolutions" / "square.alg",
}
COMPOSE_CASES = [(name, p) for name in COMPOSE_FILES for p in (0, 3)]


@cache
def compose_case(name: str, characteristic: int):
    """The algebra at this characteristic, the oracle's relation words
    (read off the rational algebra) and the complexes to compose between:
    every projective stalk in degrees 0 and 1 and every resolved simple,
    also shifted."""
    text = COMPOSE_FILES[name].read_text(encoding="utf-8")
    algebra = parse_algebra(text, characteristic)
    words = relation_words(parse_algebra(text))
    objects = []
    for v in algebra.quiver.vertices:
        objects += [single_projective(algebra, v, 0), single_projective(algebra, v, 1)]
        objects += [res(algebra, v), shift(res(algebra, v), 1)]
    return algebra, words, objects


def draw_cochain(data, hom: HomComplex, n: int) -> dict:
    """A random degree-n cochain of hom, not necessarily a cocycle."""
    if not hom.dimension(n):
        return {}
    coefficient = st.integers(min_value=-2, max_value=2).filter(bool)
    drawn = data.draw(
        st.dictionaries(st.integers(0, hom.dimension(n) - 1), coefficient, max_size=4)
    )
    return {i: hom.field.coerce(c) for i, c in drawn.items()}


def entries(hom: HomComplex, n: int, vec: dict) -> dict:
    """{(k, r, c): {path: coefficient}}: the matrix entries of a cochain,
    residues of F_p read as integers."""
    out: dict = {}
    for i, c in vec.items():
        k, r, col, q = hom.basis[n][i]
        out.setdefault((k, r, col), {})[q] = Fraction(getattr(c, "value", c))
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(COMPOSE_CASES), st.data())
def test_compose_is_the_entrywise_product_of_matrices(case, data):
    """At X^k, entry (r2, c) of g∘f is the sum over r of g(r2, r)·f(r, c),
    with each product of algebra elements taken by the path oracle."""
    name, p = case
    algebra, (forbidden, binomials), objects = compose_case(name, p)
    x, y, z = (data.draw(st.sampled_from(objects)) for _ in range(3))
    m, n = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    outer, inner, into = HomComplex(y, z), HomComplex(x, y), HomComplex(x, z)
    g, f = draw_cochain(data, outer, m), draw_cochain(data, inner, n)
    gs, fs = entries(outer, m, g), entries(inner, n, f)
    expected: dict = {}
    for (k, r, c), f_entry in fs.items():
        for r2 in range(len(z.summands.get(k + n + m, ()))):
            g_entry = gs.get((k + n, r2, r))
            if g_entry is None:
                continue
            product = element_product(algebra, g_entry, f_entry, forbidden, binomials)
            for path, coeff in product.items():
                key = (k, r2, c, path)
                expected[key] = expected.get(key, Fraction(0)) + coeff
    if p:
        expected = {key: c % p for key, c in expected.items()}
    expected = {key: c for key, c in expected.items() if c}
    got = outer.compose(g, m, inner, f, n, into)
    assert {
        into.basis[m + n][i]: Fraction(getattr(c, "value", c)) for i, c in got.items()
    } == expected
