"""Path algebra construction: dimensions, products, Cartan data."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FORBIDDEN, INPUTS
from oracles import path_product, relation_words
from siltkit.cli.parsing import parse_algebra
from siltkit.core.algebras import build_algebra
from siltkit.core.quivers import Arrow, Path, Quiver
from siltkit.errors import MalformedRelation, NonAdmissible, UnknownVertex
from siltkit.fields import QQ, PrimeField


def test_dimensions_of_the_small_algebras(a2, a3, a3rel, kronecker, loop2, one_vertex):
    assert len(a2.basis) == 3
    assert len(a3.basis) == 6
    assert len(a3rel.basis) == 5
    assert len(kronecker.basis) == 4
    assert len(loop2.basis) == 2
    assert len(one_vertex.basis) == 1


def test_idempotents_are_orthogonal(a3):
    for v in a3.quiver.vertices:
        for w in a3.quiver.vertices:
            product = a3.idempotent(v) * a3.idempotent(w)
            if v == w:
                assert product == a3.idempotent(v)
            else:
                assert product.is_zero()


def test_identity_is_the_sum_of_idempotents(a3):
    one = a3.zero()
    for v in a3.quiver.vertices:
        one = one + a3.idempotent(v)
    for i in range(len(a3.basis)):
        x = a3.basis_element(i)
        assert one * x == x
        assert x * one == x


def test_arrow_sandwiched_by_its_endpoints(a2):
    a = a2.from_path(Path(("a",), "2", "1"))
    assert a2.idempotent("1") * a == a
    assert a * a2.idempotent("2") == a
    assert (a2.idempotent("2") * a).is_zero()
    assert (a * a2.idempotent("1")).is_zero()


@pytest.mark.parametrize("fixture", ["a2", "a3", "a3rel", "kronecker", "loop2"])
def test_products_match_the_path_oracle(fixture, request):
    """Every basis product agrees with independent word concatenation."""
    algebra = request.getfixturevalue(fixture)
    forbidden = FORBIDDEN[fixture]
    for i, j in itertools.product(range(len(algebra.basis)), repeat=2):
        expected = path_product(algebra, i, j, forbidden)
        product = algebra.basis_element(i) * algebra.basis_element(j)
        if expected is None:
            assert product.is_zero(), (i, j)
        else:
            k, c = expected
            assert product.coeffs == {k: c}, (i, j)


def test_square_products_match_the_path_oracle():
    """On the commutative square, d c is no basis path; the oracle
    rewrites it by the file's relation b a = d c."""
    square = INPUTS.parent / "tests" / "golden" / "resolutions" / "square.alg"
    algebra = parse_algebra(square.read_text(encoding="utf-8"))
    forbidden, binomials = relation_words(algebra)
    for i, j in itertools.product(range(len(algebra.basis)), repeat=2):
        expected = path_product(algebra, i, j, forbidden, binomials)
        product = algebra.basis_element(i) * algebra.basis_element(j)
        assert product.coeffs == ({} if expected is None else dict([expected])), (i, j)


def test_associativity_on_all_basis_triples(a3rel):
    n = len(a3rel.basis)
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = (a3rel.basis_element(t) for t in (i, j, k))
        assert (x * y) * z == x * (y * z)


def test_hom_basis_dimensions_are_cartan_entries(a3):
    for v in a3.quiver.vertices:
        for w in a3.quiver.vertices:
            assert len(a3.hom_basis(v, w)) == a3.cartan_entry(v, w)


def test_cartan_matrix_of_a2(a2):
    assert a2.cartan_entry("1", "1") == 1
    assert a2.cartan_entry("1", "2") == 1
    assert a2.cartan_entry("2", "1") == 0
    assert a2.cartan_entry("2", "2") == 1


def test_unbounded_loop_is_not_admissible():
    loop = Quiver(("1",), (Arrow("x", "1", "1"),))
    with pytest.raises(NonAdmissible) as info:
        build_algebra(loop, [], 4)
    assert info.value.witness is not None


def test_malformed_relation_mixing_parallel_classes(a2):
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    bad = [[(QQ.one, Path(("a",), "2", "1")), (QQ.one, Path((), "1", "1"))]]
    with pytest.raises(MalformedRelation):
        build_algebra(quiver, bad, 2)


def test_relation_terms_shorter_than_two_are_rejected():
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    with pytest.raises(MalformedRelation):
        build_algebra(quiver, [[(QQ.one, Path(("a",), "2", "1"))]], 2)


def test_check_vertex(a2):
    with pytest.raises(UnknownVertex):
        a2.idempotent("9")


def test_prime_field_coefficients():
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    algebra = build_algebra(quiver, [], 2, field=PrimeField(5))
    assert len(algebra.basis) == 3
    a = algebra.from_path(Path(("a",), "2", "1"))
    assert (a + a + a + a + a).is_zero()


def test_commutative_square_with_relation():
    """A commutativity relation merges two length-two paths into one class."""
    quiver = Quiver(
        ("1", "2", "3", "4"),
        (
            Arrow("a", "2", "1"),
            Arrow("b", "4", "2"),
            Arrow("c", "3", "1"),
            Arrow("d", "4", "3"),
        ),
    )
    relation = [
        [
            (QQ.one, Path(("a", "b"), "4", "1")),
            (-QQ.one, Path(("c", "d"), "4", "1")),
        ]
    ]
    algebra = build_algebra(quiver, relation, 3)
    # 4 vertices + 4 arrows + 1 surviving diagonal class
    assert len(algebra.basis) == 9
    ab = algebra.from_path(Path(("a", "b"), "4", "1"))
    cd = algebra.from_path(Path(("c", "d"), "4", "1"))
    assert ab == cd


small_scalars = st.integers(min_value=-4, max_value=4).map(QQ.coerce)
index_and_scalar = st.tuples(st.integers(min_value=0, max_value=4), small_scalars)


@settings(max_examples=50)
@given(index_and_scalar, index_and_scalar, index_and_scalar)
def test_distributivity_of_random_elements(a3rel, px, py, pz):
    x = a3rel.basis_element(px[0]).scale(px[1])
    y = a3rel.basis_element(py[0]).scale(py[1])
    z = a3rel.basis_element(pz[0]).scale(pz[1])
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
