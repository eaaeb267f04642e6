"""Exact Gaussian elimination, cross-checked against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from oracles import sym_matrix, sym_nullity, sym_rank
from siltkit.fields import QQ, PrimeField
from siltkit.linalg import (
    Cohomology,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    rref,
    solve,
)

F7 = PrimeField(7)

small_entries = st.integers(min_value=-6, max_value=6).map(Fraction)
small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(small_entries, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_rank_of_identity():
    assert rank(QQ, identity_matrix(QQ, 4)) == 4


def test_rank_matches_sympy_on_a_singular_matrix():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(QQ, m) == 1 == sym_rank(m)


def test_kernel_of_zero_map_needs_explicit_width():
    vectors = kernel_basis(QQ, [], ncols=3)
    assert len(vectors) == 3


def test_kernel_vectors_lie_in_the_kernel():
    m = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    for v in kernel_basis(QQ, m):
        assert all(c == 0 for c in mat_vec(QQ, m, v))
    assert len(kernel_basis(QQ, m)) == sym_nullity(m, 3)


def test_solve_consistent_and_inconsistent():
    m = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    x = solve(QQ, m, [Fraction(5), Fraction(2)])
    assert mat_vec(QQ, m, x) == [Fraction(5), Fraction(2)]
    singular = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve(QQ, singular, [Fraction(0), Fraction(1)]) is None


def test_prime_field_rank():
    # over F_7 the matrix [[1,3],[3,2]] has determinant 2*1 - 9 = -7 = 0
    m = [[F7.coerce(1), F7.coerce(3)], [F7.coerce(3), F7.coerce(2)]]
    assert rank(F7, m) == 1


@settings(max_examples=60)
@given(small_matrices)
def test_rank_agrees_with_sympy(m):
    assert rank(QQ, m) == sym_rank(m)


@settings(max_examples=60)
@given(small_matrices)
def test_rank_nullity(m):
    cols = len(m[0])
    assert rank(QQ, m) + len(kernel_basis(QQ, m)) == cols


@settings(max_examples=60)
@given(small_matrices)
def test_rref_is_a_row_equivalent_echelon_form(m):
    reduced, pivots = rref(QQ, m)
    assert len(pivots) == rank(QQ, m) == sym_rank(reduced)
    for row_index, col in enumerate(pivots):
        assert reduced[row_index][col] == Fraction(1)
        for other in range(len(reduced)):
            if other != row_index:
                assert reduced[other][col] == Fraction(0)


def _matrix(rows: int, cols: int):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


compatible_pairs = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
).flatmap(lambda d: st.tuples(_matrix(d[0], d[1]), _matrix(d[1], d[2])))


@settings(max_examples=40)
@given(compatible_pairs)
def test_matrix_product_agrees_with_sympy(pair):
    a, b = pair
    ours = mat_mul(QQ, a, b)
    theirs = sym_matrix(a) * sym_matrix(b)
    for i in range(len(ours)):
        for j in range(len(ours[0])):
            assert Fraction(int(theirs[i, j].p), int(theirs[i, j].q)) == ours[i][j]


@st.composite
def cochain_pieces(draw):
    """Matrices of d^{n-1} (width x a) and d^n (b x width) with d^n d^{n-1} = 0,
    plus a test vector.  The columns of d^{n-1} are random combinations of
    sympy's null space of d^n."""
    width = draw(st.integers(min_value=1, max_value=4))
    a = draw(st.integers(min_value=0, max_value=3))
    b = draw(st.integers(min_value=0, max_value=3))
    d_out = draw(_matrix(b, width))
    kernel = sym_matrix(d_out).nullspace() if b else sympy.eye(width).columnspace()
    kernel = [[Fraction(int(x.p), int(x.q)) for x in k] for k in kernel]
    mix = draw(_matrix(len(kernel), a))
    d_in = [
        [sum((k[r] * m[j] for k, m in zip(kernel, mix)), Fraction(0)) for j in range(a)]
        for r in range(width)
    ]
    vector = draw(st.lists(small_entries, min_size=width, max_size=width))
    return width, d_in, d_out, vector


@settings(max_examples=80)
@given(cochain_pieces())
def test_cohomology_agrees_with_the_sympy_rank_formula(pieces):
    width, d_in, d_out, vector = pieces
    h = Cohomology(QQ, width, d_in, d_out)
    assert h.dimension == width - sym_rank(d_out) - sym_rank(d_in)
    assert len(h.reps) == h.dimension
    for i, rep in enumerate(h.reps):
        assert h.coordinates(rep) == [Fraction(int(i == j)) for j in range(h.dimension)]
    for column in zip(*d_in):
        assert h.coordinates(list(column)) == [Fraction(0)] * h.dimension
    coords = h.coordinates(vector)
    if d_out and any(sym_matrix(d_out) * sym_matrix([vector]).T):
        assert coords is None
    else:
        # The vector minus its combination of representatives is a boundary.
        rest = [
            x - sum((c * rep[r] for c, rep in zip(coords, h.reps)), Fraction(0))
            for r, x in enumerate(vector)
        ]
        augmented = [row + [x] for row, x in zip(d_in, rest)]
        assert sym_rank(augmented) == sym_rank(d_in)
