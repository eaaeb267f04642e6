"""Exact Gaussian elimination, cross-checked against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

import siltkit.linalg as linalg
from oracles import sym_matrix, sym_nullity, sym_rank
from siltkit.fields import QQ, PrimeField
from siltkit.linalg import (
    Cohomology,
    identity_matrix,
    kernel_basis,
    rank,
    rref,
    solve,
    sparse_apply,
    sparse_product,
)

F7 = PrimeField(7)

small_entries = st.integers(min_value=-6, max_value=6).map(Fraction)
#: Plain ints beside Fractions, integral ones among them, as callers may
#: mix them.
mixed_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


def _matrices(entries):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.integers(min_value=1, max_value=4).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


small_matrices = _matrices(small_entries)


def exact(values) -> bool:
    """Every value is an exact rational scalar: an int or a Fraction."""
    return all(type(x) in (int, Fraction) for x in values)


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
        assert sym_matrix(m) * sym_matrix([v]).T == sympy.zeros(2, 1)
    assert len(kernel_basis(QQ, m)) == sym_nullity(m, 3)


def test_solve_consistent_and_inconsistent():
    m = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    x = solve(QQ, m, [Fraction(5), Fraction(2)])
    assert sym_matrix(m) * sym_matrix([x]).T == sympy.Matrix([5, 2])
    singular = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve(QQ, singular, [Fraction(0), Fraction(1)]) is None


def test_sparse_kernels_cancel_to_an_empty_dict():
    table = {(0, 0): {0: QQ.one}, (1, 1): {0: QQ.one, 1: QQ.one}, (1, 0): {1: QQ.one}}
    # 1*1*e0 - 1*1*(e0 + e1) + 1*1*e1 = 0
    assert sparse_product(QQ, table, {0: QQ.one, 1: QQ.one}, {0: QQ.one, 1: -QQ.one}) == {}
    columns = {0: {2: QQ.one}, 1: {2: QQ.coerce(2)}}
    assert sparse_apply(QQ, columns, {0: QQ.coerce(2), 1: -QQ.one}) == {}


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


def _matrix(rows: int, cols: int, entries=small_entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def cochain_pieces(draw, entries=small_entries):
    """Matrices of d^{n-1} (width x a) and d^n (b x width) with d^n d^{n-1} = 0,
    plus a test vector.  The columns of d^{n-1} are random combinations of
    sympy's null space of d^n."""
    width = draw(st.integers(min_value=1, max_value=4))
    a = draw(st.integers(min_value=0, max_value=3))
    b = draw(st.integers(min_value=0, max_value=3))
    d_out = draw(_matrix(b, width, entries))
    kernel = sym_matrix(d_out).nullspace() if b else sympy.eye(width).columnspace()
    kernel = [[Fraction(int(x.p), int(x.q)) for x in k] for k in kernel]
    mix = draw(_matrix(len(kernel), a, entries))
    d_in = [
        [sum((k[r] * m[j] for k, m in zip(kernel, mix)), Fraction(0)) for j in range(a)]
        for r in range(width)
    ]
    vector = draw(st.lists(entries, min_size=width, max_size=width))
    return width, d_in, d_out, vector


def test_class_coordinates_share_one_elimination(monkeypatch):
    """Boundaries span e1 and d^n kills e4, so H has basis e2, e3; every
    lookup reduces against one elimination of the representatives."""
    one, zero = Fraction(1), Fraction(0)
    d_in = [[one], [zero], [zero], [zero]]
    d_out = [[zero, zero, zero, one]]
    h = Cohomology(QQ, 4, d_in, d_out)
    assert h.dimension == len(h.reps) == 2
    calls = []
    real = linalg.rref

    def counting(field, rows):
        calls.append(len(rows))
        return real(field, rows)

    monkeypatch.setattr(linalg, "rref", counting)
    lookups = [[one, one, zero, zero], [zero, zero, 3 * one, zero], [5 * one, 2 * one, -one, zero]]
    coords = [h.coordinates(v) for v in lookups]
    assert coords == [[one, zero], [zero, 3 * one], [2 * one, -one]]
    assert h.coordinates([zero, zero, zero, one]) is None
    assert len(calls) == 1


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


@settings(max_examples=80)
@given(_matrices(mixed_entries), st.data())
def test_eliminations_of_int_and_fraction_entries_are_exact(m, data):
    """rref, kernel_basis and solve return ints and Fractions, never a
    float, and agree with sympy entry for entry."""
    theirs, their_pivots = sym_matrix(m).rref()
    reduced, pivots = rref(QQ, m)
    assert all(exact(row) for row in reduced)
    assert tuple(pivots) == their_pivots
    assert sym_matrix(reduced).tolist() == theirs[: len(pivots), :].tolist()

    kernel = kernel_basis(QQ, m)
    assert all(exact(v) for v in kernel)
    assert sym_matrix(kernel).tolist() == [list(v) for v in sym_matrix(m).nullspace()]

    b = data.draw(st.lists(mixed_entries, min_size=len(m), max_size=len(m)))
    x = solve(QQ, m, b)
    augmented = [row + [c] for row, c in zip(m, b)]
    if sym_rank(augmented) > sym_rank(m):
        assert x is None
    else:
        assert exact(x)
        assert sym_matrix(m) * sym_matrix([x]).T == sym_matrix([b]).T


@settings(max_examples=80)
@given(cochain_pieces(mixed_entries), st.data())
def test_cohomology_of_int_and_fraction_entries_is_exact(pieces, data):
    """Representatives and class coordinates are ints and Fractions, never
    floats, and sympy confirms them: the representatives are cocycles
    independent modulo the boundaries, and a cocycle minus its combination
    of representatives is a boundary."""
    width, d_in, d_out, vector = pieces
    # Present each integral boundary entry as an int or as a Fraction.
    d_in = [[data.draw(st.sampled_from([x, QQ.coerce(x)])) for x in row] for row in d_in]
    h = Cohomology(QQ, width, d_in, d_out)
    assert all(exact(rep) for rep in h.reps)
    assert len(h.reps) == width - sym_rank(d_out) - sym_rank(d_in)
    if d_out:
        assert all(not any(sym_matrix(d_out) * sym_matrix([rep]).T) for rep in h.reps)
    columns = [list(c) for c in zip(*d_in)]
    assert sym_rank(columns + h.reps) == sym_rank(d_in) + len(h.reps)
    coords = h.coordinates(vector)
    if coords is not None:
        assert exact(coords)
        rest = [
            x - sum((c * rep[r] for c, rep in zip(coords, h.reps)), 0)
            for r, x in enumerate(vector)
        ]
        assert sym_rank(columns + [rest]) == sym_rank(d_in)
    else:
        assert d_out and any(sym_matrix(d_out) * sym_matrix([vector]).T)
