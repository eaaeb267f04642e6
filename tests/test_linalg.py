"""Exact sparse Gaussian elimination, cross-checked against sympy.

Matrices are drawn dense for sympy and handed to siltkit as lists of
sparse coordinates: rows over column positions, or columns (images of
basis elements) over row positions."""

from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings, strategies as st

import siltkit.linalg as linalg
from oracles import sym_matrix, sym_nullity, sym_rank
from siltkit.fields import QQ, PrimeField
from siltkit.linalg import (
    Cohomology,
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


def rows_of(m) -> list[dict]:
    """The rows of a dense matrix as sparse coordinates over column positions."""
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def columns_of(m, ncols: int) -> list[dict]:
    """The ``ncols`` columns of a dense matrix as sparse coordinates over
    row positions: the images of the basis of the domain."""
    return [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(ncols)]


def dense(v: dict, n: int) -> list:
    return [v.get(k, 0) for k in range(n)]


def exact(values) -> bool:
    """Every value is an exact rational scalar: an int or a Fraction."""
    return all(type(x) in (int, Fraction) for x in values)


def test_rank_of_identity():
    assert rank(QQ, [{i: QQ.one} for i in range(4)]) == 4


def test_rank_matches_sympy_on_a_singular_matrix():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(QQ, rows_of(m)) == 1 == sym_rank(m)
    assert rank(QQ, columns_of(m, 2)) == 1


def test_kernel_of_zero_map_needs_explicit_width():
    """No row carries the domain, so its keys are passed explicitly."""
    vectors = kernel_basis(QQ, [], columns=range(3))
    assert vectors == [{0: 1}, {1: 1}, {2: 1}]
    assert kernel_basis(QQ, [{}, {}], columns=[4, 9]) == [{4: 1}, {9: 1}]


def test_kernel_vectors_lie_in_the_kernel():
    m = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    kernel = kernel_basis(QQ, rows_of(m), range(3))
    for v in kernel:
        assert sym_matrix(m) * sym_matrix([dense(v, 3)]).T == sympy.zeros(2, 1)
    assert len(kernel) == sym_nullity(m, 3)


def test_solve_consistent_and_inconsistent():
    m = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    x = solve(QQ, columns_of(m, 2), {0: Fraction(5), 1: Fraction(2)})
    assert sym_matrix(m) * sym_matrix([dense(x, 2)]).T == sympy.Matrix([5, 2])
    singular = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve(QQ, columns_of(singular, 2), {1: Fraction(1)}) is None
    assert solve(QQ, [{}, {}], {}) == {}


def test_sparse_kernels_cancel_to_an_empty_dict():
    table = {(0, 0): {0: QQ.one}, (1, 1): {0: QQ.one, 1: QQ.one}, (1, 0): {1: QQ.one}}
    # 1*1*e0 - 1*1*(e0 + e1) + 1*1*e1 = 0
    assert sparse_product(QQ, table, {0: QQ.one, 1: QQ.one}, {0: QQ.one, 1: -QQ.one}) == {}
    columns = {0: {2: QQ.one}, 1: {2: QQ.coerce(2)}}
    assert sparse_apply(QQ, columns, {0: QQ.coerce(2), 1: -QQ.one}) == {}


def test_prime_field_rank():
    # over F_7 the matrix [[1,3],[3,2]] has determinant 2*1 - 9 = -7 = 0
    m = [[F7.coerce(1), F7.coerce(3)], [F7.coerce(3), F7.coerce(2)]]
    assert rank(F7, rows_of(m)) == 1


@settings(max_examples=60)
@given(small_matrices)
def test_rank_agrees_with_sympy(m):
    assert rank(QQ, rows_of(m)) == rank(QQ, columns_of(m, len(m[0]))) == sym_rank(m)


@settings(max_examples=60)
@given(small_matrices)
def test_rank_nullity(m):
    cols = len(m[0])
    assert rank(QQ, rows_of(m)) + len(kernel_basis(QQ, rows_of(m), range(cols))) == cols


@settings(max_examples=60)
@given(small_matrices)
def test_rref_is_a_row_equivalent_echelon_form(m):
    reduced, pivots = rref(QQ, rows_of(m))
    cols = len(m[0])
    assert len(pivots) == rank(QQ, rows_of(m)) == sym_rank([dense(r, cols) for r in reduced])
    for row_index, col in enumerate(pivots):
        assert reduced[row_index][col] == Fraction(1)
        assert min(reduced[row_index]) == col
        for other in range(len(reduced)):
            if other != row_index:
                assert col not in reduced[other]


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


def cohomology_of(field, width: int, d_in, d_out) -> Cohomology:
    """The Cohomology of dense d^{n-1} (width rows) and d^n (width columns),
    handed over as the images of the degree-(n-1) and degree-n bases."""
    return Cohomology(
        field, range(width), columns_of(d_in, len(d_in[0])), columns_of(d_out, width)
    )


def test_class_coordinates_share_one_elimination(monkeypatch):
    """Boundaries span e1 and d^n kills e4, so H has basis e2, e3; every
    lookup reduces against one elimination of the representatives.  The
    keys are the caller's own: here 10, 11, 12 and 13."""
    one = Fraction(1)
    h = Cohomology(QQ, [10, 11, 12, 13], [{10: one}], [{}, {}, {}, {20: one}])
    assert h.dimension == len(h.reps) == 2
    assert h.reps == [{11: one}, {12: one}]
    calls = []
    real = linalg.rref

    def counting(field, rows):
        calls.append(len(rows))
        return real(field, rows)

    monkeypatch.setattr(linalg, "rref", counting)
    lookups = [{10: one, 11: one}, {12: 3 * one}, {10: 5 * one, 11: 2 * one, 12: -one}]
    coords = [h.coordinates(v) for v in lookups]
    assert coords == [{0: one}, {1: 3 * one}, {0: 2 * one, 1: -one}]
    assert h.coordinates({13: one}) is None
    assert h.coordinates({10: 7 * one}) == {}
    assert len(calls) == 1


@settings(max_examples=80)
@given(cochain_pieces())
def test_cohomology_agrees_with_the_sympy_rank_formula(pieces):
    width, d_in, d_out, vector = pieces
    h = cohomology_of(QQ, width, d_in, d_out)
    assert h.dimension == width - sym_rank(d_out) - sym_rank(d_in)
    assert len(h.reps) == h.dimension
    for i, rep in enumerate(h.reps):
        assert h.coordinates(rep) == {i: Fraction(1)}
    for column in columns_of(d_in, len(d_in[0])):
        assert h.coordinates(column) == {}
    coords = h.coordinates(rows_of([vector])[0])
    if d_out and any(sym_matrix(d_out) * sym_matrix([vector]).T):
        assert coords is None
    else:
        # The vector minus its combination of representatives is a boundary.
        rest = [
            x - sum((c * h.reps[j].get(r, 0) for j, c in coords.items()), Fraction(0))
            for r, x in enumerate(vector)
        ]
        augmented = [row + [x] for row, x in zip(d_in, rest)]
        assert sym_rank(augmented) == sym_rank(d_in)


@settings(max_examples=80)
@given(_matrices(mixed_entries), st.data())
def test_eliminations_of_int_and_fraction_entries_are_exact(m, data):
    """rref, kernel_basis and solve return ints and Fractions, never a
    float, and agree with sympy entry for entry."""
    cols = len(m[0])
    theirs, their_pivots = sym_matrix(m).rref()
    reduced, pivots = rref(QQ, rows_of(m))
    assert all(exact(row.values()) for row in reduced)
    assert tuple(pivots) == their_pivots
    assert [dense(row, cols) for row in reduced] == theirs[: len(pivots), :].tolist()

    kernel = kernel_basis(QQ, rows_of(m), range(cols))
    assert all(exact(v.values()) for v in kernel)
    assert [dense(v, cols) for v in kernel] == [list(v) for v in sym_matrix(m).nullspace()]

    b = data.draw(st.lists(mixed_entries, min_size=len(m), max_size=len(m)))
    x = solve(QQ, columns_of(m, cols), rows_of([b])[0])
    augmented = [row + [c] for row, c in zip(m, b)]
    if sym_rank(augmented) > sym_rank(m):
        assert x is None
    else:
        assert exact(x.values())
        assert sym_matrix(m) * sym_matrix([dense(x, cols)]).T == sym_matrix([b]).T


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
    h = cohomology_of(QQ, width, d_in, d_out)
    reps = [dense(rep, width) for rep in h.reps]
    assert all(exact(rep.values()) for rep in h.reps)
    assert len(reps) == width - sym_rank(d_out) - sym_rank(d_in)
    if d_out:
        assert all(not any(sym_matrix(d_out) * sym_matrix([rep]).T) for rep in reps)
    columns = [list(c) for c in zip(*d_in)]
    assert sym_rank(columns + reps) == sym_rank(d_in) + len(reps)
    coords = h.coordinates(rows_of([vector])[0])
    if coords is not None:
        assert exact(coords.values())
        rest = [
            x - sum((c * reps[j][r] for j, c in coords.items()), 0)
            for r, x in enumerate(vector)
        ]
        assert sym_rank(columns + [rest]) == sym_rank(d_in)
    else:
        assert d_out and any(sym_matrix(d_out) * sym_matrix([vector]).T)


SPARSE_FIELDS = {0: QQ, 2: PrimeField(2), 3: PrimeField(3)}


def _ascending_keys(gaps) -> list[int]:
    """Keys from 0 upwards with the given gaps, so key 0 is always one."""
    keys = [0]
    for gap in gaps:
        keys.append(keys[-1] + gap)
    return keys


@st.composite
def sparse_systems(draw):
    """A characteristic, ascending row and column keys with gaps, a mostly
    zero matrix over them (so zero rows and zero columns are common), a
    right-hand side and integer mixes for a boundary map."""
    p = draw(st.sampled_from(sorted(SPARSE_FIELDS)))
    row_keys = _ascending_keys(draw(st.lists(st.integers(1, 3), max_size=4)))
    col_keys = _ascending_keys(draw(st.lists(st.integers(1, 3), max_size=4)))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    m = [[draw(entry) for _ in col_keys] for _ in row_keys]
    b = [draw(entry) for _ in row_keys]
    mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(col_keys),
                                 max_size=len(col_keys)), max_size=3))
    vector = [draw(entry) for _ in col_keys]
    return p, row_keys, col_keys, m, b, mix, vector


def _domain(p: int):
    return sympy.QQ if p == 0 else sympy.GF(p)


def _dm(m, p: int, shape) -> DomainMatrix:
    dom = _domain(p)
    return DomainMatrix([[dom(x) for x in row] for row in m], shape, dom)


def _to_domain(p: int, x):
    dom = _domain(p)
    if p:
        return dom(x.value)
    x = Fraction(x)
    return dom(x.numerator, x.denominator)


def _from_domain(field, p: int, x):
    if p:
        return field.coerce(int(x))
    return Fraction(int(x.numerator), int(x.denominator))


def _over(field, p, keys, v: dict) -> list:
    """A sparse vector over ``keys`` as a dense list in sympy's domain."""
    return [_to_domain(p, v.get(k, field.zero)) for k in keys]


@settings(max_examples=120)
@given(sparse_systems())
@example((0, [0, 1], [0, 2, 3], [[0, 0, 0], [5, 0, 1]], [0, 2], [[1, 0, 0]], [3, 0, 0]))
@example((2, [0, 1, 3], [0, 1], [[1, 1], [0, 0], [1, 1]], [1, 0, 1], [], [1, 1]))
@example((3, [0, 2], [0, 1, 4], [[2, 0, 1], [0, 0, 0]], [0, 0], [[0, 1, 0]], [1, 2, 0]))
def test_sparse_eliminations_agree_with_sympy(system):
    """Over Q, GF(2) and GF(3), on mostly zero matrices keyed with gaps
    from key 0: rref, kernel_basis, solve and Cohomology give what sympy's
    exact domain matrices give, in the caller's keys."""
    p, row_keys, col_keys, m, b, mix, vector = system
    field = SPARSE_FIELDS[p]
    dom = _domain(p)
    m = [[field.coerce(x) for x in row] for row in m]
    b = [field.coerce(x) for x in b]
    vector = [field.coerce(x) for x in vector]
    rows = [{k: x for k, x in zip(col_keys, row) if x} for row in m]
    columns = [
        {r: row[c] for r, row in zip(row_keys, m) if row[c]} for c in range(len(col_keys))
    ]
    theirs = _dm([[_to_domain(p, x) for x in row] for row in m], p, (len(m), len(col_keys)))
    their_rank = theirs.rank()

    reduced, pivots = rref(field, rows)
    their_rref, their_pivots = theirs.rref()
    assert pivots == [col_keys[c] for c in their_pivots]
    assert [_over(field, p, col_keys, row) for row in reduced] == (
        their_rref.to_list()[: len(pivots)]
    )
    assert rank(field, rows) == rank(field, columns) == their_rank

    kernel = kernel_basis(field, rows, col_keys)
    assert all(k in col_keys for v in kernel for k in v)
    # One vector per free column of sympy's rref: 1 there, minus the
    # column's reduced entries at the pivots.
    expected = []
    for fc in range(len(col_keys)):
        if fc not in their_pivots:
            v = [dom(int(c == fc)) for c in range(len(col_keys))]
            for row, pc in zip(their_rref.to_list(), their_pivots):
                v[pc] = -row[fc]
            expected.append(v)
    assert [_over(field, p, col_keys, v) for v in kernel] == expected

    x = solve(field, columns, {r: c for r, c in zip(row_keys, b) if c})
    rhs = [[_to_domain(p, c)] for c in b]
    augmented = _dm([row + c for row, c in zip(theirs.to_list(), rhs)], p,
                    (len(m), len(col_keys) + 1))
    if augmented.rank() > their_rank:
        assert x is None
    else:
        assert set(x) <= set(range(len(col_keys))) and all(x.values())
        xs = [[_to_domain(p, x.get(t, field.zero))] for t in range(len(col_keys))]
        assert theirs.matmul(_dm(xs, p, (len(col_keys), 1))).to_list() == rhs

    # A complex d^{n-1} -> here -> d^n with d^n = m: the boundaries are
    # integer mixes of sympy's null space of m.
    null = theirs.nullspace().to_list()
    into = []
    for weights in mix:
        image = [sum((dom(w) * v[c] for w, v in zip(weights, null)), dom(0))
                 for c in range(len(col_keys))]
        into.append({k: _from_domain(field, p, c) for k, c in zip(col_keys, image) if c})
    h = Cohomology(field, col_keys, into, columns)
    into_dense = [_over(field, p, col_keys, v) for v in into]
    into_rank = _dm(into_dense, p, (len(into), len(col_keys))).rank() if into else 0
    assert h.dimension == len(col_keys) - their_rank - into_rank
    assert len(h.reps) == h.dimension
    for i, rep in enumerate(h.reps):
        assert h.coordinates(rep) == {i: field.one}
    for image in into:
        assert h.coordinates(image) == {}
    coords = h.coordinates({k: c for k, c in zip(col_keys, vector) if c})
    column_vector = _dm([[_to_domain(p, c)] for c in vector], p, (len(col_keys), 1))
    if any(c for (c,) in theirs.matmul(column_vector).to_list()):
        assert coords is None
    else:
        # The vector minus its combination of representatives is a boundary.
        rest = [_to_domain(p, c) for c in vector]
        for j, c in coords.items():
            rep = _over(field, p, col_keys, h.reps[j])
            rest = [r - _to_domain(p, c) * e for r, e in zip(rest, rep)]
        stacked = into_dense + [rest]
        assert _dm(stacked, p, (len(stacked), len(col_keys))).rank() == into_rank
