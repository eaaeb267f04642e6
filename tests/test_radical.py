"""The radical of a finite-dimensional algebra from its structure
constants, against the enumeration oracle, and the locality test built on
it."""

import itertools

import pytest

from oracles import brute_force_radical
from siltkit.errors import Inconclusive
from siltkit.fields import QQ, field_of_characteristic
from siltkit.homotopy.compare import _is_local
from siltkit.linalg import radical


def table_of(products, dim: int, p: int):
    """The field F_p (Q for p = 0), the sparse structure constants and the
    dimension of the algebra with basis 0..dim-1, where ``products(i, j)``
    gives e_i e_j as {index: coefficient}."""
    field = field_of_characteristic(p)
    table = {}
    for i in range(dim):
        for j in range(dim):
            coords = {}
            for k, c in products(i, j).items():
                coords[k] = coords.get(k, field.zero) + c
            table[(i, j)] = {k: field.coerce(c) for k, c in coords.items() if c}
    return field, table, dim


def group_algebra(elements, compose, p: int):
    index = {g: n for n, g in enumerate(elements)}
    return table_of(
        lambda i, j: {index[compose(elements[i], elements[j])]: 1}, len(elements), p
    )


def cyclic(n: int, p: int):
    return group_algebra(list(range(n)), lambda a, b: (a + b) % n, p)


def symmetric3(p: int):
    perms = list(itertools.permutations(range(3)))
    return group_algebra(perms, lambda a, b: tuple(a[b[k]] for k in range(3)), p)


def matrix_units(positions, p: int):
    """The span of the matrix units E_rc for (r, c) in ``positions``."""
    index = {rc: n for n, rc in enumerate(positions)}

    def products(i, j):
        (r, c), (s, t) = positions[i], positions[j]
        return {index[(r, t)]: 1} if c == s else {}

    return table_of(products, len(positions), p)


ALGEBRAS = {
    "F_2[C_2]": (lambda: cyclic(2, 2), 1),
    "F_2[C_4]": (lambda: cyclic(4, 2), 3),
    "F_2[S_3]": (lambda: symmetric3(2), 1),
    "M_2(F_2)": (lambda: matrix_units([(0, 0), (0, 1), (1, 0), (1, 1)], 2), 0),
    "F_3[C_3]": (lambda: cyclic(3, 3), 2),
    "F_3[S_3]": (lambda: symmetric3(3), 4),
    "T_3(F_2)": (
        lambda: matrix_units([(r, c) for r in range(3) for c in range(r, 3)], 2),
        3,
    ),
}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_the_radical_matches_the_enumeration_oracle(name):
    build, expected = ALGEBRAS[name]
    field, table, dim = build()
    residues = [
        [[table[(i, j)].get(k, field.zero).value for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    oracle = brute_force_radical(residues, field.p)
    basis = radical(field, table, range(dim))
    assert len(oracle) == field.p ** expected
    assert len(basis) == expected
    assert all(v and all(v.values()) for v in basis)
    assert all(tuple(v.get(k, field.zero).value for k in range(dim)) in oracle for v in basis)


def quotient(modulus, p: int):
    """k[x]/(modulus) on the basis 1, x, ..., for a monic ``modulus``
    given by its coefficients from the constant term up."""
    n = len(modulus) - 1

    def products(i, j):
        coords = [0] * (2 * n - 1)
        coords[i + j] = 1
        for top in range(2 * n - 2, n - 1, -1):
            c, coords[top] = coords[top], 0
            for k, m in enumerate(modulus[:-1]):
                coords[top - n + k] -= c * m
        return dict(enumerate(coords[:n]))

    return table_of(products, n, p)


def m2_mixed_basis(p: int):
    """M_2(F_p) on the basis 1, E12, E21, E11 + E12 + E21."""
    mats = [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 1), (1, 0))]

    def products(i, j):
        a, b = mats[i], mats[j]
        prod = tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(2)) % p for c in range(2))
            for r in range(2)
        )
        for coords in itertools.product(range(p), repeat=4):
            combo = tuple(
                tuple(sum(x * m[r][c] for x, m in zip(coords, mats)) % p for c in range(2))
                for r in range(2)
            )
            if combo == prod:
                return dict(enumerate(coords))

    return table_of(products, 4, p)


LOCAL = {
    "F_2[C_2]": (lambda: cyclic(2, 2), [0], True),
    "F_3[C_2]": (lambda: cyclic(2, 3), [0], False),
    "F_3[C_3]": (lambda: cyclic(3, 3), [0], True),
    "F_4": (lambda: quotient([1, 1, 1], 2), [0], True),
    "F_5[x]/(x^2+1)": (lambda: quotient([1, 0, 1], 5), [0], False),
    "F_2[S_3]": (lambda: symmetric3(2), [0], False),
    "T_3(F_2)": (
        lambda: matrix_units([(r, c) for r in range(3) for c in range(r, 3)], 2),
        [0, 3, 5],
        False,
    ),
    "M_2(F_2), mixed basis": (lambda: m2_mixed_basis(2), [0], False),
    "Q[x]/(x^2)": (lambda: quotient([0, 0, 1], 0), [0], True),
    "Q[C_2]": (lambda: cyclic(2, 0), [0], False),
}


@pytest.mark.parametrize("name", list(LOCAL))
def test_locality_of_small_algebras(name):
    """Over F_p the answer is exact; in M_2(F_2) on the mixed basis only
    the commutativity test sees the split, because a^2 - a on the basis
    elements leaves a one-dimensional kernel."""
    build, identity, expected = LOCAL[name]
    field, table, dim = build()
    assert _is_local(field, table, dim, {k: field.one for k in identity}) is expected


def test_a_division_algebra_over_the_rationals_stays_open():
    field, table, dim = quotient([1, 0, 1], 0)
    assert field == QQ
    with pytest.raises(Inconclusive, match="End modulo its radical has dimension 2"):
        _is_local(field, table, dim, {0: field.one})
