"""Independent computational routes used to cross-check the library.

Everything here recomputes expectations from first principles with sympy's
exact rational linear algebra and raw path bookkeeping.  The library never
imports sympy, and nothing below calls the library's solvers: complexes and
algebras are consumed as plain data (basis paths, summand tuples, sparse
coefficient dictionaries), so a bug in the library's elimination or Hom
machinery cannot leak into the expected values.

All oracles assume complete complexes.  The Hom oracles read residues of
F_p as integers and take their ranks over GF(p), so they work in any
characteristic; the rest assume characteristic zero, except the radical oracle, which
enumerates a whole algebra over F_p.  Products of basis
paths are recomputed by concatenation against an explicit list of
forbidden subwords and of binomial relations (a word equal to a multiple
of another word), which covers every algebra in the test suite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace

import sympy
from sympy.polys.matrices import DomainMatrix

from siltkit.errors import ChainConditionViolated
from siltkit.fields import FpElement


def sym(value) -> sympy.Rational:
    """Exact conversion of a Fraction (or int) into a sympy Rational."""
    if isinstance(value, Fraction):
        return sympy.Rational(value.numerator, value.denominator)
    return sympy.Rational(value)


def sym_matrix(rows) -> sympy.Matrix:
    return sympy.Matrix([[sym(c) for c in row] for row in rows])


def sym_rank(rows, characteristic: int = 0) -> int:
    """Rank over QQ, or over GF(p) for a prime ``characteristic``."""
    if not rows or not rows[0]:
        return 0
    if characteristic:
        field = sympy.GF(characteristic)
        entries = [[field(int(c)) for c in row] for row in rows]
        return DomainMatrix(entries, (len(rows), len(rows[0])), field).rank()
    return sym_matrix(rows).rank()


def sym_det(rows):
    return sym_matrix(rows).det()


def sym_nullity(rows, ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - sym_rank(rows)


# ---------------------------------------------------------------------------
# independent path arithmetic (monomial algebras)
# ---------------------------------------------------------------------------


def contains_forbidden(word: tuple[str, ...], forbidden) -> bool:
    for bad in forbidden:
        n = len(bad)
        if any(word[i : i + n] == tuple(bad) for i in range(len(word) - n + 1)):
            return True
    return False


def path_product(
    algebra, i: int, j: int, forbidden=(), binomials=None
) -> tuple[int, Fraction] | None:
    """(index, coefficient) with basis[i] * basis[j] = coefficient *
    basis[index], or None when the product is zero.

    Recomputed by concatenating arrow words and killing anything that is
    too long or contains a forbidden subword.  A whole word that is no
    basis path is rewritten by ``binomials``, a dict from a word w to
    (c, w') for a relation w = c w'; never consults the library's
    multiplication table.
    """
    p, q = algebra.basis[i], algebra.basis[j]
    if p.source != q.target:
        return None
    word = p.arrows + q.arrows
    if len(word) >= algebra.nilpotency_bound and len(word) > 0:
        return None
    if contains_forbidden(word, forbidden):
        return None

    def basis_index(w):
        for k, r in enumerate(algebra.basis):
            if r.arrows == w and r.source == q.source and r.target == p.target:
                return k
        return None

    k = basis_index(word)
    if k is not None:
        return k, Fraction(1)
    if binomials and word in binomials:
        c, other = binomials[word]
        k = basis_index(other)
        if k is not None:
            return k, Fraction(c)
    return None


def relation_words(algebra) -> tuple[tuple, dict]:
    """(forbidden, binomials) for :func:`path_product`, read off the
    relations of a rational algebra as parsed from its file: the word of
    each one-term relation is forbidden, and a two-term relation
    c w + c' w' = 0 rewrites w as -c'/c w' and w' as -c/c' w."""
    forbidden, binomials = [], {}
    for relation in algebra.relations:
        if len(relation) == 1:
            forbidden.append(relation[0][1].arrows)
            continue
        (c, w), (c2, w2) = relation
        binomials[w.arrows] = (-Fraction(c2) / Fraction(c), w2.arrows)
        binomials[w2.arrows] = (-Fraction(c) / Fraction(c2), w.arrows)
    return tuple(forbidden), binomials


def element_product(algebra, x: dict, y: dict, forbidden=(), binomials=None) -> dict:
    """Product of two sparse elements (basis-index -> Fraction) using
    :func:`path_product` only."""
    out: dict[int, Fraction] = {}
    for i, c in x.items():
        for j, d in y.items():
            hit = path_product(algebra, i, j, forbidden, binomials)
            if hit is not None:
                k, scale = hit
                out[k] = out.get(k, Fraction(0)) + c * d * scale
    return {k: v for k, v in out.items() if v}


def hom_path_indices(algebra, source_vertex: str, target_vertex: str) -> list[int]:
    """Basis indices spanning the maps e_{source} A -> e_{target} A,
    i.e. the paths from ``source_vertex`` to ``target_vertex``."""
    return [
        i
        for i, p in enumerate(algebra.basis)
        if p.source == source_vertex and p.target == target_vertex
    ]


# ---------------------------------------------------------------------------
# Hom-complex cohomology from raw complex data
# ---------------------------------------------------------------------------


def _entry_coeffs(entry) -> dict:
    """The entry's coefficients, residues of F_p read as integers."""
    return {
        i: c.value if isinstance(c, FpElement) else c for i, c in entry.coeffs.items()
    }


def hom_cochain_coordinates(algebra, x, y, n: int):
    """Coordinates of the degree-n Hom space: one per (degree k, target
    position, source position, connecting path)."""
    coords = []
    for k, x_summands in x.summands.items():
        y_summands = y.summands.get(k + n, ())
        for tpos, w in enumerate(y_summands):
            for spos, v in enumerate(x_summands):
                for b in hom_path_indices(algebra, v, w):
                    coords.append((k, tpos, spos, b))
    return coords


def hom_differential_matrix(algebra, x, y, n: int, forbidden=(), binomials=None):
    """The scalar matrix of d : Hom^n -> Hom^{n+1} over the coordinates of
    :func:`hom_cochain_coordinates`, built entirely from raw summand and
    differential data."""
    rows_coords = hom_cochain_coordinates(algebra, x, y, n + 1)
    cols_coords = hom_cochain_coordinates(algebra, x, y, n)
    row_of = {c: i for i, c in enumerate(rows_coords)}
    sign = Fraction(-1) if n % 2 else Fraction(1)
    matrix = [[Fraction(0)] * len(cols_coords) for _ in rows_coords]
    for col, (k, tpos, spos, b) in enumerate(cols_coords):
        f_elt = {b: Fraction(1)}
        # post-compose with the differential of y at degree k+n
        dy = y.diffs.get(k + n)
        if dy is not None:
            for r in range(len(y.summands.get(k + n + 1, ()))):
                prod = element_product(
                    algebra, _entry_coeffs(dy[r][tpos]), f_elt, forbidden, binomials
                )
                for idx, c in prod.items():
                    matrix[row_of[(k, r, spos, idx)]][col] += c
        # pre-compose with the differential of x at degree k-1, with the
        # Koszul sign for a degree-n map
        dx = x.diffs.get(k - 1)
        if dx is not None:
            for s in range(len(x.summands.get(k - 1, ()))):
                prod = element_product(
                    algebra, f_elt, _entry_coeffs(dx[spos][s]), forbidden, binomials
                )
                for idx, c in prod.items():
                    matrix[row_of[(k - 1, tpos, s, idx)]][col] -= sign * c
    return matrix, len(rows_coords), len(cols_coords)


def hom_cohomology_dimension(algebra, x, y, n: int, forbidden=(), binomials=None) -> int:
    """dim H^n of the Hom complex, via two sympy ranks."""
    p = algebra.field.characteristic
    d_n, rows_n, cols_n = hom_differential_matrix(algebra, x, y, n, forbidden, binomials)
    d_prev, _, _ = hom_differential_matrix(algebra, x, y, n - 1, forbidden, binomials)
    rank_n = sym_rank(d_n, p) if rows_n and cols_n else 0
    rank_prev = sym_rank(d_prev, p) if d_prev and d_prev[0] else 0
    return cols_n - rank_n - rank_prev


def hom_cohomology_dims(algebra, x, y, forbidden=(), binomials=None) -> dict[int, int]:
    """All nonzero cohomology dimensions of the Hom complex."""
    if not x.summands or not y.summands:
        return {}
    lo = min(y.summands) - max(x.summands)
    hi = max(y.summands) - min(x.summands)
    out = {}
    for n in range(lo, hi + 1):
        d = hom_cohomology_dimension(algebra, x, y, n, forbidden, binomials)
        if d:
            out[n] = d
    return out


def euler_pairing(algebra, x, y, forbidden=()) -> int:
    """Alternating sum of Hom-complex cohomology dimensions."""
    total = 0
    for n, d in hom_cohomology_dims(algebra, x, y, forbidden).items():
        total += d if n % 2 == 0 else -d
    return total


# ---------------------------------------------------------------------------
# dense dg algebra and dg module axioms
# ---------------------------------------------------------------------------


def _dg_multiply(A, x: dict, y: dict) -> dict:
    out: dict = {}
    for i, c in x.items():
        for j, d in y.items():
            for k, s in A.products.get((i, j), {}).items():
                out[k] = out.get(k, 0) + c * d * s
    return {k: v for k, v in out.items() if v}


def _dg_differentiate(A, x: dict) -> dict:
    out: dict = {}
    for i, c in x.items():
        for k, s in A.differential.get(i, {}).items():
            out[k] = out.get(k, 0) + c * s
    return {k: v for k, v in out.items() if v}


def _dg_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + (c if sign == 1 else -c)
    return {k: v for k, v in out.items() if v}


def dense_dg_verify(A) -> str | None:
    """The first dg algebra axiom that A breaks, or None if it has none.

    Reads only A's structure data (``degrees``, ``products``,
    ``differential``, ``unit``, ``idempotents``, ``field.one``) and checks
    in the order of ``DGAlgebra.verify``, but densely: Leibniz on every one
    of the dim^2 basis pairs and associativity on every one of the dim^3
    basis triples, zero products included.  The answer is one of
    ``"product degree"``, ``"differential degree"``, ``"d squared"``,
    ``"Leibniz"``, ``"associativity"``, ``"unit"``, ``"unit cycle"``,
    ``"idempotent degree"``, ``"idempotent"``, ``"idempotent sum"``,
    ``"orthogonality"`` and ``"block"``.
    """
    one = A.field.one
    dim = len(A.degrees)
    basis = [{i: one} for i in range(dim)]
    for (i, j), val in A.products.items():
        if any(A.degrees[k] != A.degrees[i] + A.degrees[j] for k in val):
            return "product degree"
    for i, val in A.differential.items():
        if any(A.degrees[k] != A.degrees[i] + 1 for k in val):
            return "differential degree"
    for i in range(dim):
        if _dg_differentiate(A, A.differential.get(i, {})):
            return "d squared"
    for i in range(dim):
        for j in range(dim):
            left = _dg_differentiate(A, A.products.get((i, j), {}))
            right = _dg_add(
                _dg_multiply(A, A.differential.get(i, {}), basis[j]),
                _dg_multiply(A, basis[i], A.differential.get(j, {})),
                -1 if A.degrees[i] % 2 else 1,
            )
            if left != right:
                return "Leibniz"
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = _dg_multiply(A, A.products.get((i, j), {}), basis[k])
                right = _dg_multiply(A, basis[i], A.products.get((j, k), {}))
                if left != right:
                    return "associativity"
    for i in range(dim):
        if _dg_multiply(A, A.unit, basis[i]) != basis[i]:
            return "unit"
        if _dg_multiply(A, basis[i], A.unit) != basis[i]:
            return "unit"
    if _dg_differentiate(A, A.unit):
        return "unit cycle"
    if not A.idempotents:
        return None
    total: dict = {}
    for e in A.idempotents.values():
        if any(A.degrees[i] != 0 for i in e):
            return "idempotent degree"
        if _dg_multiply(A, e, e) != e:
            return "idempotent"
        total = _dg_add(total, e)
    if total != A.unit:
        return "idempotent sum"
    for a, ea in A.idempotents.items():
        for b, eb in A.idempotents.items():
            if a != b and _dg_multiply(A, ea, eb):
                return "orthogonality"
        de = _dg_differentiate(A, ea)
        if de != _dg_multiply(A, ea, _dg_multiply(A, de, ea)):
            return "block"
    return None


def dg_module(algebra, labels, degrees, differential, action) -> SimpleNamespace:
    """A right dg module over ``algebra`` as plain structure data, the
    shape :func:`dense_dg_module_verify` reads.

    ``action`` maps an algebra basis index a to a dict from module basis
    index i to the sparse coordinates of m_i * b_a; it is stored keyed
    ``(i, a)``.  Zero coefficients and empty entries are dropped.
    """
    return SimpleNamespace(
        algebra=algebra,
        labels=tuple(labels),
        degrees=tuple(degrees),
        differential={
            i: {j: c for j, c in val.items() if c}
            for i, val in differential.items()
            if any(val.values())
        },
        action={
            (i, a): {j: c for j, c in row.items() if c}
            for a, rows in action.items()
            for i, row in rows.items()
            if any(row.values())
        },
    )


def character_module(algebra, chi) -> SimpleNamespace:
    """The one-dimensional degree-0 module of a character ``chi`` (a list
    over the basis of ``algebra``): m * b_a = chi[a] m, zero differential."""
    action = {a: {0: {0: c}} for a, c in enumerate(chi) if c}
    return dg_module(algebra, ("m",), (0,), {}, action)


def _module_act(M, x: dict, y: dict) -> dict:
    """x * y for module coordinates x and algebra coordinates y, read from
    ``M.action`` keyed ``(module index, algebra index)``."""
    out: dict = {}
    for i, c in x.items():
        for a, d in y.items():
            for k, s in M.action.get((i, a), {}).items():
                out[k] = out.get(k, 0) + c * d * s
    return {k: v for k, v in out.items() if v}


def dense_dg_module_verify(M) -> None:
    """Raise ChainConditionViolated at the first dg module axiom M breaks.

    Reads only M's structure data (``degrees``, ``differential``,
    ``action``, ``labels``) and its algebra's (``degrees``, ``products``,
    ``differential``, ``unit``, ``labels``), and checks densely: the
    degree of the action and of the differential, d^2 = 0, the unit, then
    associativity of the action on every (module, algebra, algebra) basis
    triple and the Leibniz rule on every (module, algebra) basis pair.
    """
    E = M.algebra
    one = E.field.one
    dim, edim = len(M.degrees), len(E.degrees)
    for (i, a), row in M.action.items():
        if any(M.degrees[j] != M.degrees[i] + E.degrees[a] for j in row):
            raise ChainConditionViolated(
                f"action of {E.labels[a]} does not shift degree by {E.degrees[a]}"
            )
    for i, val in M.differential.items():
        if any(M.degrees[j] != M.degrees[i] + 1 for j in val):
            raise ChainConditionViolated("module differential is not of degree +1")
        if _dg_differentiate(M, val):
            raise ChainConditionViolated("module differential does not square to zero")
    for i in range(dim):
        if _module_act(M, {i: one}, E.unit) != {i: one}:
            raise ChainConditionViolated(f"unit does not fix {M.labels[i]}")
    for a in range(edim):
        for b in range(edim):
            for i in range(dim):
                left = _module_act(M, _module_act(M, {i: one}, {a: one}), {b: one})
                right = _module_act(M, {i: one}, E.products.get((a, b), {}))
                if left != right:
                    raise ChainConditionViolated(
                        f"associativity of the action fails on "
                        f"({M.labels[i]}, {E.labels[a]}, {E.labels[b]})"
                    )
    for a in range(edim):
        for i in range(dim):
            # d(m a) = d(m) a + (-1)^{|m|} m d(a)
            left = _dg_differentiate(M, _module_act(M, {i: one}, {a: one}))
            right = _dg_add(
                _module_act(M, M.differential.get(i, {}), {a: one}),
                _module_act(M, {i: one}, E.differential.get(a, {})),
                -1 if M.degrees[i] % 2 else 1,
            )
            if left != right:
                raise ChainConditionViolated(
                    f"Leibniz fails on {M.labels[i]} * {E.labels[a]}"
                )


# ---------------------------------------------------------------------------
# the radical of a finite algebra, by enumeration
# ---------------------------------------------------------------------------


def brute_force_radical(table, p: int) -> set[tuple[int, ...]]:
    """Every x with xy nilpotent for all y, as residue tuples, in the
    unital algebra over F_p with multiplication table ``table`` (residues:
    ``table[i][j][k]`` is the e_k coordinate of e_i e_j).

    All p^dim elements are enumerated; z is nilpotent when z^(2^k) = 0 for
    2^k >= dim.  Nothing here knows the radical is a subspace.
    """
    dim = len(table)

    def multiply(x, y):
        out = [0] * dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, t in enumerate(table[i][j]):
                            out[k] += xi * yj * t
        return tuple(c % p for c in out)

    elements = list(itertools.product(range(p), repeat=dim))
    zero = (0,) * dim
    nilpotent = set()
    for z in elements:
        w, reach = z, 1
        while reach < dim and w != zero:
            w, reach = multiply(w, w), 2 * reach
        if w == zero:
            nilpotent.add(z)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    radical = set()
    for x in elements:
        columns = [multiply(x, e) for e in units]
        if all(
            tuple(sum(y[j] * columns[j][k] for j in range(dim)) % p for k in range(dim))
            in nilpotent
            for y in elements
        ):
            radical.add(x)
    return radical


# ---------------------------------------------------------------------------
# characters of simple dg modules, by eigenvalues
# ---------------------------------------------------------------------------


def corner_eigenvalue(A, idempotent: dict, x: dict) -> sympy.Rational:
    """The unique eigenvalue of left multiplication by e x e on the corner
    algebra e A^0 e, over QQ, for the idempotent e and a degree-0 element
    x (sparse coordinates).

    The corner is spanned by e b e over the degree-0 basis elements b; its
    basis and the coordinates in it come from sympy's elimination, and the
    eigenvalues from sympy's characteristic polynomial.  Raises
    AssertionError when the eigenvalue is not unique.
    """
    degree0 = [i for i, n in enumerate(A.degrees) if n == 0]

    def corner(y: dict) -> dict:
        return _dg_multiply(A, idempotent, _dg_multiply(A, y, idempotent))

    def column(y: dict) -> sympy.Matrix:
        return sympy.Matrix([sym(y.get(i, 0)) for i in degree0])

    spanning = sympy.Matrix.hstack(*(column(corner({b: 1})) for b in degree0))
    _, pivots = spanning.rref()
    basis = [corner({degree0[p]: 1}) for p in pivots]
    frame = sympy.Matrix.hstack(*(column(b) for b in basis))
    exe = corner(x)
    images = [frame.gauss_jordan_solve(column(_dg_multiply(A, exe, b)))[0] for b in basis]
    eigenvalues = sympy.Matrix.hstack(*images).eigenvals()
    assert len(eigenvalues) == 1, f"left multiplication has eigenvalues {eigenvalues}"
    (value,) = eigenvalues
    return value
