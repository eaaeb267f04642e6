"""Independent computational routes used to cross-check the library.

Everything here recomputes expectations from first principles with sympy's
exact rational linear algebra and raw path bookkeeping.  The library never
imports sympy, and nothing below calls the library's solvers: complexes and
algebras are consumed as plain data (basis paths, summand tuples, sparse
coefficient dictionaries), so a bug in the library's elimination or Hom
machinery cannot leak into the expected values.

All oracles assume characteristic zero and complete complexes; products of
basis paths are recomputed by concatenation against an explicit list of
forbidden subwords, which covers every monomial algebra in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from siltkit.errors import ChainConditionViolated


def sym(value) -> sympy.Rational:
    """Exact conversion of a Fraction (or int) into a sympy Rational."""
    if isinstance(value, Fraction):
        return sympy.Rational(value.numerator, value.denominator)
    return sympy.Rational(value)


def sym_matrix(rows) -> sympy.Matrix:
    return sympy.Matrix([[sym(c) for c in row] for row in rows])


def sym_rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
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


def path_product(algebra, i: int, j: int, forbidden=()) -> int | None:
    """Index of basis[i] * basis[j], or None when the product is zero.

    Recomputed by concatenating arrow words and killing anything that is
    too long or contains a forbidden subword; never consults the library's
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
    for k, r in enumerate(algebra.basis):
        if r.arrows == word and r.source == q.source and r.target == p.target:
            return k
    return None


def element_product(algebra, x: dict, y: dict, forbidden=()) -> dict:
    """Product of two sparse elements (basis-index -> Fraction) using
    :func:`path_product` only."""
    out: dict[int, Fraction] = {}
    for i, c in x.items():
        for j, d in y.items():
            k = path_product(algebra, i, j, forbidden)
            if k is not None:
                out[k] = out.get(k, Fraction(0)) + c * d
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
    return dict(entry.coeffs)


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


def hom_differential_matrix(algebra, x, y, n: int, forbidden=()):
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
                    algebra, _entry_coeffs(dy[r][tpos]), f_elt, forbidden
                )
                for idx, c in prod.items():
                    matrix[row_of[(k, r, spos, idx)]][col] += c
        # pre-compose with the differential of x at degree k-1, with the
        # Koszul sign for a degree-n map
        dx = x.diffs.get(k - 1)
        if dx is not None:
            for s in range(len(x.summands.get(k - 1, ()))):
                prod = element_product(
                    algebra, f_elt, _entry_coeffs(dx[spos][s]), forbidden
                )
                for idx, c in prod.items():
                    matrix[row_of[(k - 1, tpos, s, idx)]][col] -= sign * c
    return matrix, len(rows_coords), len(cols_coords)


def hom_cohomology_dimension(algebra, x, y, n: int, forbidden=()) -> int:
    """dim H^n of the Hom complex, via two sympy ranks."""
    d_n, rows_n, cols_n = hom_differential_matrix(algebra, x, y, n, forbidden)
    d_prev, _, _ = hom_differential_matrix(algebra, x, y, n - 1, forbidden)
    rank_n = sym_rank(d_n) if rows_n and cols_n else 0
    rank_prev = sym_rank(d_prev) if d_prev and d_prev[0] else 0
    return cols_n - rank_n - rank_prev


def hom_cohomology_dims(algebra, x, y, forbidden=()) -> dict[int, int]:
    """All nonzero cohomology dimensions of the Hom complex."""
    if not x.summands or not y.summands:
        return {}
    lo = min(y.summands) - max(x.summands)
    hi = max(y.summands) - min(x.summands)
    out = {}
    for n in range(lo, hi + 1):
        d = hom_cohomology_dimension(algebra, x, y, n, forbidden)
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
# module homomorphisms from the commuting squares
# ---------------------------------------------------------------------------


def module_hom_dimension(m, n) -> int:
    """dim Hom of right modules, solved with sympy symbols.

    One unknown matrix per vertex; one commuting square per arrow.  The
    arrow action carries the component at the arrow's target vertex to the
    component at its source vertex.
    """
    algebra = m.algebra
    unknowns = {}
    symbols = []
    for v in algebra.quiver.vertices:
        rows, cols = n.dims[v], m.dims[v]
        block = sympy.zeros(rows, cols)
        for i in range(rows):
            for j in range(cols):
                s = sympy.Symbol(f"f_{v}_{i}_{j}")
                block[i, j] = s
                symbols.append(s)
        unknowns[v] = block
    if not symbols:
        return 0
    equations = []
    for a in algebra.quiver.arrows:
        act_m = sym_matrix(m.action[a.name]) if m.dims[a.target] and m.dims[a.source] \
            else sympy.zeros(m.dims[a.source], m.dims[a.target])
        act_n = sym_matrix(n.action[a.name]) if n.dims[a.target] and n.dims[a.source] \
            else sympy.zeros(n.dims[a.source], n.dims[a.target])
        lhs = unknowns[a.source] * act_m
        rhs = act_n * unknowns[a.target]
        for entry in (lhs - rhs):
            equations.append(entry)
    if not equations:
        return len(symbols)
    system = sympy.Matrix(
        [[eq.coeff(s) for s in symbols] for eq in equations]
    )
    return len(symbols) - system.rank()


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
