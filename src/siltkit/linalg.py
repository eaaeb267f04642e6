"""Exact sparse linear algebra over an arbitrary coefficient field.

A vector is ``Coords``: a dict from basis key to nonzero coefficient, so
``==`` and truthiness are exact (``any`` on a ``Coords`` tests its keys,
and key 0 is falsy).  A matrix is a list of ``Coords``, read as rows or as
columns as each function says.  Every caller works in its own basis keys
(global indices of a dg algebra, Hom positions, cone indices, path
coordinates) and nobody re-indexes.  Columns run in ascending key order,
so a reduced row echelon form is unique, pivots are always the smallest
usable key and free variables are enumerated in the caller's key order.
Exactness (no epsilon anywhere) is what makes rank arguments downstream
sound.

``Cohomology(field, here, into, out)`` is the one place cohomology is
computed: cocycles, boundaries, class representatives and class
coordinates of a cochain complex at one degree, from the degree-n keys
``here``, the images ``into`` of the degree-(n-1) basis and the images
``out`` of ``here``.  Hom complexes, dg algebras and dg module cones all
hand it their differentials, and get everything back in their own keys.

``sparse_product`` and ``sparse_combination`` are the one place sparse
structure constants are applied: path algebras, dg algebras and dg modules
multiply through the first; dg differentials and algebra maps act through
the second (as ``sparse_apply``).  ``DGAlgebra.verify`` and
``DGAlgebra.blocks`` read a table by rows (``product_rows``), k -> e_m e_k
for fixed m, and sum through the second only the row entries with several
terms or a coefficient other than 1.

``radical`` is the one place the Jacobson radical of a finite algebra is
computed, from the same sparse structure constants: H^0 End of a complex
in the homotopy layer and the corner algebra of a simple dg module both
read their top (the algebra modulo its radical) through ``top``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .fields import Field

#: Sparse coordinates over a basis: basis key -> nonzero coefficient.
Coords = dict[int, object]


def sparse_product(
    field: Field, table: dict[tuple[int, int], Coords], x: Coords, y: Coords
) -> Coords:
    """The bilinear product sum x_i y_j * table[(i, j)] of sparse
    coordinates, for structure constants ``table`` (missing pairs are 0).

    Terms cancel as they are added, so the result holds no zero entry.
    """
    out: Coords = {}
    zero = field.zero
    for i, xi in x.items():
        for j, yj in y.items():
            prod = table.get((i, j))
            if not prod:
                continue
            c = xi * yj
            for k, ck in prod.items():
                acc = out.get(k, zero) + c * ck
                if acc:
                    out[k] = acc
                elif k in out:
                    del out[k]
    return out


def sparse_combination(field: Field, terms) -> Coords:
    """The sum of c * v over the pairs (c, v) of ``terms``, for sparse
    coordinates v (None counts as 0).

    Terms cancel as they are added, so the result holds no zero entry.
    """
    out: Coords = {}
    zero = field.zero
    for c, column in terms:
        if not column:
            continue
        for k, ck in column.items():
            acc = out.get(k, zero) + c * ck
            if acc:
                out[k] = acc
            elif k in out:
                del out[k]
    return out


def sparse_apply(field: Field, table: dict[int, Coords], x: Coords) -> Coords:
    """The linear image sum x_i * table[i] of sparse coordinates, for a map
    given by its sparse columns ``table`` (missing columns are 0)."""
    return sparse_combination(field, ((xi, table.get(i)) for i, xi in x.items()))


# -- a structure-constant table read by rows --------------------------------
#
# A row is the table at one left (or right) factor m: k -> e_m e_k.  Whole
# rows are compared and combined as dicts, so a check over the table costs
# the nonzero products it reads.  Entries are shared with the table, never
# copied or scaled when a coefficient is 1; callers only read them.


def product_rows(table: dict[tuple[int, int], Coords]):
    """``(rows, cols)`` with ``rows[m][k]`` and ``cols[k][m]`` both the
    product e_m e_k, over the nonzero products: a key of ``table`` that
    holds no term is not a product."""
    rows: dict[int, dict[int, Coords]] = {}
    cols: dict[int, dict[int, Coords]] = {}
    for (m, k), val in table.items():
        if val:
            rows.setdefault(m, {})[k] = val
            cols.setdefault(k, {})[m] = val
    return rows, cols


def split_rows(field: Field, rows: dict[int, dict[int, Coords]]):
    """Each row split in two: ``single[m][k] = t`` where e_m e_k is e_t
    itself, and ``rest[m][k] = e_m e_k`` for every other product."""
    one = field.one
    single: dict[int, dict[int, int]] = {}
    rest: dict[int, dict[int, Coords]] = {}
    for m, row in rows.items():
        singles, others = single.setdefault(m, {}), rest.setdefault(m, {})
        for k, v in row.items():
            if len(v) == 1:
                ((t, c),) = v.items()
                if c == one:
                    singles[k] = t
                    continue
            others[k] = v
    return single, rest


def apply_to_row(
    field: Field, table: dict[int, Coords], singles: dict[int, int], others
) -> dict[int, Coords]:
    """The row k -> ``sparse_apply(field, table, e_m e_k)``, for the row of
    m split by ``split_rows`` into ``singles`` and ``others``."""
    out = {k: table[t] for k, t in singles.items() if t in table}
    for k, v in others.items():
        v = sparse_apply(field, table, v)
        if v:
            out[k] = v
    return out


def sum_terms(field: Field, terms: dict[int, list]) -> dict[int, Coords]:
    """The sums of the terms (c, v) collected under each key, keeping the
    nonzero ones; a single term with coefficient 1 is v itself."""
    out: dict[int, Coords] = {}
    one = field.one
    for k, here in terms.items():
        if len(here) == 1 and here[0][0] == one:
            out[k] = here[0][1]
        else:
            v = sparse_combination(field, here)
            if v:
                out[k] = v
    return out


def row_combination(
    field: Field, rows: dict[int, dict[int, Coords]], x: Coords
) -> dict[int, Coords]:
    """The row k -> sum_m x_m rows[m][k]: x e_k for the ``rows`` of
    ``product_rows``, and e_k x for its ``cols``."""
    if len(x) == 1:
        ((m, c),) = x.items()
        if c == field.one:
            return rows.get(m, {})
    terms: dict[int, list] = {}
    for m, c in x.items():
        for k, v in rows.get(m, {}).items():
            terms.setdefault(k, []).append((c, v))
    return sum_terms(field, terms)


def _subtract(v: Coords, factor, row: Coords, zero) -> None:
    """v -= factor * row in place.  A field has no zero divisors, so an
    entry that cancels was already in v, and is dropped."""
    for k, c in row.items():
        acc = v.get(k, zero) - factor * c
        if acc:
            v[k] = acc
        else:
            del v[k]


def _as_rows(columns: Iterable[tuple[int, Coords]]) -> list[Coords]:
    """The rows of the matrix whose columns are the (key, vector) pairs
    given; row order does not change the reduced echelon form."""
    rows: dict[int, Coords] = {}
    for t, column in columns:
        for k, c in column.items():
            rows.setdefault(k, {})[t] = c
    return list(rows.values())


def rref(field: Field, rows: list[Coords]) -> tuple[list[Coords], list[int]]:
    """Reduced row echelon form of sparse rows, columns in ascending key
    order.  Returns (nonzero rows, pivot keys), both in pivot order."""
    span = GaussianSpan(field)
    for row in rows:
        if row:
            span.add(row)
    pivots = sorted(span.rows)
    return [span.rows[p] for p in pivots], pivots


def rank(field: Field, vectors: list[Coords]) -> int:
    """The rank of sparse vectors, read as rows or as columns alike."""
    if not any(vectors):
        return 0
    return len(rref(field, vectors)[1])


def kernel_basis(field: Field, rows: list[Coords], columns: Iterable[int]) -> list[Coords]:
    """A basis of the x over the keys ``columns`` with row . x = 0 for every
    row: one vector per free column, in the order of ``columns``, with 1
    there and minus that column's reduced entries at the pivots."""
    one = field.one
    if not any(rows):
        return [{c: one} for c in columns]
    reduced, pivots = rref(field, rows)
    basis = []
    for fc in columns:
        if fc not in pivots:
            v = {fc: one}
            for row, pc in zip(reduced, pivots):
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(v)
    return basis


def solve(field: Field, columns: Sequence[Coords], b: Coords) -> Coords | None:
    """One x with sum x_t * columns[t] = b (free variables set to zero),
    keyed by position in ``columns``, or None."""
    n = len(columns)
    reduced, pivots = rref(field, _as_rows([*enumerate(columns), (n, b)]))
    if pivots and pivots[-1] == n:
        return None  # a pivot in the constants column: inconsistent
    return {pc: row[n] for row, pc in zip(reduced, pivots) if n in row}


class GaussianSpan:
    """An incrementally built row space kept in reduced echelon form.

    ``add`` returns whether the vector enlarged the span; ``reduce`` returns
    the residual of a vector after elimination by the current rows, which is
    the canonical normal form modulo the span.
    """

    def __init__(self, field: Field):
        self.field = field
        #: pivot key -> row with 1 at its pivot and 0 at every other pivot
        self.rows: dict[int, Coords] = {}

    def reduce(self, vector: Coords) -> Coords:
        """Clearing a pivot leaves every other pivot entry alone, so one
        pass over the pivots of ``vector`` reduces it."""
        v = dict(vector)
        rows = self.rows
        if rows:
            zero = self.field.zero
            for p in [k for k in v if k in rows]:
                _subtract(v, v[p], rows[p], zero)
        return v

    def add(self, vector: Coords) -> bool:
        v = self.reduce(vector)
        if not v:
            return False
        pivot = min(v)
        one = self.field.one
        if v[pivot] != one:
            inv = self.field.div(one, v[pivot])
            v = {k: c * inv for k, c in v.items()}
        # Back-substitute into existing rows to stay fully reduced.
        rows, zero = self.rows, self.field.zero
        for p, row in rows.items():
            factor = row.get(pivot)
            if factor:
                row = dict(row)
                _subtract(row, factor, v, zero)
                rows[p] = row
        rows[pivot] = v
        return True

    def copy(self) -> "GaussianSpan":
        out = GaussianSpan(self.field)
        out.rows = dict(self.rows)  # add() replaces rows, never edits them
        return out

    def contains(self, vector: Coords) -> bool:
        return not self.reduce(vector)


class Cohomology:
    """H^n of a cochain complex, in the caller's keys: ``here`` holds the
    degree-n keys in ascending order, ``into`` the images of the
    degree-(n-1) basis and ``out`` the images of ``here``.

    Every part is computed on first use.  ``dimension`` comes from ranks
    alone unless the representatives are already known, so callers that
    need only dimensions never pick representatives.
    """

    def __init__(
        self, field: Field, here: Sequence[int], into: list[Coords], out: list[Coords]
    ):
        self.field = field
        self.here = here
        self.into = into
        self.out = out

    @cached_property
    def cocycles(self) -> list[Coords]:
        return kernel_basis(self.field, _as_rows(zip(self.here, self.out)), self.here)

    @cached_property
    def boundaries(self) -> GaussianSpan:
        """The span of the images of d^{n-1}; never extended afterwards."""
        span = GaussianSpan(self.field)
        for image in self.into:
            span.add(image)
        return span

    @cached_property
    def reps(self) -> list[Coords]:
        """Cocycles independent modulo the boundaries, chosen greedily in
        kernel-basis order."""
        span = self.boundaries.copy()
        return [z for z in self.cocycles if span.add(z)]

    @property
    def dimension(self) -> int:
        if "reps" in self.__dict__:
            return len(self.reps)
        return len(self.here) - rank(self.field, self.out) - rank(self.field, self.into)

    @cached_property
    def _elimination(self) -> tuple[int, list[Coords], list[int]]:
        """(offset, rows, pivots): the representatives reduced modulo the
        boundaries, the j-th followed by its unit vector at key
        offset + j past every key of ``here``, in reduced row echelon
        form: one elimination shared by every ``coordinates`` call."""
        offset = max(self.here, default=-1) + 1
        rows = []
        for j, z in enumerate(self.reps):
            row = self.boundaries.reduce(z)
            row[offset + j] = self.field.one
            rows.append(row)
        return (offset, *rref(self.field, rows))

    def coordinates(self, vector: Coords) -> Coords | None:
        """Coordinates of the class of a cocycle in the representative
        basis, keyed by representative position, or None if ``vector`` is
        not a cocycle modulo boundaries.

        The reduced representatives are independent, so every row of the
        elimination has its pivot in ``here``, and clearing those pivots
        leaves minus the coordinates past the offset.
        """
        residual = self.boundaries.reduce(vector)
        offset, rows, pivots = self._elimination
        zero = self.field.zero
        for row, pivot in zip(rows, pivots):
            factor = residual.get(pivot)
            if factor:
                _subtract(residual, factor, row, zero)
        if any(k < offset for k in residual):
            return None
        return {k - offset: -c for k, c in residual.items()}


def radical(
    field: Field, products: dict[tuple[int, int], Coords], basis: Sequence[int]
) -> list[Coords]:
    """A basis of the Jacobson radical of the unital algebra with basis
    keys ``basis`` (ascending) and structure constants ``products``
    (``products[(i, j)]`` holds the sparse coordinates of e_i e_j; missing
    pairs are 0).

    Step 0 is the kernel I_0 of the trace form tr(L_a L_b) = tr(L_ab) of
    the left regular representation L.  That is the radical in
    characteristic 0 and over F_p when p > dim.  Over a smaller prime
    field, for i = 1 .. ⌊log_p dim⌋, I_i = {a ∈ I_{i-1} : g_i(ab) = 0 for
    every basis element b}, where g_i(a) = (tr(ã^{p^i}) mod p^{i+1}) / p^i
    and ã is the integer lift of L_a, entries in 0 .. p-1.  Each g_i is
    linear on I_{i-1}, and the last I_i is the radical (Rónyai, 1990, in
    the form of Cohen–Ivanyos–Wales, 1997).
    """
    zero, one = field.zero, field.one
    traces = {
        k: sum((products.get((k, j), {}).get(j, zero) for j in basis), zero) for k in basis
    }
    gram = []
    for i in basis:
        row = {}
        for j in basis:
            x = sum((c * traces[k] for k, c in products.get((i, j), {}).items()), zero)
            if x:
                row[j] = x
        gram.append(row)
    ideal = kernel_basis(field, gram, basis)
    dim = len(basis)
    p = power = field.characteristic
    if not 0 < p <= dim:
        return ideal
    while power <= dim and ideal:
        modulus = power * p
        rows: list[Coords] = [{} for _ in basis]
        for u, a in enumerate(ideal):
            for b, row in zip(basis, rows):
                ab = sparse_product(field, products, a, {b: one})
                columns = [sparse_product(field, products, ab, {c: one}) for c in basis]
                lift = [[col[r].value if r in col else 0 for col in columns] for r in basis]
                g = field.coerce(_power_trace(lift, power, modulus) // power)
                if g:
                    row[u] = g
        ideal = [
            sparse_combination(field, ((c, ideal[u]) for u, c in combination.items()))
            for combination in kernel_basis(field, rows, range(len(ideal)))
        ]
        power = modulus
    return ideal


def top(
    field: Field, products: dict[tuple[int, int], Coords], basis: Sequence[int]
) -> list[Coords]:
    """A basis of the functionals whose common kernel is the radical of
    the algebra with these structure constants, one per dimension of the
    algebra modulo its radical."""
    return kernel_basis(field, radical(field, products, basis), basis)


def _power_trace(mat: list, exponent: int, modulus: int) -> int:
    """tr(mat^exponent) mod ``modulus`` for a square integer matrix."""

    def times(a, b):
        out = []
        for row in a:
            acc = [0] * len(b)
            for k, x in enumerate(row):
                for j, y in enumerate(b[k] if x else ()):
                    acc[j] += x * y
            out.append([c % modulus for c in acc])
        return out

    result = mat
    for bit in bin(exponent)[3:]:
        result = times(result, result)
        if bit == "1":
            result = times(result, mat)
    return sum(result[i][i] for i in range(len(mat))) % modulus
