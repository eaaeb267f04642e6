"""Dense exact linear algebra over an arbitrary coefficient field.

Matrices are lists of row lists; vectors are plain lists.  Everything is
deterministic: pivots are always the first usable position, free variables
are enumerated in ascending column order.  Exactness (no epsilon anywhere)
is what makes rank arguments downstream sound.

``Cohomology`` is the one place cohomology is computed: cocycles,
boundaries, class representatives and class coordinates of a cochain
complex at one degree.  Hom complexes, dg algebras and dg module cones
all hand it their differentials.

``sparse_product`` and ``sparse_combination`` are the one place sparse
structure constants are applied: path algebras, dg algebras and dg modules
multiply through the first; dg differentials and algebra maps act through
the second (as ``sparse_apply``), and ``DGAlgebra.verify`` multiplies by a
basis element through it.

``radical`` is the one place the Jacobson radical of a finite algebra is
computed, from the same sparse structure constants: H^0 End of a complex
in the homotopy layer and the corner algebra of a simple dg module both
read their top (the algebra modulo its radical) through ``top``.
"""

from __future__ import annotations

from functools import cached_property

from .fields import Field

Vector = list
Matrix = list
#: Sparse coordinates over a basis: basis index -> nonzero coefficient.
Coords = dict[int, object]


def zero_vector(field: Field, n: int) -> Vector:
    return [field.zero] * n


def zero_matrix(field: Field, rows: int, cols: int) -> Matrix:
    return [[field.zero] * cols for _ in range(rows)]


def identity_matrix(field: Field, n: int) -> Matrix:
    m = zero_matrix(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


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


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def rref(field: Field, rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = field.div(field.one, work[r][c])
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(field: Field, a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    _, pivots = rref(field, a)
    return len(pivots)


def kernel_basis(field: Field, a: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel {x : a @ x = 0}, free columns in ascending order.

    Pass ``ncols`` explicitly when the matrix may have zero rows: an empty
    list of rows carries no width information.
    """
    if ncols is None:
        ncols = len(a[0]) if a else 0
    if ncols == 0:
        return []
    if not a:
        return [row[:] for row in identity_matrix(field, ncols)]
    reduced, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = zero_vector(field, ncols)
        v[fc] = field.one
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def solve(field: Field, a: Matrix, b: Vector) -> Vector | None:
    """One solution of a @ x = b (free variables set to zero), or None."""
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    if not aug:
        return None if any(b) else []
    reduced, pivots = rref(field, aug)
    for prow, pc in zip(reduced, pivots):
        if pc == ncols:
            return None  # a pivot in the constants column: inconsistent
    x = zero_vector(field, ncols)
    for prow, pc in zip(reduced, pivots):
        x[pc] = prow[ncols]
    return x


class GaussianSpan:
    """An incrementally built row space kept in reduced echelon form.

    ``add`` returns whether the vector enlarged the span; ``reduce`` returns
    the residual of a vector after elimination by the current rows, which is
    the canonical normal form modulo the span.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: dict[int, Vector] = {}  # pivot column -> normalized row

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Vector) -> Vector:
        v = list(vector)
        for pivot in sorted(self.rows):
            if v[pivot]:
                factor = v[pivot]
                row = self.rows[pivot]
                v = [x - factor * y for x, y in zip(v, row)]
        return v

    def add(self, vector: Vector) -> bool:
        v = self.reduce(vector)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = self.field.div(self.field.one, v[pivot])
        v = [x * inv for x in v]
        # Back-substitute into existing rows to stay fully reduced.
        for p, row in self.rows.items():
            if row[pivot]:
                factor = row[pivot]
                self.rows[p] = [x - factor * y for x, y in zip(row, v)]
        self.rows[pivot] = v
        return True

    def copy(self) -> "GaussianSpan":
        out = GaussianSpan(self.field, self.width)
        out.rows = dict(self.rows)  # add() replaces rows, never edits them
        return out

    def contains(self, vector: Vector) -> bool:
        return not any(self.reduce(vector))

    def pivots(self) -> list[int]:
        return sorted(self.rows)


class Cohomology:
    """H^n of a cochain complex, from the dense matrices of d^{n-1}
    (``d_in``, ``width`` rows) and d^n (``d_out``, ``width`` columns).

    Every part is computed on first use.  ``dimension`` comes from ranks
    alone unless the representatives are already known, so callers that
    need only dimensions never pick representatives.
    """

    def __init__(self, field: Field, width: int, d_in: Matrix, d_out: Matrix):
        self.field = field
        self.width = width
        self.d_in = d_in
        self.d_out = d_out

    @cached_property
    def cocycles(self) -> list[Vector]:
        return kernel_basis(self.field, self.d_out, ncols=self.width)

    @cached_property
    def boundaries(self) -> GaussianSpan:
        """The span of the columns of d^{n-1}; never extended afterwards."""
        span = GaussianSpan(self.field, self.width)
        for column in transpose(self.d_in):
            span.add(column)
        return span

    @cached_property
    def reps(self) -> list[Vector]:
        """Cocycles independent modulo the boundaries, chosen greedily in
        kernel-basis order."""
        span = self.boundaries.copy()
        return [z for z in self.cocycles if span.add(z)]

    @property
    def dimension(self) -> int:
        if "reps" in self.__dict__:
            return len(self.reps)
        return self.width - rank(self.field, self.d_out) - rank(self.field, self.d_in)

    @cached_property
    def _elimination(self) -> tuple[Matrix, list[int]]:
        """Representatives reduced modulo the boundaries, each followed by
        its own unit coordinate vector, in reduced row echelon form: one
        elimination shared by every ``coordinates`` call."""
        units = identity_matrix(self.field, len(self.reps))
        rows = [self.boundaries.reduce(z) + e for z, e in zip(self.reps, units)]
        return rref(self.field, rows)

    def coordinates(self, vector: Vector) -> Vector | None:
        """Coordinates of the class of a cocycle in the representative
        basis, or None if ``vector`` is not a cocycle modulo boundaries.

        The reduced representatives are independent, so every row of the
        elimination has its pivot among the first ``width`` columns, and
        clearing those pivots leaves the coordinates in the last ones.
        """
        residual = self.boundaries.reduce(vector)
        coords = zero_vector(self.field, len(self.reps))
        for row, pivot in zip(*self._elimination):
            factor = residual[pivot]
            if factor:
                residual = [x - factor * y for x, y in zip(residual, row)]
                coords = [x + factor * y for x, y in zip(coords, row[self.width:])]
        return None if any(residual) else coords


def radical(
    field: Field, products: dict[tuple[int, int], Coords], dim: int
) -> list[Vector]:
    """A basis, as coordinate vectors, of the Jacobson radical of the
    unital algebra with basis e_0 .. e_{dim-1} and structure constants
    ``products`` (``products[(i, j)]`` holds the sparse coordinates of
    e_i e_j; missing pairs are 0).

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

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v) if a and b), zero)

    traces = [
        sum((products.get((k, j), {}).get(j, zero) for j in range(dim)), zero)
        for k in range(dim)
    ]
    gram = [
        [sum((c * traces[k] for k, c in products.get((i, j), {}).items()), zero)
         for j in range(dim)]
        for i in range(dim)
    ]
    ideal = kernel_basis(field, gram, dim)
    p = power = field.characteristic
    if not 0 < p <= dim:
        return ideal
    while power <= dim and ideal:
        modulus = power * p
        rows = [[] for _ in range(dim)]
        for u in ideal:
            a = {k: c for k, c in enumerate(u) if c}
            for b, row in enumerate(rows):
                ab = sparse_product(field, products, a, {b: one})
                columns = [sparse_product(field, products, ab, {c: one}) for c in range(dim)]
                lift = [[col[r].value if r in col else 0 for col in columns] for r in range(dim)]
                row.append(field.coerce(_power_trace(lift, power, modulus) // power))
        ideal = [
            [dot(c, column) for column in zip(*ideal)]
            for c in kernel_basis(field, rows, len(ideal))
        ]
        power = modulus
    return ideal


def top(field: Field, products: dict[tuple[int, int], Coords], dim: int) -> list[Vector]:
    """A basis of the functionals whose common kernel is the radical of
    the algebra with these structure constants, one per dimension of the
    algebra modulo its radical."""
    return kernel_basis(field, radical(field, products, dim), dim)


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
