"""Dense exact linear algebra over an arbitrary coefficient field.

Matrices are lists of row lists; vectors are plain lists.  Everything is
deterministic: pivots are always the first usable position, free variables
are enumerated in ascending column order.  Exactness (no epsilon anywhere)
is what makes rank arguments downstream sound.

``Cohomology`` is the one place cohomology is computed: cocycles,
boundaries, class representatives and class coordinates of a cochain
complex at one degree.  Hom complexes, dg algebras, dg module cones and
vertex blocks of complexes all hand it their differentials.
"""

from __future__ import annotations

from functools import cached_property

from .fields import Field

Vector = list
Matrix = list


def zero_vector(field: Field, n: int) -> Vector:
    return [field.zero] * n


def zero_matrix(field: Field, rows: int, cols: int) -> Matrix:
    return [[field.zero] * cols for _ in range(rows)]


def identity_matrix(field: Field, n: int) -> Matrix:
    m = zero_matrix(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = zero_matrix(field, len(a), cols)
    for i, row in enumerate(a):
        for k in range(inner):
            aik = row[k]
            if not aik:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                if brow[j]:
                    orow[j] = orow[j] + aik * brow[j]
    return out


def mat_vec(field: Field, a: Matrix, v: Vector) -> Vector:
    out = zero_vector(field, len(a))
    for i, row in enumerate(a):
        acc = field.zero
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out[i] = acc
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(c, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


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
        inv = field.one / work[r][c]
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
    nrows = len(a)
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
        inv = self.field.one / v[pivot]
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

    def basis(self) -> list[Vector]:
        return [self.rows[p] for p in sorted(self.rows)]

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
    def _reduced_reps(self) -> Matrix:
        """Representatives reduced modulo the boundaries, as columns."""
        return transpose([self.boundaries.reduce(z) for z in self.reps])

    def coordinates(self, vector: Vector) -> Vector | None:
        """Coordinates of the class of a cocycle in the representative
        basis, or None if ``vector`` is not a cocycle modulo boundaries."""
        residual = self.boundaries.reduce(vector)
        if not self.reps:
            return None if any(residual) else []
        return solve(self.field, self._reduced_reps, residual)
