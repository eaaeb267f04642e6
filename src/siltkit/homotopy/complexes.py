"""Bounded complexes of finitely generated projectives.

A complex stores, for each cohomological degree, the tuple of vertices whose
projectives e_v A are summed there, and for each degree k a matrix of algebra
elements giving the differential d^k into degree k+1.  Entry (r, c) of d^k
lies in e_{v_r} A e_{w_c} and acts by left multiplication, matching the
identification Hom(e_w A, e_v A) = e_v A e_w.

Every complex is bounded and whole: a resolution that does not end within
``RESOLUTION_BOUND`` is refused when it is built (``core.modules``), so no
cut-off complex exists.

A complex is never changed after it is built.  That makes its content
exact and hashable: ``ProjComplex.key`` holds the summands and every
differential coefficient, so two complexes with equal keys are the
same complex, whatever object or label carries them.  Hom complexes are
built once per pair of keys (see ``homs``), and ``minimize`` keeps its
result on the complex it was asked about, so each object is minimized
once; a minimal form is its own minimal form.
"""

from __future__ import annotations

from functools import cached_property

from ..core.algebras import AlgebraElement, PathAlgebra
from ..errors import ChainConditionViolated


def alg_mat_zero(algebra: PathAlgebra, rows: int, cols: int) -> list:
    return [[algebra.zero() for _ in range(cols)] for _ in range(rows)]


def alg_mat_mul(a: list, b: list) -> list:
    """Product of matrices of algebra elements (no shape inference: a's
    column count must equal b's row count)."""
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def alg_mat_neg(a: list) -> list:
    return [[-x for x in row] for row in a]


def alg_mat_is_zero(a: list) -> bool:
    return all(x.is_zero() for row in a for x in row)


def _entry_in_block(x: AlgebraElement, target: str, source: str) -> bool:
    algebra = x.algebra
    for i in x.coeffs:
        p = algebra.basis[i]
        if p.target != target or p.source != source:
            return False
    return True


class ProjComplex:
    """A bounded complex of projective right modules.

    Never mutated after construction: ``key``, the kept minimal form and
    the kept H^0 End table are computed once and rely on that.
    """

    def __init__(
        self,
        algebra: PathAlgebra,
        summands: dict[int, tuple[str, ...]],
        diffs: dict[int, list],
        label: str = "",
        check: bool = True,
    ):
        self.algebra = algebra
        self.summands = {k: tuple(v) for k, v in summands.items() if v}
        self.diffs = {}
        for k in self.summands:
            if k + 1 not in self.summands:
                continue
            rows = len(self.summands[k + 1])
            cols = len(self.summands[k])
            mat = diffs.get(k)
            if mat is None:
                mat = alg_mat_zero(algebra, rows, cols)
            self.diffs[k] = mat
        self.label = label
        #: The result of ``minimize(self)``, once it has been asked for.
        self._minimal: ProjComplex | None = None
        #: H^0 End(self) as structure constants, once ``compare`` has asked.
        self._end_table: tuple | None = None
        if check:
            self._validate()

    @cached_property
    def key(self) -> tuple:
        """The exact content: the summands and the coordinates of every
        differential entry.  The label is not part of it."""
        return (
            tuple(sorted(self.summands.items())),
            tuple(
                (k, tuple(tuple(tuple(sorted(x.coeffs.items())) for x in row) for row in mat))
                for k, mat in sorted(self.diffs.items())
            ),
        )

    def _validate(self) -> None:
        for v in {w for vs in self.summands.values() for w in vs}:
            self.algebra.check_vertex(v)
        for k, mat in self.diffs.items():
            rows = self.summands[k + 1]
            cols = self.summands[k]
            if len(mat) != len(rows) or any(len(row) != len(cols) for row in mat):
                raise ChainConditionViolated(
                    f"differential at degree {k} has the wrong shape"
                )
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if not _entry_in_block(entry, rows[r], cols[c]):
                        raise ChainConditionViolated(
                            f"entry ({r},{c}) of d^{k} is not supported on "
                            f"e_{rows[r]} A e_{cols[c]}"
                        )
        for k in self.diffs:
            if k + 1 in self.diffs:
                square = alg_mat_mul(self.diffs[k + 1], self.diffs[k])
                if not alg_mat_is_zero(square):
                    raise ChainConditionViolated(
                        f"d^{k + 1} d^{k} is nonzero"
                    )

    # -- shape queries -------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.summands)

    @property
    def min_degree(self) -> int | None:
        return min(self.summands) if self.summands else None

    @property
    def max_degree(self) -> int | None:
        return max(self.summands) if self.summands else None

    def is_zero(self) -> bool:
        return not self.summands

    def total_summands(self) -> int:
        return sum(len(v) for v in self.summands.values())

    def graded_multiplicities(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for k, vs in self.summands.items():
            counts: dict[str, int] = {}
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
            out[k] = counts
        return out

    def class_vector(self) -> dict[str, object]:
        """Alternating sum of summand multiplicities, one entry per vertex."""
        out = {v: 0 for v in self.algebra.quiver.vertices}
        for k, vs in self.summands.items():
            sign = 1 if k % 2 == 0 else -1
            for v in vs:
                out[v] += sign
        return out

    def differential(self, k: int) -> list:
        rows = len(self.summands.get(k + 1, ()))
        cols = len(self.summands.get(k, ()))
        return self.diffs.get(k, alg_mat_zero(self.algebra, rows, cols))

    def __repr__(self):
        if self.is_zero():
            return "ProjComplex(0)"
        parts = []
        for k in self.degrees():
            parts.append(f"{k}: {'+'.join(self.summands[k])}")
        return f"ProjComplex({'; '.join(parts)})"


class Generated(tuple):
    """A collection known to generate K^b(proj A), with the reason why.

    The fact lives on the sequence itself: a slice, a ``list(...)``, a
    concatenation or any rebuilt sequence is a plain sequence again, so
    no edit can keep a grant it no longer deserves.
    """

    def __new__(cls, members, route: str):
        self = super().__new__(cls, members)
        self.route = route
        return self


def single_projective(
    algebra: PathAlgebra, v: str, degree: int = 0, label: str = ""
) -> ProjComplex:
    algebra.check_vertex(v)
    return ProjComplex(algebra, {degree: (v,)}, {}, label=label or f"P({v})[{-degree}]")


def shift(x: ProjComplex, n: int) -> ProjComplex:
    """X[n]: degree k of the result is degree k+n of X; odd shifts flip the
    sign of the differential."""
    summands = {k - n: vs for k, vs in x.summands.items()}
    sign = 1 if n % 2 == 0 else -1
    diffs = {}
    for k, mat in x.diffs.items():
        diffs[k - n] = mat if sign == 1 else alg_mat_neg(mat)
    label = x.label and f"{x.label}[{n}]"
    return ProjComplex(x.algebra, summands, diffs, label=label, check=False)


def direct_sum(x: ProjComplex, y: ProjComplex) -> ProjComplex:
    """X ⊕ Y with X's summands listed first in every degree."""
    algebra = x.algebra
    summands = {}
    for k in set(x.summands) | set(y.summands):
        summands[k] = x.summands.get(k, ()) + y.summands.get(k, ())
    diffs = {}
    for k in summands:
        if k + 1 not in summands:
            continue
        xk, yk = len(x.summands.get(k, ())), len(y.summands.get(k, ()))
        xk1, yk1 = len(x.summands.get(k + 1, ())), len(y.summands.get(k + 1, ()))
        dx = x.differential(k)
        dy = y.differential(k)
        mat = alg_mat_zero(algebra, xk1 + yk1, xk + yk)
        for r in range(xk1):
            for c in range(xk):
                mat[r][c] = dx[r][c]
        for r in range(yk1):
            for c in range(yk):
                mat[xk1 + r][xk + c] = dy[r][c]
        diffs[k] = mat
    return ProjComplex(x.algebra, summands, diffs, check=False)


class ChainMap:
    """A degree-n map of complexes f: X -> Y, given per degree by a matrix
    f^k: X^k -> Y^{k+n} of algebra elements.

    Callers build only maps with d_Y f = (-1)^n f d_X, i.e. cocycles of the
    Hom complex; the condition is not re-checked here.  A chain map only
    feeds :func:`cone`: maps are composed in Hom coordinates
    (``HomComplex.compose``).
    """

    def __init__(
        self,
        source: ProjComplex,
        target: ProjComplex,
        components: dict[int, list],
        degree: int = 0,
    ):
        self.source = source
        self.target = target
        self.degree = degree
        algebra = source.algebra
        self.components = {}
        for k in source.summands:
            if k + degree not in target.summands:
                continue
            rows = len(target.summands[k + degree])
            cols = len(source.summands[k])
            mat = components.get(k)
            if mat is None:
                mat = alg_mat_zero(algebra, rows, cols)
            self.components[k] = mat

    def component(self, k: int) -> list:
        rows = len(self.target.summands.get(k + self.degree, ()))
        cols = len(self.source.summands.get(k, ()))
        return self.components.get(k, alg_mat_zero(self.source.algebra, rows, cols))


def identity_map(x: ProjComplex) -> ChainMap:
    algebra = x.algebra
    components = {}
    for k, vs in x.summands.items():
        mat = alg_mat_zero(algebra, len(vs), len(vs))
        for i, v in enumerate(vs):
            mat[i][i] = algebra.idempotent(v)
        components[k] = mat
    return ChainMap(x, x, components, degree=0)


def cone(f: ChainMap) -> ProjComplex:
    """Mapping cone of a degree-0 chain map f: X -> Y.

    Degree k is Y^k ⊕ X^{k+1}; the differential is upper triangular with
    blocks d_Y, f^{k+1} and -d_X."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    x, y = f.source, f.target
    algebra = x.algebra
    summands = {}
    for k in set(y.summands) | {k - 1 for k in x.summands}:
        vs = y.summands.get(k, ()) + x.summands.get(k + 1, ())
        if vs:
            summands[k] = vs
    diffs = {}
    for k in summands:
        if k + 1 not in summands:
            continue
        yk, xk1 = len(y.summands.get(k, ())), len(x.summands.get(k + 1, ()))
        yk1, xk2 = len(y.summands.get(k + 1, ())), len(x.summands.get(k + 2, ()))
        mat = alg_mat_zero(algebra, yk1 + xk2, yk + xk1)
        dy = y.differential(k)
        for r in range(yk1):
            for c in range(yk):
                mat[r][c] = dy[r][c]
        fk1 = f.component(k + 1)
        for r in range(yk1):
            for c in range(xk1):
                mat[r][yk + c] = fk1[r][c]
        dx = x.differential(k + 1)
        for r in range(xk2):
            for c in range(xk1):
                mat[yk1 + r][yk + c] = -dx[r][c]
        diffs[k] = mat
    return ProjComplex(algebra, summands, diffs, check=False)


def _local_inverse(x: AlgebraElement, v: str) -> AlgebraElement:
    """Inverse of a unit in the local algebra e_v A e_v."""
    algebra = x.algebra
    lam = x.vertex_scalar(v)
    if not lam:
        raise ValueError("element is not invertible")
    inv_lam = algebra.field.div(algebra.field.one, lam)
    e = algebra.idempotent(v)
    n = x.scale(inv_lam) - e
    acc = e
    term = e
    while True:
        term = (term.scale(-1)) * n
        if term.is_zero():
            break
        acc = acc + term
    return acc.scale(inv_lam)


def minimize(x: ProjComplex) -> ProjComplex:
    """A minimal complex homotopy-equivalent to x.

    Repeatedly cancels differential entries that are units: whenever entry
    (r, c) of d^k has matching vertices and a nonzero idempotent coefficient,
    the contractible summand it spans is split off by a change of basis.  The
    scan order (degree, then row, then column) is fixed, so the result is
    deterministic.  A complex without such an entry is its own minimal
    form.  The result is kept on x, so each complex is minimized once.
    """
    if x._minimal is None:
        x._minimal = _cancel_units(x)
        x._minimal._minimal = x._minimal
    return x._minimal


def _cancel_units(x: ProjComplex) -> ProjComplex:
    summands = {k: list(vs) for k, vs in x.summands.items()}
    diffs = {k: [row[:] for row in mat] for k, mat in x.diffs.items()}

    def find_unit():
        for k in sorted(diffs):
            mat = diffs[k]
            rows = summands.get(k + 1, [])
            cols = summands.get(k, [])
            for r in range(len(rows)):
                for c in range(len(cols)):
                    entry = mat[r][c]
                    if rows[r] == cols[c] and entry.vertex_scalar(rows[r]):
                        return k, r, c
        return None

    found = find_unit()
    if found is None:
        return x
    while found is not None:
        k, r, c = found
        mat = diffs[k]
        u = mat[r][c]
        u_inv = _local_inverse(u, summands[k][c])
        old_rows = len(summands[k + 1])
        old_cols = len(summands[k])
        new_mat = []
        for rp in range(old_rows):
            if rp == r:
                continue
            new_row = []
            for cp in range(old_cols):
                if cp == c:
                    continue
                new_row.append(mat[rp][cp] - mat[rp][c] * u_inv * mat[r][cp])
            new_mat.append(new_row)
        # The neighbouring differentials lose the cancelled row/column; the
        # chain condition makes those entries redundant after the basis change.
        if k + 1 in diffs:
            diffs[k + 1] = [
                [entry for j, entry in enumerate(row) if j != r]
                for row in diffs[k + 1]
            ]
        if k - 1 in diffs:
            diffs[k - 1] = [
                row for i, row in enumerate(diffs[k - 1]) if i != c
            ]
        diffs[k] = new_mat
        summands[k].pop(c)
        summands[k + 1].pop(r)
        for kk in (k, k + 1):
            if not summands.get(kk):
                summands.pop(kk, None)
                diffs.pop(kk, None)
                diffs.pop(kk - 1, None)
        found = find_unit()

    cleaned_summands = {k: tuple(vs) for k, vs in summands.items() if vs}
    cleaned_diffs = {
        k: mat for k, mat in diffs.items() if k in cleaned_summands and k + 1 in cleaned_summands
    }
    return ProjComplex(
        x.algebra, cleaned_summands, cleaned_diffs, label=x.label, check=False
    )


def component_split(x: ProjComplex) -> list[ProjComplex]:
    """Direct summands exhibited by the differential's block structure.

    Summand positions connected through nonzero differential entries
    must stay together; the connected components genuinely split off as
    direct summands (though they need not be indecomposable).
    """
    positions = [(k, i) for k in sorted(x.summands) for i in range(len(x.summands[k]))]
    parent = {p: p for p in positions}

    def find(p: tuple[int, int]) -> tuple[int, int]:
        while parent[p] != p:
            p = parent[p]
        return p

    for k, mat in x.diffs.items():
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if entry:
                    parent[find((k + 1, r))] = find((k, c))

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in positions:
        groups.setdefault(find(p), []).append(p)
    if len(groups) <= 1:
        return [x]

    out = []
    for points in groups.values():
        degs: dict[int, list[int]] = {}
        for k, i in points:
            degs.setdefault(k, []).append(i)
        summands = {k: tuple(x.summands[k][i] for i in idxs) for k, idxs in degs.items()}
        diffs = {
            k: [[x.diffs[k][r][c] for c in degs[k]] for r in degs[k + 1]]
            for k in degs
            if k + 1 in degs
        }
        out.append(ProjComplex(x.algebra, summands, diffs, check=False))
    return out
