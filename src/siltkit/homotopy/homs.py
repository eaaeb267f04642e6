"""Hom complexes between complexes of projectives, and their cohomology.

The degree-n part of Hom(X, Y) collects maps X^k -> Y^{k+n} for all k; its
basis elements are tuples (k, r, c, q): component degree, target summand,
source summand, and an algebra basis path supported on the matching
idempotent block.  The differential is D(f) = d_Y f - (-1)^n f d_X, so
degree-n cocycles are exactly degree-n chain maps and coboundaries are the
null-homotopic ones.  H^n comes from ``linalg.Cohomology`` on the
differentials into and out of degree n; ``hom_dims`` reads several
dimensions off one Hom complex from differential ranks alone.

The linear data of Hom(X, Y) depends only on the contents of X and Y, so
it is built once per pair of complex keys (``ProjComplex.key``) and kept
in ``hom_data``, a dict owned by the algebra: it lasts as long as the
algebra, and two algebras never share it.  With it go each degree's
differential rank and ``Cohomology``, so representatives and class
coordinates are also found once per pair of keys.  A ``HomComplex``
still wraps the caller's own complexes, and the chain maps it returns run
between them.

When either complex is an incomplete (truncated) resolution, cohomology is
served only in the degree range where the missing part provably cannot
contribute; outside it, TruncationUnsound is raised rather than returning a
wrong number.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import TruncationUnsound
from ..linalg import Cohomology, rank, zero_vector
from .complexes import ChainMap, ProjComplex, alg_zero_matrix

BasisElt = tuple[int, int, int, int]


class _HomData:
    """The linear data of Hom(X, Y): basis, index, differential matrices,
    and each degree's rank and Cohomology once asked for.  It depends on
    the contents of X and Y only, so one copy serves every pair of
    complexes with the same keys."""

    __slots__ = ("basis", "index", "diff", "ranks", "cohomology")

    def __init__(self, source: ProjComplex, target: ProjComplex):
        algebra = source.algebra
        field = algebra.field
        raw: dict[int, list[BasisElt]] = {}
        for k in source.summands:
            for m in target.summands:
                n = m - k
                for c, w in enumerate(source.summands[k]):
                    for r, v in enumerate(target.summands[m]):
                        for q in algebra.hom_basis(v, w):
                            raw.setdefault(n, []).append((k, r, c, q))
        self.basis: dict[int, tuple[BasisElt, ...]] = {
            n: tuple(sorted(elts)) for n, elts in raw.items()
        }
        self.index = {
            n: {e: i for i, e in enumerate(es)} for n, es in self.basis.items()
        }
        self.diff: dict[int, list] = {}
        for n, elts in self.basis.items():
            rows = len(self.basis.get(n + 1, ()))
            mat = [zero_vector(field, len(elts)) for _ in range(rows)]
            sign = -1 if n % 2 else 1
            for col, (k, r, c, q) in enumerate(elts):
                pq = algebra.basis_element(q)
                for r2, dy_row in enumerate(target.diffs.get(k + n, ())):
                    if not dy_row[r]:
                        continue
                    for qi, coeff in (dy_row[r] * pq).coeffs.items():
                        row = self.index[n + 1][(k, r2, c, qi)]
                        mat[row][col] = mat[row][col] + coeff
                dx = source.diffs.get(k - 1)
                for c2, dx_entry in enumerate(dx[c] if dx else ()):
                    if not dx_entry:
                        continue
                    for qi, coeff in (pq * dx_entry).coeffs.items():
                        row = self.index[n + 1][(k - 1, r, c2, qi)]
                        mat[row][col] = mat[row][col] - sign * coeff
            self.diff[n] = mat
        self.ranks: dict[int, int] = {}
        self.cohomology: dict[int, Cohomology] = {}


class HomComplex:
    """The total complex of graded maps between two complexes.

    The linear data comes from the algebra's ``hom_data``, built on the
    first request for the pair of keys; the maps it hands out run
    between this object's own ``source`` and ``target``.
    """

    def __init__(self, source: ProjComplex, target: ProjComplex):
        if source.algebra is not target.algebra:
            raise ValueError("complexes live over different algebras")
        self.source = source
        self.target = target
        self.algebra = source.algebra
        self.field = self.algebra.field
        store = self.algebra.hom_data
        pair = (source.key, target.key)
        data = store.get(pair)
        if data is None:
            data = store[pair] = _HomData(source, target)
        self._data = data
        self.basis = data.basis
        self.index = data.index

    # -- underlying graded pieces --------------------------------------

    def dimension(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def differential_matrix(self, n: int) -> list:
        return self._data.diff.get(n, [])

    def differential_rank(self, n: int) -> int:
        ranks = self._data.ranks
        if n not in ranks:
            ranks[n] = rank(self.field, self.differential_matrix(n))
        return ranks[n]

    def cohomology(self, n: int) -> Cohomology:
        known = self._data.cohomology
        if n not in known:
            known[n] = Cohomology(
                self.field,
                self.dimension(n),
                self.differential_matrix(n - 1),
                self.differential_matrix(n),
            )
        return known[n]

    # -- conversions ---------------------------------------------------

    def vector_to_map(self, n: int, vec: list) -> ChainMap:
        components: dict[int, list] = {}
        for i, coeff in enumerate(vec):
            if not coeff:
                continue
            k, r, c, q = self.basis[n][i]
            if k not in components:
                components[k] = alg_zero_matrix(
                    self.algebra,
                    len(self.target.summands[k + n]),
                    len(self.source.summands[k]),
                )
            components[k][r][c] = components[k][r][c] + self.algebra.basis_element(q).scale(coeff)
        return ChainMap(self.source, self.target, components, degree=n)

    def map_to_vector(self, f: ChainMap) -> list:
        if f.degree not in self.basis:
            return []
        vec = zero_vector(self.field, self.dimension(f.degree))
        for k, mat in f.components.items():
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    for q, coeff in entry.coeffs.items():
                        vec[self.index[f.degree][(k, r, c, q)]] = (
                            vec[self.index[f.degree][(k, r, c, q)]] + coeff
                        )
        return vec


def trusted_window(x: ProjComplex, y: ProjComplex) -> tuple[float, float]:
    """Degrees n for which H^n Hom(x, y) is unaffected by truncation.

    A resolution truncated below its lowest degree b can only contribute
    Hom basis elements in high (for the source) or low (for the target)
    degrees; cohomology at n also needs degrees n-1 and n+1 to be clean.
    """
    lo: float = float("-inf")
    hi: float = float("inf")
    if not x.complete and not x.is_zero() and not y.is_zero():
        hi = y.min_degree - x.min_degree - 1
    if not y.complete and not x.is_zero() and not y.is_zero():
        lo = y.min_degree - x.min_degree + 1
    return lo, hi


class HomSpace:
    """H^n of a Hom complex, with chain-map representatives and coordinates
    for arbitrary cocycles modulo boundaries."""

    def __init__(self, hom: HomComplex, degree: int):
        self.complex = hom
        self.degree = degree
        self.cohomology = hom.cohomology(degree)
        self.representatives = [
            hom.vector_to_map(degree, v) for v in self.cohomology.reps
        ]
        self.dimension = len(self.representatives)

    def class_coordinates(self, f: ChainMap) -> list:
        """Coordinates of [f] in the representative basis (f must be a
        cocycle of the right degree)."""
        vec = self.complex.map_to_vector(f)
        if not vec:
            return []
        coords = self.cohomology.coordinates(vec)
        if coords is None:
            raise ValueError("map is not a cocycle modulo boundaries")
        return coords


def _require_trusted(x: ProjComplex, y: ProjComplex, n: int) -> None:
    lo, hi = trusted_window(x, y)
    if not (lo <= n <= hi):
        raise TruncationUnsound(
            f"H^{n} of the Hom complex is not determined by the truncated "
            f"resolutions (trusted degrees: {lo} .. {hi})",
            degree=n,
            window=(lo, hi),
        )


def hom_space(x: ProjComplex, y: ProjComplex, n: int) -> HomSpace:
    """H^n Hom(x, y): degree-n chain maps up to homotopy.

    Raises TruncationUnsound if either complex is an incomplete resolution
    and n lies outside the range its truncation leaves intact.
    """
    _require_trusted(x, y, n)
    return HomSpace(HomComplex(x, y), n)


def hom_dims(x: ProjComplex, y: ProjComplex, degrees: Iterable[int]) -> dict[int, int]:
    """{n: dim H^n Hom(x, y)} for the given degrees, in order, from one
    Hom complex.

    dim H^n = dim Hom^n - rank d^n - rank d^(n-1), with each differential's
    rank taken once per pair of keys.  Every degree is checked against the
    truncation window before anything is built, so TruncationUnsound names
    the first untrusted degree, as ``hom_space`` would.
    """
    degrees = list(degrees)
    for n in degrees:
        _require_trusted(x, y, n)
    if not degrees:
        return {}
    hom = HomComplex(x, y)
    return {
        n: hom.dimension(n) - hom.differential_rank(n) - hom.differential_rank(n - 1)
        for n in degrees
    }


def cartan_pairing(algebra, class_x: dict[str, int], class_y: dict[str, int]) -> int:
    """Euler pairing of class vectors: sums dim e_w A e_v over pairs of
    vertices weighted by the alternating-sum multiplicities."""
    total = 0
    for v, cv in class_x.items():
        if not cv:
            continue
        for w, cw in class_y.items():
            if not cw:
                continue
            total += cv * cw * algebra.cartan_entry(w, v)
    return total
