"""Hom complexes between complexes of projectives, and their cohomology.

The degree-n part of Hom(X, Y) collects maps X^k -> Y^{k+n} for all k; its
basis elements are tuples (k, r, c, q): component degree, target summand,
source summand, and an algebra basis path supported on the matching
idempotent block.  The differential is D(f) = d_Y f - (-1)^n f d_X, so
degree-n cocycles are exactly degree-n chain maps and coboundaries are the
null-homotopic ones.  The differential in degree n is kept as the images
of the degree-n basis, each a ``Coords`` over the degree-(n+1) positions,
and H^n comes from ``linalg.Cohomology`` on the images into and out of
degree n; ``hom_dims`` reads several dimensions off one Hom complex from
differential ranks alone.  The cohomology of a complex is read the same
way: Hom(e_v A, M) = M e_v, so H^k(X) e_v = H^k Hom(e_v A, X)
(``complex_cohomology_dims``).

The linear data of Hom(X, Y) depends only on the contents of X and Y, so
it is built once per pair of complex keys (``ProjComplex.key``) and kept
in ``hom_data``, a dict owned by the algebra: it lasts as long as the
algebra, and two algebras never share it.  With it go each degree's
differential rank and ``Cohomology``, so representatives and class
coordinates are also found once per pair of keys.

Composition lives in these coordinates: ``HomComplex.compose`` multiplies
two Hom vectors entry by entry through ``algebra.products`` into the
positions of a third Hom complex, and ``HomSpace.composites`` reads the
classes of the composites of two spaces' representatives.  A
``HomComplex`` still wraps the caller's own complexes; the chain maps it
returns (``vector_to_map``) run between them and only feed cones.

Both complexes are bounded (no truncated complex exists), so every degree
of every Hom complex is answered.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from ..linalg import Coords, Cohomology, rank
from .complexes import ChainMap, ProjComplex, single_projective

BasisElt = tuple[int, int, int, int]


class _HomData:
    """The linear data of Hom(X, Y): basis, index, the differential as the
    images of each degree's basis, and each degree's rank and Cohomology
    once asked for.  It depends on the contents of X and Y only, so one
    copy serves every pair of complexes with the same keys."""

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
        self.diff: dict[int, list[Coords]] = {}
        zero = field.zero
        for n, elts in self.basis.items():
            up = self.index.get(n + 1, {})
            sign = -1 if n % 2 else 1
            images = []
            for k, r, c, q in elts:
                image: Coords = {}
                pq = algebra.basis_element(q)
                for r2, dy_row in enumerate(target.diffs.get(k + n, ())):
                    if not dy_row[r]:
                        continue
                    for qi, coeff in (dy_row[r] * pq).coeffs.items():
                        key = up[(k, r2, c, qi)]
                        image[key] = image.get(key, zero) + coeff
                dx = source.diffs.get(k - 1)
                for c2, dx_entry in enumerate(dx[c] if dx else ()):
                    if not dx_entry:
                        continue
                    for qi, coeff in (pq * dx_entry).coeffs.items():
                        key = up[(k - 1, r, c2, qi)]
                        image[key] = image.get(key, zero) - sign * coeff
                images.append({key: x for key, x in image.items() if x})
            self.diff[n] = images
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

    def differential(self, n: int) -> list[Coords]:
        """The images of the degree-n basis, in degree-(n+1) positions."""
        return self._data.diff.get(n, [])

    def differential_rank(self, n: int) -> int:
        ranks = self._data.ranks
        if n not in ranks:
            ranks[n] = rank(self.field, self.differential(n))
        return ranks[n]

    def cohomology(self, n: int) -> Cohomology:
        known = self._data.cohomology
        if n not in known:
            known[n] = Cohomology(
                self.field,
                range(self.dimension(n)),
                self.differential(n - 1),
                self.differential(n),
            )
        return known[n]

    # -- conversions ---------------------------------------------------

    def vector_to_map(self, n: int, vec: Coords) -> ChainMap:
        f = ChainMap(self.source, self.target, {}, degree=n)
        for i in sorted(vec):
            k, r, c, q = self.basis[n][i]
            row = f.components[k][r]
            row[c] = row[c] + self.algebra.basis_element(q).scale(vec[i])
        return f

    def identity(self) -> Coords:
        """The identity of End^0 (source and target have the same key)."""
        index, e = self.index[0], self.algebra.idempotent_index
        return {
            index[(k, i, i, e[v])]: self.field.one
            for k, vs in self.source.summands.items()
            for i, v in enumerate(vs)
        }

    def compose(
        self, g: Coords, m: int, inner: "HomComplex", f: Coords, n: int, into: "HomComplex"
    ) -> Coords:
        """g ∘ f in the degree-(m+n) positions of ``into`` = Hom(X, Z), for
        g in degree m of this Hom(Y, Z) and f in degree n of ``inner`` =
        Hom(X, Y).

        At X^k, entry (r2, c) of g∘f is the sum over r of g(r2, r)·f(r, c),
        each product read off ``algebra.products``.
        """
        after: dict[tuple[int, int], list] = {}
        for i, b in g.items():
            k, r2, r, q = self.basis[m][i]
            after.setdefault((k, r), []).append((r2, q, b))
        products = self.algebra.products
        index = into.index.get(m + n, {})
        zero = self.field.zero
        out: Coords = {}
        for i, a in f.items():
            k, r, c, q = inner.basis[n][i]
            for r2, qg, b in after.get((k + n, r), ()):
                ab = b * a
                for p, x in products.get((qg, q), {}).items():
                    key = index[(k, r2, c, p)]
                    out[key] = out.get(key, zero) + ab * x
        return {key: x for key, x in out.items() if x}


class HomSpace:
    """H^n of a Hom complex: classes are coordinates over the
    representative cocycles ``cohomology.reps``."""

    def __init__(self, hom: HomComplex, degree: int):
        self.complex = hom
        self.degree = degree
        self.cohomology = hom.cohomology(degree)
        self.dimension = len(self.cohomology.reps)

    @cached_property
    def representatives(self) -> list[ChainMap]:
        """The representatives as chain maps, for the callers that make
        cones of them."""
        return [self.complex.vector_to_map(self.degree, v) for v in self.cohomology.reps]

    def composites(self, inner: "HomSpace", into: "HomSpace") -> list[list[Coords]]:
        """The class table [g_i ∘ f_j] in ``into``, for the representatives
        g_i of this space and f_j of ``inner``; one ``compose`` per pair.

        Raises ValueError on a composite that is not a cocycle modulo
        boundaries.
        """
        compose, hom = self.complex.compose, inner.complex
        m, n = self.degree, inner.degree
        table = []
        for g in self.cohomology.reps:
            row = []
            for f in inner.cohomology.reps:
                vec = compose(g, m, hom, f, n, into.complex)
                coords = into.cohomology.coordinates(vec) if vec else {}
                if coords is None:
                    raise ValueError("composite is not a cocycle modulo boundaries")
                row.append(coords)
            table.append(row)
        return table


def hom_space(x: ProjComplex, y: ProjComplex, n: int) -> HomSpace:
    """H^n Hom(x, y): degree-n chain maps up to homotopy."""
    return HomSpace(HomComplex(x, y), n)


def hom_dims(x: ProjComplex, y: ProjComplex, degrees: Iterable[int]) -> dict[int, int]:
    """{n: dim H^n Hom(x, y)} for the given degrees, in order, from one
    Hom complex.

    dim H^n = dim Hom^n - rank d^n - rank d^(n-1), with each differential's
    rank taken once per pair of keys.
    """
    degrees = list(degrees)
    if not degrees:
        return {}
    hom = HomComplex(x, y)
    return {
        n: hom.dimension(n) - hom.differential_rank(n) - hom.differential_rank(n - 1)
        for n in degrees
    }


def complex_cohomology_dims(x: ProjComplex) -> dict[int, dict[str, int]]:
    """{k: {v: dim H^k(x) e_v}}, zero entries dropped.

    Hom(e_v A, M) = M e_v, so H^k(x) e_v is H^k Hom(e_v A, x), read off
    the Hom table by ``hom_dims``.
    """
    algebra = x.algebra
    out: dict[int, dict[str, int]] = {}
    for v in algebra.quiver.vertices:
        for k, d in hom_dims(single_projective(algebra, v), x, x.degrees()).items():
            if d:
                out.setdefault(k, {})[v] = d
    return out


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
