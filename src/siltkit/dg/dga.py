"""Finite-dimensional differential graded algebras by structure constants.

A DGAlgebra is a graded basis with integer degrees, a multiplication table,
a degree +1 differential, a unit, and a distinguished family of orthogonal
idempotents.  Elements are sparse coordinate dictionaries over the basis.

The two constructors that matter are ``end_algebra`` (the endomorphism dg
algebra of a family of free dg modules, with composition as product) and
``cohomology_algebra`` (the induced graded algebra on chosen cocycle
representatives).  Free modules are kept in generator form
(``FreeModule``): a generator ``g`` of degree ``n`` attached to idempotent
``e`` spans ``g * (e E)``, and every map out of a free module is fixed by
its generator images, which makes the End finite and exact.  ``dg_end``
reads each complex of projectives as a free dg module over the path
algebra, one generator per summand, and ``dgmod.koszul_dual`` takes the
End of semifree resolutions; both are ``end_algebra``.  Everything a
constructor emits passes ``verify``: d^2 = 0, the graded Leibniz rule,
associativity, unitality, and the idempotent axioms are checked exactly.

Cohomology (dimensions, representatives, class coordinates) comes from
``linalg.Cohomology`` on the differential matrices into and out of each
degree.

Maps between dg algebras are ``GradedAlgebraMap``s, audited exactly by
``verify_dg_quasi_iso``.  ``find_formality_witness`` looks for a
quasi-isomorphism H^*(E) -> E, which the Koszul check uses when E has no
simple dg modules of its own; it solves for at most ``FORMALITY_BUDGET``
coboundary corrections and says where it stopped when it finds none.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ChainConditionViolated, Inconclusive, TruncationUnsound
from ..linalg import (
    Coords,
    Cohomology,
    GaussianSpan,
    rank,
    solve,
    sparse_apply,
    sparse_product,
    zero_vector,
)

#: Most coboundary correction coefficients ``find_formality_witness`` solves for.
FORMALITY_BUDGET = 64


def differential_block(field, differential: dict[int, Coords], src: list, dst: list) -> list:
    """Matrix of a sparse differential from the span of the basis indices
    ``src`` to the span of ``dst``, in their local order."""
    pos = {g: i for i, g in enumerate(dst)}
    mat = [zero_vector(field, len(src)) for _ in dst]
    for col, g in enumerate(src):
        for k, c in differential.get(g, {}).items():
            mat[pos[k]][col] = c
    return mat


def _index(pairs) -> dict[int, list[int]]:
    """The second entries of ``pairs`` grouped by their first entry."""
    out: dict[int, list[int]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


def _factors(index: dict[int, list[int]], support) -> set[int]:
    """The union of ``index[m]`` over the basis indices m in ``support``."""
    out: set[int] = set()
    for m in support:
        out.update(index.get(m, ()))
    return out


class DGAlgebra:
    """A dg algebra with a fixed ordered graded basis."""

    def __init__(
        self,
        field,
        labels: tuple[str, ...],
        degrees: tuple[int, ...],
        products: dict[tuple[int, int], Coords],
        differential: dict[int, Coords],
        unit: Coords,
        idempotents: dict[str, Coords],
        provenance: str = "",
        window: tuple[int, int] | None = None,
        complete: bool = True,
    ):
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees must have equal length")
        self.field = field
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.products = {
            key: {i: c for i, c in val.items() if c} for key, val in products.items()
        }
        self.differential = {
            i: {j: c for j, c in val.items() if c}
            for i, val in differential.items()
            if any(val.values())
        }
        self.unit = {i: c for i, c in unit.items() if c}
        self.idempotents = {
            name: {i: c for i, c in val.items() if c}
            for name, val in idempotents.items()
        }
        self.provenance = provenance
        self.window = window
        self.complete = complete

    # -- shape ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def graded_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for n in self.degrees:
            out[n] = out.get(n, 0) + 1
        return out

    def indices_at(self, n: int) -> list[int]:
        return [i for i, d in enumerate(self.degrees) if d == n]

    def degree_range(self) -> tuple[int, int] | None:
        if not self.degrees:
            return None
        return min(self.degrees), max(self.degrees)

    # -- arithmetic ----------------------------------------------------

    def multiply(self, a: Coords, b: Coords) -> Coords:
        return sparse_product(self.field, self.products, a, b)

    def differentiate(self, a: Coords) -> Coords:
        return sparse_apply(self.field, self.differential, a)

    # -- differential as matrices --------------------------------------

    def differential_matrix(self, n: int) -> list:
        """Matrix of d: degree-n span -> degree-(n+1) span, local indices."""
        return differential_block(
            self.field, self.differential, self.indices_at(n), self.indices_at(n + 1)
        )

    def differential_rank(self, n: int) -> int:
        return rank(self.field, self.differential_matrix(n))

    def cohomology(self, n: int) -> Cohomology:
        return Cohomology(
            self.field,
            len(self.indices_at(n)),
            self.differential_matrix(n - 1),
            self.differential_matrix(n),
        )

    def cohomology_dims(self) -> dict[int, int]:
        dims = {n: self.cohomology(n).dimension for n in sorted(set(self.degrees))}
        return {n: d for n, d in dims.items() if d}

    def local_vector(self, n: int, coords: Coords) -> list:
        """A homogeneous degree-n element as a vector over the degree-n basis."""
        posn = {g: i for i, g in enumerate(self.indices_at(n))}
        vec = zero_vector(self.field, len(posn))
        for g, c in coords.items():
            vec[posn[g]] = c
        return vec

    # -- structural verification ---------------------------------------

    def _leibniz_pairs(self, by_left: dict):
        """The basis pairs (i, j) on which e_i e_j, d(e_i) e_j or e_i d(e_j)
        can be nonzero, each once.  On every other pair both sides of the
        Leibniz rule are 0."""
        d_into = _index((m, j) for j, dj in self.differential.items() for m in dj)
        for i in range(self.dimension):
            js = _factors(by_left, (i, *self.differential.get(i, ())))
            js |= _factors(d_into, by_left.get(i, ()))
            for j in js:
                yield i, j

    def _associativity_triples(self, by_left: dict, by_right: dict):
        """The basis triples (i, j, k) on which (e_i e_j) e_k or
        e_i (e_j e_k) can be nonzero, each once.  A nonzero left side needs
        e_i e_j != 0 and k a right factor of its support; a nonzero right
        side needs e_j e_k != 0 and i a left factor of its support, and
        unless e_i e_j != 0 too, k is then a right factor of j.  On every
        other triple both sides are 0."""
        products = self.products
        for (i, j), ij in products.items():
            for k in _factors(by_left, (j, *ij)):
                yield i, j, k
        for (j, k), jk in products.items():
            for i in _factors(by_right, jk):
                if (i, j) not in products:
                    yield i, j, k

    def verify(self) -> None:
        """Raises ChainConditionViolated on any broken axiom.

        Leibniz and associativity are checked only on the basis pairs and
        triples where a product can be nonzero, found through the products
        indexed by left and by right factor; everywhere else both sides
        vanish, so the check stays exact.
        """
        f = self.field
        dim = self.dimension
        for (i, j), val in self.products.items():
            deg = self.degrees[i] + self.degrees[j]
            for k in val:
                if self.degrees[k] != deg:
                    raise ChainConditionViolated(
                        f"product {self.labels[i]}*{self.labels[j]} has a "
                        f"component of degree {self.degrees[k]}, expected {deg}"
                    )
        for i, val in self.differential.items():
            for k in val:
                if self.degrees[k] != self.degrees[i] + 1:
                    raise ChainConditionViolated(
                        f"d({self.labels[i]}) is not homogeneous of degree +1"
                    )
        for i in range(dim):
            dd = self.differentiate(self.differential.get(i, {}))
            if dd:
                raise ChainConditionViolated(f"d(d({self.labels[i]})) != 0")
        by_left = _index(self.products)
        by_right = _index((j, i) for i, j in self.products)
        for i, j in self._leibniz_pairs(by_left):
            prod = self.products.get((i, j), {})
            left = self.differentiate(prod)
            sign = -1 if self.degrees[i] % 2 else 1
            right = self.multiply(self.differential.get(i, {}), {j: f.one})
            second = self.multiply({i: f.one}, self.differential.get(j, {}))
            for k, c in second.items():
                right[k] = right.get(k, f.zero) + (c if sign == 1 else -c)
            right = {k: c for k, c in right.items() if c}
            if left != right:
                raise ChainConditionViolated(
                    f"Leibniz fails on {self.labels[i]} * {self.labels[j]}"
                )
        for i, j, k in self._associativity_triples(by_left, by_right):
            ab = self.products.get((i, j), {})
            bc = self.products.get((j, k), {})
            left = self.multiply(ab, {k: f.one})
            right = self.multiply({i: f.one}, bc)
            if left != right:
                raise ChainConditionViolated(
                    f"associativity fails on "
                    f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                )
        for i in range(dim):
            if self.multiply(self.unit, {i: f.one}) != {i: f.one}:
                raise ChainConditionViolated(f"1 * {self.labels[i]} != {self.labels[i]}")
            if self.multiply({i: f.one}, self.unit) != {i: f.one}:
                raise ChainConditionViolated(f"{self.labels[i]} * 1 != {self.labels[i]}")
        if self.differentiate(self.unit):
            raise ChainConditionViolated("d(1) != 0")
        if self.idempotents:
            total: Coords = {}
            for name, e in self.idempotents.items():
                for i in e:
                    if self.degrees[i] != 0:
                        raise ChainConditionViolated(
                            f"idempotent {name} is not concentrated in degree 0"
                        )
                if self.multiply(e, e) != e:
                    raise ChainConditionViolated(f"idempotent {name} is not idempotent")
                for i, c in e.items():
                    total[i] = total.get(i, f.zero) + c
            total = {i: c for i, c in total.items() if c}
            if total != self.unit:
                raise ChainConditionViolated("idempotents do not sum to the unit")
            names = list(self.idempotents)
            for a in names:
                for b in names:
                    if a != b and self.multiply(
                        self.idempotents[a], self.idempotents[b]
                    ):
                        raise ChainConditionViolated(
                            f"idempotents {a} and {b} are not orthogonal"
                        )
                de = self.differentiate(self.idempotents[a])
                sandwich = self.multiply(
                    self.idempotents[a], self.multiply(de, self.idempotents[a])
                )
                if de != sandwich:
                    raise ChainConditionViolated(
                        f"d of idempotent {a} leaves its block"
                    )

    def block_of(self, i: int) -> tuple[str, str] | None:
        """(left, right) idempotent labels whose block contains basis elt i,
        or None if the element is not block-pure."""
        unit_vec = {i: self.field.one}
        for a, ea in self.idempotents.items():
            for b, eb in self.idempotents.items():
                if self.multiply(ea, self.multiply(unit_vec, eb)) == unit_vec:
                    return a, b
        return None

    def __repr__(self):
        dims = self.graded_dims()
        shown = ", ".join(f"{n}: {dims[n]}" for n in sorted(dims))
        tag = f" <- {self.provenance}" if self.provenance else ""
        return f"DGAlgebra({shown}){tag}"


def path_algebra_to_dg(algebra) -> DGAlgebra:
    """A path algebra quotient viewed as a dg algebra in degree 0."""
    field = algebra.field
    unit = {algebra.idempotent_index[v]: field.one for v in algebra.quiver.vertices}
    idempotents = {
        v: {algebra.idempotent_index[v]: field.one} for v in algebra.quiver.vertices
    }
    return DGAlgebra(
        field,
        tuple(str(p) for p in algebra.basis),
        (0,) * algebra.dimension,
        algebra.products,
        {},
        unit,
        idempotents,
        provenance="path algebra",
    )


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    vertex: str  # idempotent name the generator is attached to


class FreeModule:
    """A free right dg module over a DGAlgebra, kept in generator form.

    A generator ``g`` of degree ``n`` attached to idempotent ``e`` spans
    ``g * (e E)``, with basis the pairs ``(t, b)`` over the basis elements
    ``b`` fixed by ``e`` on the left.  ``d_gens[t]`` is the differential of
    the t-th generator in pair coordinates; everything else follows by
    right-linearity.
    """

    def __init__(
        self,
        algebra: DGAlgebra,
        generators=(),
        d_gens=(),
        complete: bool = True,
    ):
        self.algebra = algebra
        self.field = algebra.field
        self.generators: list[Generator] = list(generators)
        self.d_gens: list[dict[tuple[int, int], object]] = list(d_gens)
        self.complete = complete
        one = algebra.field.one
        self._left_fixed = {
            name: [
                b for b in range(algebra.dimension)
                if algebra.multiply(e, {b: one}) == {b: one}
            ]
            for name, e in algebra.idempotents.items()
        }
        self._rebuild()

    def _rebuild(self) -> None:
        self.basis_pairs: list[tuple[int, int]] = []
        self.pair_index: dict[tuple[int, int], int] = {}
        self.basis_degrees: list[int] = []
        for t, gen in enumerate(self.generators):
            for b in self._left_fixed[gen.vertex]:
                self.pair_index[(t, b)] = len(self.basis_pairs)
                self.basis_pairs.append((t, b))
                self.basis_degrees.append(gen.degree + self.algebra.degrees[b])

    @property
    def dimension(self) -> int:
        return len(self.basis_pairs)

    def graded_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for n in self.basis_degrees:
            out[n] = out.get(n, 0) + 1
        return out

    def act(self, coords: dict[tuple[int, int], object], a: int):
        """Right action of the a-th algebra basis element on coordinates
        keyed by (generator, algebra basis) pairs."""
        out: dict[tuple[int, int], object] = {}
        field = self.field
        for (t, b), c in coords.items():
            if not c:
                continue
            for k, s in self.algebra.products.get((b, a), {}).items():
                key = (t, k)
                out[key] = out.get(key, field.zero) + c * s
        return {k: c for k, c in out.items() if c}

    def d_pair(self, t: int, b: int) -> dict[tuple[int, int], object]:
        """d(g_t * b) = d(g_t) * b + (-1)^{deg g_t} g_t * d(b)."""
        field = self.field
        out = self.act(self.d_gens[t], b)
        sign = -1 if self.generators[t].degree % 2 else 1
        for k, s in self.algebra.differential.get(b, {}).items():
            key = (t, k)
            out[key] = out.get(key, field.zero) + (s if sign == 1 else -s)
        return {k: c for k, c in out.items() if c}


def end_algebra(
    objects: list[FreeModule],
    names: list[str],
    provenance: str,
    window: tuple[int, int] | None = None,
) -> DGAlgebra:
    """The dg endomorphism algebra of free dg modules over one dg algebra.

    A basis element of the (s, t) block sends a generator g of
    ``objects[s]`` to a basis pair (u, b) of ``objects[t]``, with b fixed
    on the right by g's idempotent.  Within a block the basis runs by
    degree, then the degree of g, then u, g and b.  The product is
    composition, the differential is D(f) = d f - (-1)^|f| f d, and the
    idempotent ``names[t]`` is the identity of ``objects[t]``.
    """
    E = objects[0].algebra
    field = E.field
    one = field.one
    right_fixed = {
        name: {b for b in range(E.dimension) if E.multiply({b: one}, e) == {b: one}}
        for name, e in E.idempotents.items()
    }

    entries: list[tuple[int, int, int, int, int]] = []  # (s, t, g, u, b)
    index: dict[tuple[int, int, int, int, int], int] = {}
    labels: list[str] = []
    degrees: list[int] = []
    for s, X in enumerate(objects):
        for t, Y in enumerate(objects):
            block = []
            for g, gen in enumerate(X.generators):
                fixed = right_fixed[gen.vertex]
                for p, (u, b) in enumerate(Y.basis_pairs):
                    if b in fixed:
                        deg = Y.basis_degrees[p] - gen.degree
                        block.append((deg, gen.degree, u, g, b))
            block.sort()
            local: dict[int, int] = {}
            for deg, _, u, g, b in block:
                index[(s, t, g, u, b)] = len(entries)
                entries.append((s, t, g, u, b))
                labels.append(f"[{names[s]}->{names[t]}]{deg}:{local.get(deg, 0)}")
                local[deg] = local.get(deg, 0) + 1
                degrees.append(deg)

    # f after h is nonzero only when f's source generator is h's target
    # generator, so each entry meets only the entries leaving that one.
    by_source: dict[tuple[int, int], list[int]] = {}
    for i, (s, _, g, _, _) in enumerate(entries):
        by_source.setdefault((s, g), []).append(i)
    products: dict[tuple[int, int], Coords] = {}
    for j, (s2, t2, g2, u2, b2) in enumerate(entries):
        for i in by_source.get((t2, u2), ()):
            _, t1, _, u1, b1 = entries[i]
            coords = {
                index[(s2, t1, g2, u1, k)]: c
                for k, c in E.products.get((b1, b2), {}).items()
            }
            if coords:
                products[(i, j)] = coords

    # (f d)(g') collects f(g) b'' over the terms g b'' of d(g').
    d_into: list[dict[int, list]] = []
    for X in objects:
        into: dict[int, list] = {}
        for g2, dg in enumerate(X.d_gens):
            for (g, bb), c in dg.items():
                into.setdefault(g, []).append((g2, bb, c))
        d_into.append(into)
    differential: dict[int, Coords] = {}
    for i, (s, t, g, u, b) in enumerate(entries):
        Y = objects[t]
        coords: Coords = {}
        for (u2, k), c in Y.d_pair(u, b).items():
            key = index[(s, t, g, u2, k)]
            coords[key] = coords.get(key, field.zero) + c
        sign = -1 if degrees[i] % 2 else 1
        for g2, bb, c in d_into[s].get(g, ()):
            for k, ck in E.products.get((b, bb), {}).items():
                key = index[(s, t, g2, u, k)]
                coords[key] = coords.get(key, field.zero) - sign * c * ck
        coords = {k: c for k, c in coords.items() if c}
        if coords:
            differential[i] = coords

    idempotents: dict[str, Coords] = {}
    unit: Coords = {}
    for t, Y in enumerate(objects):
        idempotents[names[t]] = {
            index[(t, t, g, g, b)]: c
            for g, gen in enumerate(Y.generators)
            for b, c in E.idempotents[gen.vertex].items()
        }
        unit.update(idempotents[names[t]])

    out = DGAlgebra(
        field,
        tuple(labels),
        tuple(degrees),
        products,
        differential,
        unit,
        idempotents,
        provenance=provenance,
        window=window,
        complete=all(X.complete for X in objects),
    )
    out.verify()
    return out


def _free_module(E: DGAlgebra, x) -> FreeModule:
    """A complex of projectives as a free dg module over
    ``E = path_algebra_to_dg(A)``: one generator per summand e_v A of x^k,
    in degree k, whose differential is its column of d^k."""
    position: dict[tuple[int, int], int] = {}
    generators = []
    for k in sorted(x.summands):
        for c, v in enumerate(x.summands[k]):
            position[(k, c)] = len(generators)
            generators.append(Generator(f"{k}.{c}", k, v))
    d_gens = []
    for k in sorted(x.summands):
        d = x.differential(k)
        for c in range(len(x.summands[k])):
            d_gens.append({
                (position[(k + 1, r)], q): coeff
                for r, row in enumerate(d)
                for q, coeff in row[c].coeffs.items()
                if coeff
            })
    return FreeModule(E, generators, d_gens)


def dg_end(collection, provenance: str = "") -> DGAlgebra:
    """The dg endomorphism algebra of a list of complexes of projectives.

    Each member is a free dg module over the path algebra, and the result
    is their ``end_algebra``: composition as product, idempotents labelled
    by 1-based position in the collection.
    """
    members = list(collection)
    if not members:
        raise ValueError("empty collection")
    algebra = members[0].algebra
    for m in members:
        if m.algebra is not algebra:
            raise ValueError("complexes live over different algebras")
        if not m.complete:
            raise TruncationUnsound(
                "dg endomorphism algebra needs fully resolved members"
            )
    E = path_algebra_to_dg(algebra)
    return end_algebra(
        [_free_module(E, m) for m in members],
        [str(s + 1) for s in range(len(members))],
        provenance or "dg end",
    )


def cohomology_algebra(E: DGAlgebra) -> DGAlgebra:
    """H^*(E) with zero differential and the induced multiplication.

    Representatives are the first cocycle basis vectors completing the
    boundaries, in the fixed basis order, so the construction is
    deterministic and idempotent: on a zero-differential algebra it returns
    the algebra itself with identical structure constants.

    The result carries ``section_reps`` (E-coordinates of the chosen
    representatives) for ``find_formality_witness``.
    """
    field = E.field
    cohomology = {n: E.cohomology(n) for n in sorted(set(E.degrees))}
    reps: list[tuple[int, Coords]] = []  # (degree, E-coords), degree-ascending
    first: dict[int, int] = {}  # degree -> position of its first rep
    for n, h in cohomology.items():
        idx = E.indices_at(n)
        first[n] = len(reps)
        reps += [(n, {idx[i]: c for i, c in enumerate(z) if c}) for z in h.reps]

    def class_of(coords: Coords) -> Coords | None:
        """H-coordinates of a homogeneous cocycle, None if not a cocycle."""
        if not coords:
            return {}
        degs = {E.degrees[i] for i in coords}
        if len(degs) != 1:
            return None
        n = degs.pop()
        sol = cohomology[n].coordinates(E.local_vector(n, coords))
        if sol is None:
            return None
        return {first[n] + j: c for j, c in enumerate(sol) if c}

    products: dict[tuple[int, int], Coords] = {}
    for i, (ni, ci) in enumerate(reps):
        for j, (nj, cj) in enumerate(reps):
            prod = E.multiply(ci, cj)
            if not prod:
                continue
            cls = class_of(prod)
            if cls is None:
                raise ChainConditionViolated(
                    "product of cocycle representatives is not a cocycle"
                )
            if cls:
                products[(i, j)] = cls

    unit_cls = class_of(E.unit)
    if unit_cls is None:
        raise ChainConditionViolated("the unit is not a cocycle")
    idempotents: dict[str, Coords] = {}
    for name, e in E.idempotents.items():
        cls = class_of(e)
        if cls:
            idempotents[name] = cls

    labels = tuple(f"h{n}:{k}" for n, h in cohomology.items() for k in range(h.dimension))
    H = DGAlgebra(
        field,
        labels,
        tuple(n for n, _ in reps),
        products,
        {},
        unit_cls,
        idempotents,
        provenance=f"cohomology of {E.provenance}" if E.provenance else "cohomology",
        window=E.window,
        complete=E.complete,
    )
    H.section_reps = [coords for _, coords in reps]
    return H


class GradedAlgebraMap:
    """A degree-0 linear map between dg algebras, stored columnwise: the
    image of each source basis element as target coordinates.

    ``images`` is given as one entry per source basis element and kept as
    a dict from source index to its nonzero image; a missing index maps
    to zero.
    """

    def __init__(self, source: DGAlgebra, target: DGAlgebra, images: list[Coords]):
        if len(images) != source.dimension:
            raise ValueError("one image per source basis element required")
        self.source = source
        self.target = target
        self.images: dict[int, Coords] = {}
        for i, img in enumerate(images):
            img = {j: c for j, c in img.items() if c}
            if img:
                self.images[i] = img

    def apply(self, coords: Coords) -> Coords:
        return sparse_apply(self.target.field, self.images, coords)

    def __repr__(self):
        return f"GradedAlgebraMap({self.source!r} -> {self.target!r})"


def verify_dg_quasi_iso(f: GradedAlgebraMap, diagnostics: list | None = None) -> bool:
    """Whether f is a unital multiplicative chain map that induces
    isomorphisms on cohomology in every degree.

    Violations are appended to ``diagnostics`` when a list is supplied; the
    return value alone never raises.
    """
    E, F = f.source, f.target
    notes = diagnostics if diagnostics is not None else []
    ok = True
    field = F.field
    for i, img in f.images.items():
        if any(F.degrees[j] != E.degrees[i] for j in img):
            notes.append(f"image of {E.labels[i]} is not degree-preserving")
            ok = False
    if f.apply(E.unit) != F.unit:
        notes.append("map is not unital")
        ok = False
    for i in range(E.dimension):
        for j in range(E.dimension):
            left = f.apply(E.products.get((i, j), {}))
            right = F.multiply(f.images.get(i, {}), f.images.get(j, {}))
            if left != right:
                notes.append(
                    f"multiplicativity fails on {E.labels[i]} * {E.labels[j]}"
                )
                ok = False
    for i in range(E.dimension):
        left = f.apply(E.differential.get(i, {}))
        right = F.differentiate(f.images.get(i, {}))
        if left != right:
            notes.append(f"chain condition fails on {E.labels[i]}")
            ok = False
    if not ok:
        return False
    # Induced map on cohomology: for each degree, classes of the images of
    # E-cocycle representatives must span H(F) and stay independent.
    he = E.cohomology_dims()
    hf = F.cohomology_dims()
    if he != hf:
        notes.append(f"cohomology dimensions differ: {he} vs {hf}")
        return False
    # Once dimensions agree, f is bijective on H^n exactly when the classes
    # of the images of E's representatives have full rank in H^n(F).
    for n in sorted(he):
        idx = E.indices_at(n)
        target = F.cohomology(n)
        classes = [
            target.coordinates(
                F.local_vector(n, f.apply({idx[i]: c for i, c in enumerate(z) if c}))
            )
            for z in E.cohomology(n).reps
        ]
        if rank(field, classes) != he[n]:
            notes.append(f"induced map on H^{n} is not bijective")
            return False
    return True


def find_formality_witness(E: DGAlgebra) -> GradedAlgebraMap:
    """A verified multiplicative chain section H^*(E) -> E.

    The plain cocycle representatives are tried first; failing that, each
    representative is corrected by an unknown coboundary and the unit and
    multiplicativity constraints are solved in their linearisation, then the
    candidate is verified exactly.  At most ``FORMALITY_BUDGET`` correction
    coefficients are tried.  Raises Inconclusive naming where the attempt
    stopped; that proves nothing about the formality of E.
    """
    H = cohomology_algebra(E)
    field = E.field
    reps: list[Coords] = list(H.section_reps)

    direct = GradedAlgebraMap(H, E, reps)
    if verify_dg_quasi_iso(direct):
        return direct

    # Coboundary corrections: rep_i + sum_t x_{i,t} * (boundary basis of the
    # right degree).  Unknowns are indexed per (rep, boundary vector).
    boundary_vecs: list[list[Coords]] = []
    unknown_count = 0
    for i, rep in enumerate(reps):
        n = H.degrees[i]
        idx = E.indices_at(n)
        mat = E.differential_matrix(n - 1)
        vecs: list[Coords] = []
        if mat:
            span = GaussianSpan(field, len(idx))
            src = E.indices_at(n - 1)
            for col in range(len(src)):
                v = [mat[r][col] for r in range(len(mat))]
                if span.add(v):
                    vecs.append({idx[r]: v[r] for r in range(len(idx)) if v[r]})
        boundary_vecs.append(vecs)
        unknown_count += len(vecs)
    if unknown_count == 0:
        raise Inconclusive(
            "the cocycle section is not multiplicative and there is no "
            "coboundary to correct it with"
        )
    if unknown_count > FORMALITY_BUDGET:
        raise Inconclusive(
            f"{unknown_count} correction unknowns exceed "
            f"FORMALITY_BUDGET = {FORMALITY_BUDGET}"
        )

    offsets = []
    total = 0
    for vecs in boundary_vecs:
        offsets.append(total)
        total += len(vecs)

    rows: list[list] = []
    rhs: list = []

    def add_equation(lin: dict[int, object], const: Coords) -> None:
        """One scalar equation per E-basis coordinate of the residual."""
        support = set(const)
        for term in lin.values():
            support.update(term)
        for g in sorted(support):
            row = zero_vector(field, total)
            for u, term in lin.items():
                c = term.get(g)
                if c:
                    row[u] = row[u] + c
            rows.append(row)
            rhs.append(-(const.get(g, field.zero)))

    # Unit: sum_k gamma_k (rep_k + corr_k) = 1 with gamma = H-coords of 1_H.
    lin: dict[int, Coords] = {}
    const: Coords = {}
    for k, gamma in H.unit.items():
        for g, c in reps[k].items():
            const[g] = const.get(g, field.zero) + gamma * c
        for tindex, vec in enumerate(boundary_vecs[k]):
            u = offsets[k] + tindex
            scaled = {g: gamma * c for g, c in vec.items()}
            lin[u] = scaled
    for g, c in E.unit.items():
        const[g] = const.get(g, field.zero) - c
    add_equation(lin, const)

    # Multiplicativity, linearised: rep_i corr_j + corr_i rep_j
    #   - sum_k gamma_k corr_k = -(rep_i rep_j - sum_k gamma_k rep_k).
    for i in range(H.dimension):
        for j in range(H.dimension):
            gamma = H.products.get((i, j), {})
            defect = E.multiply(reps[i], reps[j])
            for k, c in gamma.items():
                for g, s in reps[k].items():
                    defect[g] = defect.get(g, field.zero) - c * s
            defect = {g: c for g, c in defect.items() if c}
            lin = {}
            for tindex, vec in enumerate(boundary_vecs[j]):
                u = offsets[j] + tindex
                term = E.multiply(reps[i], vec)
                if term:
                    lin[u] = dict(term)
            for tindex, vec in enumerate(boundary_vecs[i]):
                u = offsets[i] + tindex
                term = E.multiply(vec, reps[j])
                if term:
                    prev = lin.get(u, {})
                    merged = dict(prev)
                    for g, c in term.items():
                        merged[g] = merged.get(g, field.zero) + c
                    lin[u] = merged
            for k, c in gamma.items():
                for tindex, vec in enumerate(boundary_vecs[k]):
                    u = offsets[k] + tindex
                    prev = lin.get(u, {})
                    merged = dict(prev)
                    for g, s in vec.items():
                        merged[g] = merged.get(g, field.zero) - c * s
                    lin[u] = merged
            if lin or defect:
                add_equation(lin, defect)

    sol = solve(field, rows, rhs) if rows else zero_vector(field, total)
    if sol is None:
        raise Inconclusive(
            "the linearised correction of the cocycle section has no "
            f"solution (correction unknowns: {unknown_count})"
        )
    images = []
    for i, rep in enumerate(reps):
        img = dict(rep)
        for tindex, vec in enumerate(boundary_vecs[i]):
            c = sol[offsets[i] + tindex]
            if c:
                for g, s in vec.items():
                    img[g] = img.get(g, field.zero) + c * s
        images.append({g: c for g, c in img.items() if c})
    corrected = GradedAlgebraMap(H, E, images)
    if not verify_dg_quasi_iso(corrected):
        raise Inconclusive("the corrected cocycle section fails verification")
    return corrected
