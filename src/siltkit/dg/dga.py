"""Finite-dimensional differential graded algebras by structure constants.

A DGAlgebra is a graded basis with integer degrees, a multiplication table,
a degree +1 differential, a unit, and a distinguished family of orthogonal
idempotents.  Elements are sparse coordinate dictionaries over the basis.

The constructors that matter are ``end_algebra`` (the endomorphism dg
algebra of a family of free dg modules, with composition as product) and
the algebras E induces on chosen vectors, recorded as ``section_reps``:
``cohomology_algebra`` on cocycle representatives, and the one-sided
models the Koszul check dualizes, ``smart_truncation`` and
``positive_model``.  Free modules are kept in generator form
(``FreeModule``): a generator ``g`` of degree ``n`` attached to idempotent
``e`` spans ``g * (e E)``, and every map out of a free module is fixed by
its generator images, which makes the End finite and exact.  ``dg_end``
reads each complex of projectives as a free dg module over the path
algebra, one generator per summand, and ``dgmod.koszul_dual`` takes the
End of the semifree resolutions of the simple dg modules, which adopt a
generator only for a cone class the earlier ones have not killed; both
are ``end_algebra``.  The Koszul check builds no dual: it reads the
dual's cohomology as Ext of the simples (``dgmod.ext_algebra``), and
``koszul_dual`` is the referee for that.  Everything a constructor emits
passes ``verify``: d^2 = 0, the graded Leibniz rule, associativity,
unitality, and the idempotent axioms are checked exactly.  ``verify``
reads the product table by rows, e_m e_k for fixed m, and compares whole
rows, so it costs the nonzero products it reads.  It covers the same basis
pairs and triples as a check of each one, exactly, and a broken row names
the first pair or triple that check would.

Cohomology (dimensions, representatives, class coordinates) comes from
``linalg.Cohomology`` on the differentials of the basis elements of the
degree below and of the degree itself, in global basis indices, and each
degree's is kept on the algebra.

Maps between dg algebras are ``GradedAlgebraMap``s, audited exactly by
``verify_dg_quasi_iso``.  ``find_formality_witness`` checks that the cocycle
section H^*(E) -> E is a quasi-isomorphism; when it is not, it names the
first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ChainConditionViolated, Inconclusive
from ..linalg import (
    Coords,
    Cohomology,
    apply_to_row,
    product_rows,
    rank,
    row_combination,
    sparse_apply,
    sparse_combination,
    sparse_product,
    split_rows,
    sum_terms,
)


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
    """A dg algebra with a fixed ordered graded basis, exact in every
    degree: no constructor builds one from a truncated resolution."""

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
        self._cohomology: dict[int, Cohomology] = {}

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

    # -- cohomology ----------------------------------------------------

    def differential_rank(self, n: int) -> int:
        return rank(self.field, self.cohomology(n).out)

    def cohomology(self, n: int) -> Cohomology:
        """H^n, in global basis indices, built once per degree: the
        algebra is never changed after it is built."""
        known = self._cohomology
        if n not in known:
            here, d = self.indices_at(n), self.differential
            known[n] = Cohomology(
                self.field,
                here,
                [d.get(i, {}) for i in self.indices_at(n - 1)],
                [d.get(i, {}) for i in here],
            )
        return known[n]

    def cohomology_dims(self) -> dict[int, int]:
        dims = {n: self.cohomology(n).dimension for n in sorted(set(self.degrees))}
        return {n: d for n, d in dims.items() if d}

    # -- structural verification ---------------------------------------

    def verify(self) -> None:
        """Raises ChainConditionViolated on any broken axiom.

        Leibniz compares one row j -> d(e_i e_j) per i, associativity one
        row k -> (e_i e_j) e_k per product pair (i, j); the triples where
        e_i e_j = 0 need e_i (e_j e_k) = 0, read off the left factors of
        e_j e_k.  A broken row names its first broken pair or triple in the
        order of a check of each one.
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
        products, d = self.products, self.differential
        rows, cols = product_rows(products)
        single, rest = split_rows(f, rows)
        d_into: dict[int, list] = {}  # m -> [(j, c)] with d(e_j) = c e_m + ...
        for j, dj in d.items():
            for m, c in dj.items():
                d_into.setdefault(m, []).append((j, c))
        empty: dict = {}
        for i in range(dim):
            row = rows.get(i, empty)
            left = apply_to_row(f, d, single.get(i, empty), rest.get(i, empty))
            terms: dict[int, list] = {}
            for m, c in d.get(i, empty).items():
                for j, mj in rows.get(m, empty).items():
                    terms.setdefault(j, []).append((c, mj))
            odd = self.degrees[i] % 2
            for m, im in row.items():
                for j, c in d_into.get(m, ()):
                    terms.setdefault(j, []).append((-c if odd else c, im))
            right = sum_terms(f, terms)
            if left != right:
                by_left = _index(products)
                js = _factors(by_left, (i, *d.get(i, ())))
                js |= _factors(_index((m, j) for j, dj in d.items() for m in dj),
                               by_left.get(i, ()))
                j = next(j for j in js if left.get(j) != right.get(j))
                raise ChainConditionViolated(
                    f"Leibniz fails on {self.labels[i]} * {self.labels[j]}"
                )
        for (i, j), ij in products.items():
            left = row_combination(f, rows, ij)
            right = apply_to_row(f, rows.get(i, empty), single.get(j, empty), rest.get(j, empty))
            if left != right:
                ks = _factors(_index(products), (j, *ij))
                self._not_associative(i, j, next(
                    k for k in ks if left.get(k) != right.get(k)
                ))
        keyed: dict[int, set[int]] = {}  # j -> {i : (i, j) is a key}
        for i, j in products:
            keyed.setdefault(j, set()).add(i)
        for (j, k), jk in products.items():
            known = keyed.get(j, frozenset())
            if len(jk) == 1:
                (m,) = jk
                if cols.get(m, empty).keys() <= known:
                    continue
            else:
                outside = set().union(*(cols.get(m, ()) for m in jk)) - known
                if not any(sparse_apply(f, rows[i], jk) for i in outside):
                    continue
            by_right = _index((m, i) for i, m in products)
            self._not_associative(next(
                i for i in _factors(by_right, jk)
                if (i, j) not in products and sparse_apply(f, rows.get(i, empty), jk)
            ), j, k)
        unit_left = row_combination(f, rows, self.unit)  # k -> 1 e_k
        unit_right = row_combination(f, cols, self.unit)  # k -> e_k 1
        for i in range(dim):
            e_i = {i: f.one}
            if unit_left.get(i) != e_i:
                raise ChainConditionViolated(f"1 * {self.labels[i]} != {self.labels[i]}")
            if unit_right.get(i) != e_i:
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

    def _not_associative(self, i: int, j: int, k: int):
        raise ChainConditionViolated(
            f"associativity fails on "
            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
        )

    @cached_property
    def blocks(self) -> list[tuple[str, str] | None]:
        """The (left, right) idempotent names of the block e E e' holding
        each basis element, or None for an element in no single block: the
        first e with e b = b and the first e' with b e' = b, read off the
        rows and columns of the product table."""
        f = self.field
        rows, cols = product_rows(self.products)
        family = [
            (name, row_combination(f, rows, e), row_combination(f, cols, e))
            for name, e in self.idempotents.items()
        ]
        out: list[tuple[str, str] | None] = []
        for i in range(self.dimension):
            unit = {i: f.one}
            left = next((n for n, by_e, _ in family if by_e.get(i) == unit), None)
            right = next((n for n, _, e_by in family if e_by.get(i) == unit), None)
            out.append(None if left is None or right is None else (left, right))
        return out

    @cached_property
    def cocycles0_by_left(self) -> dict[str, list[Coords]]:
        """A basis of Z^0 grouped by the left idempotent of its block.  On a
        block-pure basis with cocycle idempotents d keeps every block, so
        each kernel-basis vector lies in one."""
        out: dict[str, list[Coords]] = {name: [] for name in self.idempotents}
        for z in self.cohomology(0).cocycles:
            out[self.blocks[min(z)][0]].append(z)
        return out

    def __repr__(self):
        dims = self.graded_dims()
        shown = ", ".join(f"{n}: {dims[n]}" for n in sorted(dims))
        tag = f" <- {self.provenance}" if self.provenance else ""
        return f"DGAlgebra({shown}){tag}"


def path_algebra_to_dg(algebra) -> DGAlgebra:
    """A path algebra quotient viewed as a dg algebra in degree 0, built
    once per algebra and kept as its ``dg_view``."""
    if algebra.dg_view is None:
        field = algebra.field
        unit = {algebra.idempotent_index[v]: field.one for v in algebra.quiver.vertices}
        idempotents = {
            v: {algebra.idempotent_index[v]: field.one} for v in algebra.quiver.vertices
        }
        algebra.dg_view = DGAlgebra(
            field,
            tuple(str(p) for p in algebra.basis),
            (0,) * algebra.dimension,
            algebra.products,
            {},
            unit,
            idempotents,
            provenance="path algebra",
        )
    return algebra.dg_view


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
    right-linearity.  It is never truncated.
    """

    def __init__(
        self,
        algebra: DGAlgebra,
        generators=(),
        d_gens=(),
    ):
        self.algebra = algebra
        self.field = algebra.field
        self.generators: list[Generator] = list(generators)
        self.d_gens: list[dict[tuple[int, int], object]] = list(d_gens)
        self._left_fixed: dict[str, list[int]] = {name: [] for name in algebra.idempotents}
        for b, block in enumerate(algebra.blocks):
            if block:
                self._left_fixed[block[0]].append(b)
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


def end_algebra(objects: list[FreeModule], names: list[str], provenance: str) -> DGAlgebra:
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

    entries: list[tuple[int, int, int, int, int]] = []  # (s, t, g, u, b)
    index: dict[tuple[int, int, int, int, int], int] = {}
    labels: list[str] = []
    degrees: list[int] = []
    for s, X in enumerate(objects):
        for t, Y in enumerate(objects):
            block = []
            for g, gen in enumerate(X.generators):
                for p, (u, b) in enumerate(Y.basis_pairs):
                    if E.blocks[b][1] == gen.vertex:
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
    E = path_algebra_to_dg(algebra)
    return end_algebra(
        [_free_module(E, m) for m in members],
        [str(s + 1) for s in range(len(members))],
        provenance or "dg end",
    )


def _induced_algebra(
    E: DGAlgebra, vectors: list[Coords], labels: list[str], kind: str, read=None
) -> DGAlgebra:
    """The dg algebra on ``vectors``, homogeneous E-coordinates, with E's
    product, differential, unit and idempotents taken onto them and read
    back by ``read``, or else exactly on the span: on the largest key of
    each vector, which must hold 1 there and be in no other vector.  A
    result that cannot be read back raises ChainConditionViolated.  An
    idempotent read back as zero is dropped, and the result carries the
    vectors as ``section_reps``.  Only pairs whose supports compose are
    multiplied, as in ``verify``; every other product is 0."""
    if read is None:
        owner = {max(v): t for t, v in enumerate(vectors)}

        def read(x: Coords) -> Coords | None:
            out = {owner[k]: c for k, c in x.items() if k in owner}
            span = sparse_combination(E.field, ((c, vectors[t]) for t, c in out.items()))
            return out if span == x else None

    def back(x: Coords, what: str) -> Coords:
        out = read(x) if x else {}
        if out is None:
            raise ChainConditionViolated(f"{what} leaves the span of the chosen vectors")
        return out

    holders = _index((k, t) for t, v in enumerate(vectors) for k in v)
    by_left = _index(E.products)
    products: dict[tuple[int, int], Coords] = {}
    differential: dict[int, Coords] = {}
    for i, vi in enumerate(vectors):
        for j in sorted(_factors(holders, _factors(by_left, vi))):
            prod = back(E.multiply(vi, vectors[j]), f"{labels[i]} * {labels[j]}")
            if prod:
                products[(i, j)] = prod
        dv = back(E.differentiate(vi), f"d({labels[i]})")
        if dv:
            differential[i] = dv
    idempotents = {name: back(e, f"idempotent {name}") for name, e in E.idempotents.items()}
    out = DGAlgebra(
        E.field,
        tuple(labels),
        tuple(E.degrees[min(v)] for v in vectors),
        products,
        differential,
        back(E.unit, "the unit"),
        {name: e for name, e in idempotents.items() if e},
        provenance=f"{kind} of {E.provenance}" if E.provenance else kind,
    )
    out.section_reps = vectors
    return out


def cohomology_algebra(E: DGAlgebra) -> DGAlgebra:
    """H^*(E) with zero differential and the induced multiplication.

    Representatives are the first cocycle basis vectors completing the
    boundaries, in the fixed basis order, so the construction is
    deterministic and idempotent: on a zero-differential algebra it returns
    the algebra itself with identical structure constants.  Results are
    read back as classes.
    """
    cohomology = {n: E.cohomology(n) for n in sorted(set(E.degrees))}
    vectors: list[Coords] = []
    labels: list[str] = []
    first: dict[int, int] = {}  # degree -> position of its first rep
    for n, h in cohomology.items():
        first[n] = len(vectors)
        vectors += h.reps
        labels += [f"h{n}:{k}" for k in range(len(h.reps))]

    def class_of(coords: Coords) -> Coords | None:
        """H-coordinates of a homogeneous cocycle, None if not a cocycle."""
        degs = {E.degrees[i] for i in coords}
        if len(degs) != 1:
            return None
        n = degs.pop()
        sol = cohomology[n].coordinates(coords)
        return None if sol is None else {first[n] + j: c for j, c in sol.items()}

    return _induced_algebra(E, vectors, labels, "cohomology", class_of)


def smart_truncation(E: DGAlgebra) -> DGAlgebra:
    """The sub dg algebra of E on its basis elements of negative degree
    and the kernel basis of d on E^0, whose largest key is its free
    column.  Its inclusion is a quasi-isomorphism when H^{>0}(E) = 0, the
    presilting condition; otherwise Inconclusive is raised.  Its degree-0
    part Z^0 acts on each simple through H^0(E) (Koenig–Yang)."""
    for n in sorted(set(E.degrees)):
        if n > 0 and E.cohomology(n).dimension:
            raise Inconclusive(
                f"H^{n} has dimension {E.cohomology(n).dimension}, so the smart "
                f"truncation is not quasi-isomorphic to the algebra"
            )
    negative = [i for i, n in enumerate(E.degrees) if n < 0]
    cocycles = E.cohomology(0).cocycles
    vectors = [{i: E.field.one} for i in negative] + cocycles
    labels = [E.labels[i] for i in negative] + [f"z0:{k}" for k in range(len(cocycles))]
    return _induced_algebra(E, vectors, labels, "truncation")


def positive_model(F: DGAlgebra) -> DGAlgebra:
    """The sub dg algebra of F on its idempotents, the degree-1 basis
    elements off the pivots of B^1 (a block-pure complement of B^1 in F^1)
    and the basis elements of degree 2 or more.  Its inclusion is a
    quasi-isomorphism when H^{<0}(F) = 0 and the idempotent classes are a
    basis of H^0(F), the simple-minded conditions with scalar
    endomorphisms; otherwise Inconclusive is raised (Keller–Nicolás)."""
    for n in sorted(set(F.degrees)):
        if n < 0 and F.cohomology(n).dimension:
            raise Inconclusive(
                f"H^{n} has dimension {F.cohomology(n).dimension}, so the "
                f"positive model is not quasi-isomorphic to the algebra"
            )
    h0 = F.cohomology(0)
    classes = [h0.coordinates(e) for e in F.idempotents.values()]
    if None in classes or not h0.dimension == len(classes) == rank(F.field, classes):
        raise Inconclusive(
            f"H^0 has dimension {h0.dimension} and is not spanned by the "
            f"classes of the {len(classes)} idempotents"
        )
    pivots = F.cohomology(1).boundaries.rows
    kept = [i for i, n in enumerate(F.degrees) if n > 1 or (n == 1 and i not in pivots)]
    vectors = [*F.idempotents.values(), *({i: F.field.one} for i in kept)]
    labels = [f"e{name}" for name in F.idempotents] + [F.labels[i] for i in kept]
    return _induced_algebra(F, vectors, labels, "positive model")


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
    # f(e_i e_j) can be nonzero only on a product pair of E, and
    # f(e_i) f(e_j) only where the images meet a product of F.
    pairs = {key for key, val in E.products.items() if val}
    rows, _ = product_rows(F.products)
    preimages = _index((a, i) for i, img in f.images.items() for a in img)
    for i, img in f.images.items():
        for a in img:
            for b in rows.get(a, ()):
                pairs.update((i, j) for j in preimages.get(b, ()))
    for i, j in sorted(pairs):
        left = f.apply(E.products.get((i, j), {}))
        right = F.multiply(f.images.get(i, {}), f.images.get(j, {}))
        if left != right:
            notes.append(f"multiplicativity fails on {E.labels[i]} * {E.labels[j]}")
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
        target = F.cohomology(n)
        classes = [target.coordinates(f.apply(z)) for z in E.cohomology(n).reps]
        if rank(field, classes) != he[n]:
            notes.append(f"induced map on H^{n} is not bijective")
            return False
    return True


def find_formality_witness(E: DGAlgebra) -> GradedAlgebraMap:
    """The cocycle section H^*(E) -> E, verified as a dg quasi-isomorphism.

    Raises Inconclusive naming the first violation when the section is not
    one; that proves nothing about the formality of E.
    """
    H = cohomology_algebra(E)
    section = GradedAlgebraMap(H, E, H.section_reps)
    notes: list[str] = []
    if not verify_dg_quasi_iso(section, notes):
        raise Inconclusive(f"the cocycle section fails: {notes[0]}")
    return section
