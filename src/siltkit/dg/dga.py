"""Finite-dimensional differential graded algebras by structure constants.

A DGAlgebra is a graded basis with integer degrees, a multiplication table,
a degree +1 differential, a unit, and a distinguished family of orthogonal
idempotents.  Elements are sparse coordinate dictionaries over the basis.

The two constructors that matter are ``dg_end`` (the endomorphism dg algebra
of a collection of complexes, with composition as product) and
``cohomology_algebra`` (the induced graded algebra on chosen cocycle
representatives).  Everything a constructor emits passes ``verify``:
d^2 = 0, the graded Leibniz rule, associativity, unitality, and the
idempotent axioms are checked exactly.

Cohomology (dimensions, representatives, class coordinates) comes from
``linalg.Cohomology`` on the differential matrices into and out of each
degree.
"""

from __future__ import annotations

from ..errors import ChainConditionViolated, PositiveCohomology, TruncationUnsound
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


def dg_end(collection, provenance: str = "") -> DGAlgebra:
    """The dg endomorphism algebra of a list of complexes of projectives.

    The basis is the union of the pairwise Hom-complex bases; multiplication
    is composition; the idempotents (labelled by 1-based position in the
    collection) are the identity maps of the members.
    """
    from ..homotopy.homs import HomComplex

    members = list(collection)
    if not members:
        raise ValueError("empty collection")
    algebra = members[0].algebra
    field = algebra.field
    for m in members:
        if not m.complete:
            raise TruncationUnsound(
                "dg endomorphism algebra needs fully resolved members"
            )

    hcs: dict[tuple[int, int], HomComplex] = {}
    for s in range(len(members)):
        for t in range(len(members)):
            hcs[(s, t)] = HomComplex(members[s], members[t])

    # Global basis: blocks ordered by (source, target), then by hom degree,
    # then by the hom complex's own basis order.
    entries: list[tuple[int, int, int, int]] = []  # (s, t, n, local index)
    global_index: dict[tuple[int, int, int, int], int] = {}
    labels: list[str] = []
    degrees: list[int] = []
    for s in range(len(members)):
        for t in range(len(members)):
            hc = hcs[(s, t)]
            for n in sorted(hc.basis):
                for loc in range(len(hc.basis[n])):
                    global_index[(s, t, n, loc)] = len(entries)
                    entries.append((s, t, n, loc))
                    labels.append(f"[{s + 1}->{t + 1}]{n}:{loc}")
                    degrees.append(n)

    products: dict[tuple[int, int], Coords] = {}
    for gi, (s1, t1, n1, l1) in enumerate(entries):
        k1, r1, c1, q1 = hcs[(s1, t1)].basis[n1][l1]
        for gj, (s2, t2, n2, l2) in enumerate(entries):
            # product = entry_i composed after entry_j
            if t2 != s1:
                continue
            k2, r2, c2, q2 = hcs[(s2, t2)].basis[n2][l2]
            if k1 != k2 + n2 or c1 != r2:
                continue
            coords: Coords = {}
            for q, coeff in algebra.products.get((q1, q2), {}).items():
                loc = hcs[(s2, t1)].index[n1 + n2][(k2, r1, c2, q)]
                gk = global_index[(s2, t1, n1 + n2, loc)]
                coords[gk] = coords.get(gk, field.zero) + coeff
            if coords:
                products[(gi, gj)] = coords

    differential: dict[int, Coords] = {}
    for gi, (s, t, n, l) in enumerate(entries):
        hc = hcs[(s, t)]
        mat = hc.differential_matrix(n)
        coords: Coords = {}
        for row in range(len(mat)):
            c = mat[row][l]
            if c:
                gk = global_index[(s, t, n + 1, row)]
                coords[gk] = c
        if coords:
            differential[gi] = coords

    idempotents: dict[str, Coords] = {}
    unit: Coords = {}
    for t, member in enumerate(members):
        coords: Coords = {}
        hc = hcs[(t, t)]
        for k, vs in member.summands.items():
            for i, v in enumerate(vs):
                q = algebra.idempotent_index[v]
                loc = hc.index[0][(k, i, i, q)]
                gk = global_index[(t, t, 0, loc)]
                coords[gk] = field.one
        idempotents[str(t + 1)] = coords
        for gk, c in coords.items():
            unit[gk] = c

    out = DGAlgebra(
        field,
        tuple(labels),
        tuple(degrees),
        products,
        differential,
        unit,
        idempotents,
        provenance=provenance or "dg end",
    )
    out.verify()
    return out


def cohomology_algebra(E: DGAlgebra) -> DGAlgebra:
    """H^*(E) with zero differential and the induced multiplication.

    Representatives are the first cocycle basis vectors completing the
    boundaries, in the fixed basis order, so the construction is
    deterministic and idempotent: on a zero-differential algebra it returns
    the algebra itself with identical structure constants.

    The result carries ``section_reps`` (E-coordinates of the chosen
    representatives) and ``parent`` for downstream witnesses.
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
    H.parent = E
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


def identity_dg_map(E: DGAlgebra) -> GradedAlgebraMap:
    return GradedAlgebraMap(
        E, E, [{i: E.field.one} for i in range(E.dimension)]
    )


def verify_dg_quasi_iso(
    f: GradedAlgebraMap,
    E: DGAlgebra | None = None,
    F: DGAlgebra | None = None,
    diagnostics: list | None = None,
) -> bool:
    """Whether f is a unital multiplicative chain map that induces
    isomorphisms on cohomology in every degree.

    Violations are appended to ``diagnostics`` when a list is supplied; the
    return value alone never raises.
    """
    E = E if E is not None else f.source
    F = F if F is not None else f.target
    notes = diagnostics if diagnostics is not None else []
    ok = True
    if f.source is not E or f.target is not F:
        notes.append("map endpoints disagree with the supplied algebras")
        ok = False
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


def find_formality_witness(
    E: DGAlgebra, budget: int = 64
) -> GradedAlgebraMap | None:
    """A verified multiplicative chain section H^*(E) -> E, or None.

    The plain cocycle representatives are tried first; failing that, each
    representative is corrected by an unknown coboundary and the unit and
    multiplicativity constraints are solved in their linearisation, then the
    candidate is verified exactly.  ``budget`` caps the number of free
    correction coefficients; exhaustion returns None, which proves nothing.
    """
    H = cohomology_algebra(E)
    field = E.field
    reps: list[Coords] = list(H.section_reps)

    def build(images: list[Coords]) -> GradedAlgebraMap | None:
        cand = GradedAlgebraMap(H, E, images)
        if verify_dg_quasi_iso(cand, H, E):
            return cand
        return None

    direct = build(reps)
    if direct is not None:
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
    if unknown_count == 0 or unknown_count > budget:
        return None

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
        return None
    images = []
    for i, rep in enumerate(reps):
        img = dict(rep)
        for tindex, vec in enumerate(boundary_vecs[i]):
            c = sol[offsets[i] + tindex]
            if c:
                for g, s in vec.items():
                    img[g] = img.get(g, field.zero) + c * s
        images.append({g: c for g, c in img.items() if c})
    return build(images)


def smart_truncation(E: DGAlgebra) -> tuple[DGAlgebra, GradedAlgebraMap]:
    """The sub-dg-algebra of negative-degree elements and degree-0 cocycles,
    with its inclusion.  Requires H^n(E) = 0 for all n > 0, which makes the
    inclusion a quasi-isomorphism."""
    field = E.field
    for n, dim in E.cohomology_dims().items():
        if n > 0 and dim:
            raise PositiveCohomology(
                f"cohomology survives in degree {n}", degree=n
            )
    neg = [i for i, d in enumerate(E.degrees) if d < 0]
    idx0 = E.indices_at(0)
    z0 = E.cohomology(0).cocycles
    # New basis vectors in E-coordinates.
    new_vectors: list[Coords] = [{g: field.one} for g in neg]
    for z in z0:
        new_vectors.append({idx0[i]: c for i, c in enumerate(z) if c})
    labels = tuple(
        [E.labels[g] for g in neg] + [f"z0:{k}" for k in range(len(z0))]
    )
    degrees = tuple([E.degrees[g] for g in neg] + [0] * len(z0))

    def to_sub(coords: Coords) -> Coords:
        """Express an element of the subalgebra in the new basis."""
        if not coords:
            return {}
        remaining = dict(coords)
        out: Coords = {}
        for t, g in enumerate(neg):
            c = remaining.pop(g, field.zero)
            if c:
                out[t] = c
        if not remaining:
            return out
        # Degree-0 leftover must be a combination of the chosen cocycles.
        vec = E.local_vector(0, remaining)
        matrix = [[z0[j][i] for j in range(len(z0))] for i in range(len(idx0))]
        sol = solve(field, matrix, vec)
        if sol is None:
            raise ChainConditionViolated(
                "truncation is not closed (degree-0 non-cocycle appeared)"
            )
        for j, c in enumerate(sol):
            if c:
                out[len(neg) + j] = c
        return out

    products: dict[tuple[int, int], Coords] = {}
    for i, vi in enumerate(new_vectors):
        for j, vj in enumerate(new_vectors):
            prod = E.multiply(vi, vj)
            if prod:
                products[(i, j)] = to_sub(prod)
    differential: dict[int, Coords] = {}
    for i, vi in enumerate(new_vectors):
        dv = E.differentiate(vi)
        if dv:
            differential[i] = to_sub(dv)
    unit = to_sub(E.unit)
    idempotents = {name: to_sub(e) for name, e in E.idempotents.items()}
    sub = DGAlgebra(
        field,
        labels,
        degrees,
        products,
        differential,
        unit,
        idempotents,
        provenance=f"truncation of {E.provenance}" if E.provenance else "truncation",
        window=E.window,
        complete=E.complete,
    )
    inclusion = GradedAlgebraMap(sub, E, new_vectors)
    return sub, inclusion
