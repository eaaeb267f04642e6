"""Right dg modules, semifree resolutions of simples, and dual dg algebras.

The chain of constructions here: each idempotent of a dg algebra determines a
candidate one-dimensional degree-0 module via a multiplicative character on
the degree-0 part (``simple_dg_modules``); each simple is resolved by a free
dg module built by repeatedly killing cone cohomology classes
(``semifree_resolution``); and the endomorphism dg algebra of the direct sum
of those resolutions is the dual algebra (``koszul_dual``).

Free modules are kept in generator form: a generator ``g`` of degree ``n``
attached to idempotent ``e`` spans ``g * (e E)``, with basis the pairs
``(g, b)`` over the basis elements ``b`` fixed by ``e`` on the left.  All
maps out of a free module are determined by generator images, which is what
makes the dual algebra's multiplication table finite and exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    ChainConditionViolated,
    IdempotentLiftMissing,
    SimpleNotOneDimensional,
)
from ..linalg import Cohomology, GaussianSpan, solve, sparse_apply, sparse_product
from .dga import Coords, DGAlgebra, differential_block


class DGModule:
    """A right dg module over a DGAlgebra, given by structure constants.

    The ``action`` argument maps an algebra basis index ``a`` to a dict
    from module basis index ``i`` to the sparse coordinates of
    ``m_i * b_a``; missing entries mean zero.  It is stored keyed by
    ``(i, a)``, the layout of ``DGAlgebra.products``.
    """

    def __init__(
        self,
        algebra: DGAlgebra,
        labels: tuple[str, ...],
        degrees: tuple[int, ...],
        differential: dict[int, Coords],
        action: dict[int, dict[int, Coords]],
        provenance: str = "",
    ):
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees must have equal length")
        self.algebra = algebra
        self.field = algebra.field
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.differential = {
            i: {j: c for j, c in val.items() if c}
            for i, val in differential.items()
            if any(val.values())
        }
        self.action = {
            (i, a): {j: c for j, c in row.items() if c}
            for a, rows in action.items()
            for i, row in rows.items()
            if any(row.values())
        }
        self.provenance = provenance

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def graded_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for n in self.degrees:
            out[n] = out.get(n, 0) + 1
        return out

    def act(self, coords: Coords, algebra_coords: Coords) -> Coords:
        return sparse_product(self.field, self.action, coords, algebra_coords)

    def differentiate(self, coords: Coords) -> Coords:
        return sparse_apply(self.field, self.differential, coords)

    def verify(self) -> None:
        E = self.algebra
        one = self.field.one
        for (i, a), row in self.action.items():
            for j in row:
                if self.degrees[j] != self.degrees[i] + E.degrees[a]:
                    raise ChainConditionViolated(
                        f"action of {E.labels[a]} does not shift degree "
                        f"by {E.degrees[a]}"
                    )
        for i, val in self.differential.items():
            for j in val:
                if self.degrees[j] != self.degrees[i] + 1:
                    raise ChainConditionViolated(
                        "module differential is not of degree +1"
                    )
            if self.differentiate(val):
                raise ChainConditionViolated("module differential does not square to zero")
        for i in range(self.dimension):
            if self.act({i: one}, E.unit) != {i: one}:
                raise ChainConditionViolated(f"unit does not fix {self.labels[i]}")
        for a in range(E.dimension):
            for b in range(E.dimension):
                prod = E.products.get((a, b), {})
                for i in range(self.dimension):
                    left = self.act(self.act({i: one}, {a: one}), {b: one})
                    right = self.act({i: one}, prod)
                    if left != right:
                        raise ChainConditionViolated(
                            f"associativity of the action fails on "
                            f"({self.labels[i]}, {E.labels[a]}, {E.labels[b]})"
                        )
        for a in range(E.dimension):
            for i in range(self.dimension):
                # d(m a) = d(m) a + (-1)^{|m|} m d(a)
                msign = -1 if self.degrees[i] % 2 else 1
                left = self.differentiate(self.act({i: one}, {a: one}))
                right = self.act(self.differential.get(i, {}), {a: one})
                tail = self.act({i: one}, E.differential.get(a, {}))
                for j, c in tail.items():
                    right[j] = right.get(j, self.field.zero) + (
                        c if msign == 1 else -c
                    )
                right = {j: c for j, c in right.items() if c}
                if left != right:
                    raise ChainConditionViolated(
                        f"Leibniz fails on {self.labels[i]} * {E.labels[a]}"
                    )

    def __repr__(self):
        dims = self.graded_dims()
        shown = ", ".join(f"{n}: {dims[n]}" for n in sorted(dims))
        tag = f" <- {self.provenance}" if self.provenance else ""
        return f"DGModule({shown}){tag}"


def _character(E: DGAlgebra, name: str) -> list:
    """The multiplicative character of the degree-0 part selected by the
    named idempotent: chi(x) is the unique eigenvalue of left multiplication
    by e x e on the corner algebra e E^0 e."""
    field = E.field
    e = E.idempotents[name]
    idx0 = E.indices_at(0)

    def corner(coords: Coords) -> Coords:
        return E.multiply(e, E.multiply(coords, e))

    span = GaussianSpan(field, len(idx0))
    corner_basis: list[Coords] = []
    for g in idx0:
        c = corner({g: field.one})
        if span.add(E.local_vector(0, c)):
            corner_basis.append(c)
    m = len(corner_basis)
    if m == 0:
        raise IdempotentLiftMissing(f"idempotent {name} has a zero corner algebra")

    basis_vecs = [E.local_vector(0, c) for c in corner_basis]
    matrix = [[basis_vecs[j][i] for j in range(m)] for i in range(len(idx0))]

    def in_corner_coords(coords: Coords) -> list:
        sol = solve(field, matrix, E.local_vector(0, coords))
        if sol is None:
            raise IdempotentLiftMissing(
                f"corner of idempotent {name} is not closed under its basis"
            )
        return sol

    def left_mult_matrix(y: Coords) -> list:
        cols = [in_corner_coords(E.multiply(y, c)) for c in corner_basis]
        return [[cols[j][i] for j in range(m)] for i in range(m)]

    def eigenvalue(y: Coords):
        L = left_mult_matrix(y)

        def nilpotent(mat) -> bool:
            power = mat
            for _ in range(m):
                if all(not c for row in power for c in row):
                    return True
                power = [
                    [
                        sum((power[i][t] * mat[t][j] for t in range(m)),
                            field.zero)
                        for j in range(m)
                    ]
                    for i in range(m)
                ]
            return all(not c for row in power for c in row)

        char = field.characteristic
        if char == 0 or m % char:
            trace = sum((L[i][i] for i in range(m)), field.zero)
            c = trace / field.coerce(m)
            shifted = [
                [L[i][j] - (c if i == j else field.zero) for j in range(m)]
                for i in range(m)
            ]
            if nilpotent(shifted):
                return c
            raise SimpleNotOneDimensional(
                f"corner algebra of {name} has no one-dimensional quotient "
                f"character on this element"
            )
        for v in range(char):
            c = field.coerce(v)
            shifted = [
                [L[i][j] - (c if i == j else field.zero) for j in range(m)]
                for i in range(m)
            ]
            if nilpotent(shifted):
                return c
        raise SimpleNotOneDimensional(
            f"corner algebra of {name} is not local over the prime field"
        )

    chi = [field.zero] * E.dimension
    for g in idx0:
        chi[g] = eigenvalue(corner({g: field.one}))
    return chi


def simple_dg_modules(E: DGAlgebra) -> dict[str, DGModule]:
    """One-dimensional degree-0 dg modules, one per idempotent.

    Each module acts through a character of the degree-0 part.  Three
    obstructions are checked exactly: the character must kill the image of
    the differential (else the action would not be a chain map), it must
    kill every degree-0 product of elements of opposite nonzero degrees
    (else the graded action could not be concentrated in one degree), and it
    must be multiplicative.  The first two failures raise
    IdempotentLiftMissing, the last SimpleNotOneDimensional.
    """
    if not E.idempotents:
        raise ValueError("the algebra carries no idempotent family")
    field = E.field
    out: dict[str, DGModule] = {}
    for name in E.idempotents:
        chi = _character(E, name)

        def chi_of(coords: Coords):
            total = field.zero
            for g, c in coords.items():
                if E.degrees[g] == 0:
                    total = total + c * chi[g]
            return total

        for other, e_other in E.idempotents.items():
            expected = field.one if other == name else field.zero
            if chi_of(e_other) != expected:
                raise IdempotentLiftMissing(
                    f"character of {name} does not separate idempotent {other}"
                )
        idx0 = E.indices_at(0)
        for i in idx0:
            for j in idx0:
                left = chi_of(E.products.get((i, j), {}))
                if left != chi[i] * chi[j]:
                    raise SimpleNotOneDimensional(
                        f"character of {name} is not multiplicative on "
                        f"{E.labels[i]} * {E.labels[j]}"
                    )
        for i, di in E.differential.items():
            if E.degrees[i] == -1 and chi_of(di):
                raise IdempotentLiftMissing(
                    f"character of {name} does not vanish on d({E.labels[i]})"
                )
        for a in sorted(set(E.degrees)):
            if a == 0:
                continue
            for i in E.indices_at(a):
                for j in E.indices_at(-a):
                    if chi_of(E.products.get((i, j), {})):
                        raise IdempotentLiftMissing(
                            f"character of {name} sees the degree-{a} part "
                            f"through {E.labels[i]} * {E.labels[j]}"
                        )
        action = {
            a: ({0: {0: chi[a]}} if E.degrees[a] == 0 and chi[a] else {})
            for a in range(E.dimension)
        }
        module = DGModule(
            E,
            (f"S({name})",),
            (0,),
            {},
            action,
            provenance=f"simple at {name}",
        )
        module.character = list(chi)
        module.idempotent_name = name
        out[name] = module
    return out


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    vertex: str  # idempotent name the generator is attached to
    stage: int


class SemifreeResolution:
    """A free resolution of a dg module, kept in generator form.

    ``d_gens[t]`` and ``phi_gens[t]`` fix the differential and the
    comparison map on the t-th generator; everything else follows by
    right-linearity.  The basis is the list of pairs ``(t, b)`` over
    algebra basis elements ``b`` fixed on the left by the generator's
    idempotent.
    """

    def __init__(self, algebra: DGAlgebra, target: DGModule, window):
        self.algebra = algebra
        self.field = algebra.field
        self.target = target
        self.window = window
        self.generators: list[Generator] = []
        self.d_gens: list[dict[tuple[int, int], object]] = []
        self.phi_gens: list[Coords] = []
        self.complete = False
        self._left_fixed: dict[str, list[int]] = {}
        for name, e in algebra.idempotents.items():
            fixed = []
            for b in range(algebra.dimension):
                if algebra.multiply(e, {b: algebra.field.one}) == {b: algebra.field.one}:
                    fixed.append(b)
            self._left_fixed[name] = fixed
        self._rebuild()

    # -- basis bookkeeping --------------------------------------------

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

    # -- structure maps ------------------------------------------------

    def act(self, coords: dict[tuple[int, int], object], a: int):
        """Right action of the a-th algebra basis element on F-coordinates
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
        out: dict[tuple[int, int], object] = {}
        for key, c in self.act(self.d_gens[t], b).items():
            out[key] = out.get(key, field.zero) + c
        sign = -1 if self.generators[t].degree % 2 else 1
        for k, s in self.algebra.differential.get(b, {}).items():
            key = (t, k)
            out[key] = out.get(key, field.zero) + (s if sign == 1 else -s)
        return {k: c for k, c in out.items() if c}

    def phi_pair(self, t: int, b: int) -> Coords:
        """phi(g_t * b) = phi(g_t) * b in the target module."""
        return self.target.act(self.phi_gens[t], {b: self.field.one})

    def verify(self) -> None:
        field = self.field
        for t in range(len(self.generators)):
            dd: dict[tuple[int, int], object] = {}
            for (u, b), c in self.d_gens[t].items():
                for key, s in self.d_pair(u, b).items():
                    dd[key] = dd.get(key, field.zero) + c * s
            if any(dd.values()):
                raise ChainConditionViolated(
                    f"d^2 != 0 on generator {self.generators[t].label}"
                )
            lhs: Coords = {}
            for (u, b), c in self.d_gens[t].items():
                for j, s in self.phi_pair(u, b).items():
                    lhs[j] = lhs.get(j, field.zero) + c * s
            lhs = {j: c for j, c in lhs.items() if c}
            rhs = self.target.differentiate(self.phi_gens[t])
            if lhs != rhs:
                raise ChainConditionViolated(
                    f"comparison map is not a chain map on generator "
                    f"{self.generators[t].label}"
                )

    # -- cone of the comparison map -----------------------------------

    def _cone_data(self):
        """Basis degrees and differential of M (+) F[1], with the comparison
        map folded in.  Returns (degrees, sparse differential columns)."""
        field = self.field
        m_dim = self.target.dimension
        degrees = list(self.target.degrees) + [n - 1 for n in self.basis_degrees]
        diff: dict[int, Coords] = {}
        for i, val in self.target.differential.items():
            diff[i] = dict(val)
        for p, (t, b) in enumerate(self.basis_pairs):
            col: Coords = {}
            for j, c in self.phi_pair(t, b).items():
                col[j] = col.get(j, field.zero) + c
            for key, c in self.d_pair(t, b).items():
                idx = m_dim + self.pair_index[key]
                col[idx] = col.get(idx, field.zero) - c
            col = {j: c for j, c in col.items() if c}
            if col:
                diff[m_dim + p] = col
        return degrees, diff

    def _cone_cohomology(self):
        """dict degree -> list of representative cone coordinate dicts."""
        field = self.field
        degrees, diff = self._cone_data()
        by_degree: dict[int, list[int]] = {}
        for i, n in enumerate(degrees):
            by_degree.setdefault(n, []).append(i)
        out: dict[int, list[Coords]] = {}
        for n in sorted(by_degree):
            src = by_degree[n]
            h = Cohomology(
                field,
                len(src),
                differential_block(field, diff, by_degree.get(n - 1, []), src),
                differential_block(field, diff, src, by_degree.get(n + 1, [])),
            )
            if h.reps:
                out[n] = [{src[i]: c for i, c in enumerate(z) if c} for z in h.reps]
        return out

    # -- materialization ----------------------------------------------

    def as_dgmodule(self) -> DGModule:
        field = self.field
        labels = tuple(
            f"{self.generators[t].label}*{self.algebra.labels[b]}"
            for t, b in self.basis_pairs
        )
        differential: dict[int, Coords] = {}
        for p, (t, b) in enumerate(self.basis_pairs):
            col = {
                self.pair_index[key]: c for key, c in self.d_pair(t, b).items()
            }
            if col:
                differential[p] = col
        action: dict[int, dict[int, Coords]] = {}
        for a in range(self.algebra.dimension):
            rows: dict[int, Coords] = {}
            for p, (t, b) in enumerate(self.basis_pairs):
                img = self.act({(t, b): field.one}, a)
                row = {self.pair_index[key]: c for key, c in img.items()}
                if row:
                    rows[p] = row
            if rows:
                action[a] = rows
        return DGModule(
            self.algebra,
            labels,
            tuple(self.basis_degrees),
            differential,
            action,
            provenance=f"resolution of {self.target.provenance}",
        )

    def __repr__(self):
        dims = self.graded_dims()
        shown = ", ".join(f"{n}: {dims[n]}" for n in sorted(dims))
        flag = "complete" if self.complete else "truncated"
        return f"SemifreeResolution({shown}; {flag})"


def semifree_resolution(
    module: DGModule, E: DGAlgebra, window: tuple[int, int] = (-5, 5)
) -> SemifreeResolution:
    """Resolve a dg module by a free dg module, killing cone classes.

    Each stage picks the extremal degree where the cone of the comparison
    map still has cohomology (smallest degree when the algebra sits in
    non-negative degrees, largest otherwise) and adjoins one generator per
    surviving class component.  The result is complete when the cone is
    globally acyclic; otherwise generation stops once the kill degree can no
    longer influence Hom degrees inside ``window`` and the resolution is
    flagged truncated.
    """
    if module.algebra is not E:
        raise ValueError("module is not over the given algebra")
    if not E.idempotents:
        raise ValueError("resolutions need an idempotent family")
    field = E.field
    for name, e in E.idempotents.items():
        if E.differentiate(e):
            raise IdempotentLiftMissing(
                f"idempotent {name} is not a cocycle; free covers on it are "
                f"not closed under the differential"
            )
        for b in range(E.dimension):
            for prod in (
                E.multiply(e, {b: field.one}),
                E.multiply({b: field.one}, e),
            ):
                if prod and prod != {b: field.one}:
                    raise IdempotentLiftMissing(
                        "the basis is not block-pure for the idempotent family"
                    )
    res = SemifreeResolution(E, module, window)
    rng = E.degree_range() or (0, 0)
    ascending = rng[0] >= 0
    spread = rng[1] - rng[0]
    lo, hi = window
    depth_cap = max(abs(lo), abs(hi)) + spread + 2
    counter = 0
    for stage in range(256):
        classes = res._cone_cohomology()
        if not classes:
            res.complete = True
            break
        n = min(classes) if ascending else max(classes)
        if abs(n) > depth_cap:
            break
        m_dim = module.dimension
        for rep in classes[n]:
            # Split the representative into block-pure pieces.
            for vertex, e in E.idempotents.items():
                m_part: Coords = {}
                f_part: dict[tuple[int, int], object] = {}
                for i, c in rep.items():
                    if i < m_dim:
                        img = module.act({i: c}, e)
                        for j, s in img.items():
                            m_part[j] = m_part.get(j, field.zero) + s
                    else:
                        t, b = res.basis_pairs[i - m_dim]
                        for k, s in E.multiply({b: c}, e).items():
                            key = (t, k)
                            f_part[key] = f_part.get(key, field.zero) + s
                m_part = {j: c for j, c in m_part.items() if c}
                f_part = {k: c for k, c in f_part.items() if c}
                if not m_part and not f_part:
                    continue
                counter += 1
                res.generators.append(
                    Generator(f"g{counter}", n, vertex, stage)
                )
                res.d_gens.append(f_part)
                res.phi_gens.append({j: -c for j, c in m_part.items()})
        res._rebuild()
    res.verify()
    return res


def koszul_dual(
    E: DGAlgebra, window: tuple[int, int] = (-5, 5)
) -> DGAlgebra:
    """The endomorphism dg algebra of the sum of the semifree resolutions of
    the simple dg modules of E.

    The basis consists of the generator-to-basis elementary maps between the
    resolutions; multiplication is composition and is exact.  The result is
    complete when every resolution is; otherwise its cohomology is only
    trustworthy inside ``window``, and the window is recorded on the output.
    """
    simples = simple_dg_modules(E)
    resolutions = {
        name: semifree_resolution(simples[name], E, window) for name in simples
    }
    field = E.field
    names = list(simples)

    entries: list[tuple[str, str, int, int]] = []  # (s, t, gen idx, basis idx)
    index: dict[tuple[str, str, int, int], int] = {}
    labels: list[str] = []
    degrees: list[int] = []
    for s in names:
        for t in names:
            Fs, Ft = resolutions[s], resolutions[t]
            block: list[tuple[int, int, int]] = []
            for gi, gen in enumerate(Fs.generators):
                e_fix = E.idempotents[gen.vertex]
                for p, (u, b) in enumerate(Ft.basis_pairs):
                    if E.multiply({b: field.one}, e_fix) == {b: field.one}:
                        deg = Ft.basis_degrees[p] - gen.degree
                        block.append((deg, gi, p))
            block.sort()
            for deg, gi, p in block:
                index[(s, t, gi, p)] = len(entries)
                entries.append((s, t, gi, p))
                labels.append(f"[{s}->{t}]{deg}:{gi}.{p}")
                degrees.append(deg)

    products: dict[tuple[int, int], Coords] = {}
    for gj, (s2, t2, g2, p2) in enumerate(entries):
        u2, b2 = resolutions[t2].basis_pairs[p2]
        for gi, (s1, t1, g1, p1) in enumerate(entries):
            # composite: entry_i applied after entry_j
            if t2 != s1:
                continue
            u1, b1 = resolutions[t1].basis_pairs[p1]
            if u2 != g1:
                continue
            coords: Coords = {}
            for k, c in E.products.get((b1, b2), {}).items():
                gk = index[(s2, t1, g2, resolutions[t1].pair_index[(u1, k)])]
                coords[gk] = coords.get(gk, field.zero) + c
            if coords:
                products[(gi, gj)] = coords

    differential: dict[int, Coords] = {}
    for gi, (s, t, g, p) in enumerate(entries):
        Fs, Ft = resolutions[s], resolutions[t]
        u, b = Ft.basis_pairs[p]
        coords: Coords = {}
        for key, c in Ft.d_pair(u, b).items():
            gk = index[(s, t, g, Ft.pair_index[key])]
            coords[gk] = coords.get(gk, field.zero) + c
        sign = -1 if degrees[gi] % 2 else 1
        for g2 in range(len(Fs.generators)):
            for (gg, bb), c in Fs.d_gens[g2].items():
                if gg != g:
                    continue
                img = E.products.get((b, bb), {})
                for k, s_c in img.items():
                    gk = index[(s, t, g2, Ft.pair_index[(u, k)])]
                    contrib = c * s_c
                    coords[gk] = coords.get(gk, field.zero) - (
                        contrib if sign == 1 else -contrib
                    )
        coords = {k: c for k, c in coords.items() if c}
        if coords:
            differential[gi] = coords

    idempotents: dict[str, Coords] = {}
    unit: Coords = {}
    for t in names:
        Ft = resolutions[t]
        coords: Coords = {}
        for gi, gen in enumerate(Ft.generators):
            for b, c in E.idempotents[gen.vertex].items():
                p = Ft.pair_index[(gi, b)]
                coords[index[(t, t, gi, p)]] = c
        idempotents[t] = coords
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
        provenance=f"dual of {E.provenance}" if E.provenance else "dual",
        window=window,
        complete=all(r.complete for r in resolutions.values()),
    )
    out.verify()
    out.resolutions = resolutions
    return out
