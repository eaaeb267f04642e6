"""Right dg modules, semifree resolutions of simples, and dual dg algebras.

The chain of constructions here: each idempotent of a dg algebra determines a
candidate one-dimensional degree-0 module via a multiplicative character on
the degree-0 part (``simple_dg_modules``); each simple is resolved by a free
dg module built by repeatedly killing cone cohomology classes
(``semifree_resolution``); and the endomorphism dg algebra of the direct sum
of those resolutions is the dual algebra (``koszul_dual``).

A ``DGModule`` is structure-constant data only: the simples are correct by
construction once their character passes the checks in
``simple_dg_modules``.  A ``SemifreeResolution`` is a ``dga.FreeModule``
with a comparison map to the module it resolves; ``verify`` checks d^2 = 0
and the chain condition of that map on every generator.  The dual is
``dga.end_algebra`` of the resolutions: the same End construction as
``dg_end``.
"""

from __future__ import annotations

from ..errors import (
    ChainConditionViolated,
    IdempotentLiftMissing,
    SimpleNotOneDimensional,
)
from ..linalg import Cohomology, GaussianSpan, solve, sparse_apply, sparse_product
from .dga import (
    Coords,
    DGAlgebra,
    FreeModule,
    Generator,
    differential_block,
    end_algebra,
)


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
        out[name] = DGModule(
            E, (f"S({name})",), (0,), {}, action, provenance=f"simple at {name}"
        )
    return out


class SemifreeResolution(FreeModule):
    """A free resolution of a dg module, kept in generator form.

    ``phi_gens[t]`` fixes the comparison map to the target module on the
    t-th generator; with ``d_gens`` it determines everything else by
    right-linearity.
    """

    def __init__(self, algebra: DGAlgebra, target: DGModule, window):
        super().__init__(algebra, complete=False)
        self.target = target
        self.window = window
        self.phi_gens: list[Coords] = []

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
    for _ in range(256):
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
                res.generators.append(Generator(f"g{counter}", n, vertex))
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
    return end_algebra(
        [semifree_resolution(M, E, window) for M in simples.values()],
        list(simples),
        f"dual of {E.provenance}" if E.provenance else "dual",
        window,
    )
