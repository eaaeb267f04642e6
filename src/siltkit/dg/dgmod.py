"""Simple dg modules as characters, their semifree resolutions, and dual
dg algebras.

The chain of constructions here: each idempotent e of a dg algebra E
determines a candidate one-dimensional degree-0 module, given by its
character chi on E^0 (``simple_dg_modules``).  E^0 acts on it through the
top of the corner algebra e E^0 e, the corner modulo its radical.  On a
block-pure basis the corner is the degree-0 part of the (e, e) block of
``DGAlgebra.blocks``, and chi is read off its top by ``linalg.top`` in
E's own basis indices, the routine the homotopy layer reads H^0 End
through.  Each simple is resolved by a free dg module built by
repeatedly killing cone cohomology classes until the cone is acyclic,
within a stage cap set by the caller (``semifree_resolution``); the
cone's ``linalg.Cohomology`` and its classes are kept in cone indices.
The endomorphism dg algebra of the direct sum of those resolutions is
the dual algebra (``koszul_dual``).  Its cohomology is Ext of the
simples, read off the small complex Hom(Q, S) of resolutions into
simples, whose classes lift to chain maps Q -> Q and compose
(``ext_algebra``).  The Koszul check hands ``ext_algebra`` a one-sided
model (``dga.smart_truncation``, ``dga.positive_model``), whose degree-0
part is Z^0, acting on a simple through H^0, or the idempotents alone;
``koszul_dual`` is kept as the referee the tests check it against.  Over
a path algebra in degree 0 the same resolution routine gives the minimal
projective resolutions (``core.modules``).

A resolution adopts a block-pure piece of a cone class as a generator only
when the class is not already in the span of the cone boundaries and of
the earlier adopted pieces times degree-0 cocycles of the algebra: a
generator kills its piece times every such cocycle, so one stage per kill
degree still kills every class there, and each generator stands for a
class no earlier one accounts for.  That does not make the resolution
minimal: a piece adopted first can lie in the span of pieces adopted after
it (the commutative square's S_4 gets six generators for four Ext
classes), so Hom(Q, S) can have a nonzero differential.

A simple is its character, and no module object is built: the simples
are correct by construction once their character passes the checks in
``simple_dg_modules``.  A ``SemifreeResolution`` is a ``dga.FreeModule``
with a comparison map to the module of its character; ``verify`` checks
d^2 = 0 and the chain condition of that map on every generator.  The dual
is ``dga.end_algebra`` of the resolutions: the same End construction as
``dg_end``.  ``ext_algebra`` builds no End: it checks its lifts by the
solves that make them and runs ``verify`` on the small result.
"""

from __future__ import annotations

from ..errors import (
    ChainConditionViolated,
    IdempotentLiftMissing,
    SimpleNotOneDimensional,
    TruncationUnsound,
)
from ..linalg import Cohomology, solve, sparse_combination, top
from .dga import Coords, DGAlgebra, FreeModule, Generator, end_algebra


def _character(E: DGAlgebra, name: str) -> list:
    """The multiplicative character of the degree-0 part selected by the
    named idempotent e, read off the top of the corner algebra e E^0 e.
    On a block-pure basis the corner is spanned by the degree-0 basis
    elements of the (e, e) block; with w the one functional that vanishes
    on the corner's radical, chi(g) = w(g) / w(e) on the corner and 0
    elsewhere."""
    if None in E.blocks:
        raise IdempotentLiftMissing("the basis is not block-pure for the idempotent family")
    field = E.field
    corner = [g for g in E.indices_at(0) if E.blocks[g] == (name, name)]
    if not corner:
        raise IdempotentLiftMissing(f"idempotent {name} has a zero corner algebra")
    products = {
        (a, b): E.products[(a, b)] for a in corner for b in corner if (a, b) in E.products
    }
    functionals = top(field, products, corner)
    if len(functionals) != 1:
        raise SimpleNotOneDimensional(
            f"corner algebra of {name} modulo its radical has dimension "
            f"{len(functionals)}"
        )
    (w,) = functionals
    unit = sum((w.get(g, field.zero) * c for g, c in E.idempotents[name].items()), field.zero)
    chi = [field.zero] * E.dimension
    for g, c in w.items():
        chi[g] = field.div(c, unit)
    return chi


def simple_dg_modules(E: DGAlgebra) -> dict[str, list]:
    """The characters of the one-dimensional degree-0 dg modules, one per
    idempotent.

    A simple is its character chi: a list over the basis of E, zero
    outside degree 0, with s * b = chi[b] s on the module's one basis
    vector s.  chi comes from the top of the idempotent's corner algebra,
    the degree-0 basis elements of its (e, e) block; a basis that is not
    block-pure raises IdempotentLiftMissing.  Four obstructions are then
    checked exactly, in this order: chi must separate the idempotents, it
    must be multiplicative on E^0, it must kill the image of the
    differential (else the action would not be a chain map), and it must
    kill every degree-0 product of elements of opposite nonzero degrees
    (else the graded action could not be concentrated in one degree).  A
    corner whose top is not the field and a character that is not
    multiplicative raise SimpleNotOneDimensional, the other failures
    IdempotentLiftMissing.
    """
    if not E.idempotents:
        raise ValueError("the algebra carries no idempotent family")
    field = E.field
    out: dict[str, list] = {}
    for name in E.idempotents:
        chi = _character(E, name)

        def chi_of(coords: Coords):
            return sum((c * chi[g] for g, c in coords.items()), field.zero)

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
            opposite = E.indices_at(-a)
            for i in E.indices_at(a):
                for j in opposite:
                    if chi_of(E.products.get((i, j), {})):
                        raise IdempotentLiftMissing(
                            f"character of {name} sees the degree-{a} part "
                            f"through {E.labels[i]} * {E.labels[j]}"
                        )
        out[name] = chi
    return out


class SemifreeResolution(FreeModule):
    """A free resolution of the one-dimensional dg module of a character,
    kept in generator form, and returned only once its cone is acyclic.

    The module of ``chi`` is spanned by one vector s of degree 0, with
    zero differential and s * b = chi[b] s.  ``phi_gens[t]`` is the scalar
    with phi(g_t) = phi_gens[t] s; with ``d_gens`` it fixes the comparison
    map everywhere by right-linearity.  In the cone of phi, coordinate 0
    is s and coordinate 1 + p is the p-th basis pair of the resolution.
    """

    def __init__(self, algebra: DGAlgebra, chi: list):
        super().__init__(algebra)
        self.chi = chi
        self.phi_gens: list = []

    def phi_pair(self, t: int, b: int):
        """The scalar of phi(g_t * b) = phi(g_t) * b = phi_gens[t] chi[b] s."""
        return self.phi_gens[t] * self.chi[b]

    def verify(self) -> None:
        """d^2 = 0 and phi∘d = 0 on every generator: the module of chi has
        zero differential, so phi is a chain map exactly when it kills
        every boundary."""
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
            phi_d = sum(
                (c * self.phi_pair(u, b) for (u, b), c in self.d_gens[t].items()), field.zero
            )
            if phi_d:
                raise ChainConditionViolated(
                    f"comparison map is not a chain map on generator "
                    f"{self.generators[t].label}"
                )

    # -- cone of the comparison map -----------------------------------

    def _cone_data(self):
        """Basis degrees and differential of S (+) F[1], with the comparison
        map folded in.  Returns (degrees, sparse differential columns)."""
        degrees = [0] + [n - 1 for n in self.basis_degrees]
        diff: dict[int, Coords] = {}
        for p, (t, b) in enumerate(self.basis_pairs):
            col: Coords = {0: self.phi_pair(t, b)}
            for key, c in self.d_pair(t, b).items():
                col[1 + self.pair_index[key]] = -c
            col = {j: c for j, c in col.items() if c}
            if col:
                diff[1 + p] = col
        return degrees, diff

    def _extremal_cone_class(self, ascending: bool) -> tuple[int, Cohomology] | None:
        """(n, the cone's ``Cohomology`` in degree n) for the extremal
        degree n where the cone has cohomology, the smallest when
        ``ascending`` and the largest otherwise; None when the cone is
        acyclic."""
        degrees, diff = self._cone_data()
        by_degree: dict[int, list[int]] = {}
        for i, n in enumerate(degrees):
            by_degree.setdefault(n, []).append(i)
        for n in sorted(by_degree, reverse=not ascending):
            here = by_degree[n]
            h = Cohomology(
                self.field,
                here,
                [diff.get(i, {}) for i in by_degree.get(n - 1, [])],
                [diff.get(i, {}) for i in here],
            )
            if h.dimension:
                return n, h
        return None

    def _pieces(self, x: Coords) -> dict[str, Coords]:
        """The block-pure pieces x * e of cone coordinates x, keyed by the
        idempotent e: s * e = chi(e) s, and a pair (t, a) lies in the piece
        of the right idempotent of a."""
        E = self.algebra
        out: dict[str, Coords] = {}
        for i, c in x.items():
            if i:
                out.setdefault(E.blocks[self.basis_pairs[i - 1][1]][1], {})[i] = c
        if x.get(0):
            for name, e in E.idempotents.items():
                s = x[0] * sum((c * self.chi[k] for k, c in e.items()), self.field.zero)
                if s:
                    out.setdefault(name, {})[0] = s
        return out

    def _cone_times(self, x: Coords, b: Coords) -> Coords:
        """x * b for cone coordinates x and a degree-0 algebra element b."""
        field = self.field
        out: Coords = {}
        for i, c in x.items():
            if i == 0:
                terms = {0: c * sum((v * self.chi[a] for a, v in b.items()), field.zero)}
            else:
                t, a = self.basis_pairs[i - 1]
                terms = {
                    1 + self.pair_index[(t, k)]: s
                    for k, s in self.algebra.multiply({a: c}, b).items()
                }
            for j, s in terms.items():
                out[j] = out.get(j, field.zero) + s
        return {j: c for j, c in out.items() if c}

    def __repr__(self):
        dims = self.graded_dims()
        shown = ", ".join(f"{n}: {dims[n]}" for n in sorted(dims))
        return f"SemifreeResolution({shown})"


def semifree_resolution(chi: list, E: DGAlgebra, stages: int) -> SemifreeResolution:
    """Resolve the one-dimensional dg module of the character ``chi`` by a
    free dg module, killing cone classes, in at most ``stages`` stages.

    Each stage picks the extremal degree n where the cone of the comparison
    map still has cohomology (smallest degree when the algebra sits in
    non-negative degrees, largest otherwise) and splits each class
    representative into block-pure pieces x = rep * e.  Walking the pieces
    in order, a piece becomes a generator only when its class lies outside
    the span of the degree-n cone boundaries and of x' * b for the pieces x'
    already adopted and b in a basis of the degree-0 cocycles e Z^0(E), e
    the idempotent of x' (x' * b = 0 for the rest of Z^0).

    One stage still kills every class of degree n: the generator g adopted
    for x has d(g * b) = -(x * b) in the cone whenever d(b) = 0, so the
    whole span becomes boundaries, and every piece lies in it.  Stages run
    until the cone is acyclic; a resolution that needs more than
    ``stages`` stages raises TruncationUnsound naming the cap.
    """
    if not E.idempotents:
        raise ValueError("resolutions need an idempotent family")
    field = E.field
    for name, e in E.idempotents.items():
        if E.differentiate(e):
            raise IdempotentLiftMissing(
                f"idempotent {name} is not a cocycle; free covers on it are "
                f"not closed under the differential"
            )
    if None in E.blocks:
        raise IdempotentLiftMissing("the basis is not block-pure for the idempotent family")
    res = SemifreeResolution(E, chi)
    ascending = (E.degree_range() or (0, 0))[0] >= 0
    cocycles0 = E.cocycles0_by_left
    counter = 0
    for _ in range(stages):
        found = res._extremal_cone_class(ascending)
        if found is None:
            break
        n, h = found
        killed = h.boundaries.copy()
        for z in h.reps:
            pieces = res._pieces(z)
            for vertex in E.idempotents:
                piece = pieces.get(vertex)
                if not piece or killed.contains(piece):
                    continue
                for b in cocycles0[vertex]:
                    killed.add(res._cone_times(piece, b))
                counter += 1
                res.generators.append(Generator(f"g{counter}", n, vertex))
                res.d_gens.append({res.basis_pairs[i - 1]: c for i, c in piece.items() if i})
                res.phi_gens.append(-piece.get(0, field.zero))
        res._rebuild()
    else:
        raise TruncationUnsound(f"semifree resolution needs more than {stages} stages")
    res.verify()
    return res


def koszul_dual(E: DGAlgebra, stages: int) -> DGAlgebra:
    """The endomorphism dg algebra of the sum of the semifree resolutions of
    the simple dg modules of E.

    The basis consists of the generator-to-basis elementary maps between the
    resolutions; multiplication is composition and is exact.  Each
    resolution gets at most ``stages`` stages (``semifree_resolution``).
    The Koszul check reads its cohomology through ``ext_algebra``; this
    algebra is the referee for that route.
    """
    simples = simple_dg_modules(E)
    return end_algebra(
        [semifree_resolution(chi, E, stages) for chi in simples.values()],
        list(simples),
        f"dual of {E.provenance}" if E.provenance else "dual",
    )


def _after(field, phi: Coords, chi: list, images) -> Coords:
    """phi ∘ f, keyed by generators, for phi: Q -> S keyed by the
    generators of Q, with chi the character of S, and a map f into Q given
    by its generator images in Q's basis pairs: phi(u * b) = phi(u) chi(b)."""
    zero = field.zero
    out: Coords = {}
    for g, image in enumerate(images):
        x = sum((c * phi.get(u, zero) * chi[b] for (u, b), c in image.items()), zero)
        if x:
            out[g] = x
    return out


def _lift(
    Q: SemifreeResolution, R: SemifreeResolution, phi: Coords, n: int
) -> list[dict[tuple[int, int], object]]:
    """A chain map Phi: Q -> R of degree n with eps_R ∘ Phi = phi, for a
    cocycle phi of Hom(Q, S) of degree n keyed by the generators of Q: the
    images of Q's generators, keyed by R's basis pairs.

    Generators are lifted in adoption order, so d(g) meets only generators
    already lifted, and Phi(g) is one solve of d Phi(g) = (-1)^n Phi(d g)
    and eps_R(Phi(g)) = phi(g) over R's pairs of degree |g| + n in the right
    block of g: each pair's column is d of it in R's pair indices, with its
    comparison scalar at key -1.  As eps_R is a surjective
    quasi-isomorphism a solution exists; a missing one raises
    ChainConditionViolated.
    """
    field, blocks = Q.field, Q.algebra.blocks
    images: list[dict[tuple[int, int], object]] = []
    for g, gen in enumerate(Q.generators):
        pairs, columns = [], []
        for p, (u, b) in enumerate(R.basis_pairs):
            if R.basis_degrees[p] == gen.degree + n and blocks[b][1] == gen.vertex:
                column = {R.pair_index[key]: c for key, c in R.d_pair(u, b).items()}
                if R.phi_pair(u, b):
                    column[-1] = R.phi_pair(u, b)
                pairs.append((u, b))
                columns.append(column)
        image_of_d = sparse_combination(
            field, ((c, R.act(images[u], b)) for (u, b), c in Q.d_gens[g].items())
        )
        rhs = {R.pair_index[k]: -c if n % 2 else c for k, c in image_of_d.items()}
        if phi.get(g):
            rhs[-1] = phi[g]
        sol = solve(field, columns, rhs)
        if sol is None:
            raise ChainConditionViolated(
                f"a class of Hom(resolution, simple) does not lift on generator {gen.label}"
            )
        images.append({pairs[k]: c for k, c in sol.items()})
    return images


def ext_algebra(E: DGAlgebra, stages: int) -> DGAlgebra:
    """H^*(``koszul_dual(E, stages)``), built without the dual: the Ext
    algebra of the simple dg modules of E, with zero differential.

    Each simple S_s is resolved as in ``koszul_dual``, by Q_s.  The complex
    Hom(Q_s, S_t) has one basis vector per generator of Q_s attached to t,
    of minus its degree, and the differential phi -> phi∘d; Q_s need not
    be minimal, so its cohomology is taken, not its generators counted.
    H^*(End(⊕Q)) -> H^*(Hom(Q, ⊕S)), [Phi] -> [eps∘Phi], is an
    isomorphism, so each representative phi lifts to a chain map Phi
    (``_lift``), and e_i e_j = [phi_i ∘ Phi_j], the composition order of
    ``dga.end_algebra``.  The idempotent of s is the class of the
    augmentation eps_s.  The basis runs by degree, then source s, then
    target t, in the order of the simples; the lift of each basis element,
    one image per generator keyed by basis pairs, is kept as ``lifts``.
    """
    simples = simple_dg_modules(E)
    names = list(simples)
    resolutions = [semifree_resolution(chi, E, stages) for chi in simples.values()]
    field = E.field

    classes: dict[tuple[int, int, int], Cohomology] = {}  # (degree, s, t)
    for s, Q in enumerate(resolutions):
        d = [
            _after(field, {u: field.one}, simples[gen.vertex], Q.d_gens)
            for u, gen in enumerate(Q.generators)
        ]
        groups: dict[tuple[str, int], list[int]] = {}
        for g, gen in enumerate(Q.generators):
            groups.setdefault((gen.vertex, -gen.degree), []).append(g)
        for (t, m), here in groups.items():
            classes[(m, s, names.index(t))] = Cohomology(
                field, here, [d[g] for g in groups.get((t, m - 1), ())], [d[g] for g in here]
            )

    basis: list[tuple[int, int, int, Coords]] = []  # (degree, s, t, phi)
    first: dict[tuple[int, int, int], int] = {}
    labels: list[str] = []
    for key in sorted(classes):
        m, s, t = key
        first[key] = len(basis)
        for k, phi in enumerate(classes[key].reps):
            basis.append((m, s, t, phi))
            labels.append(f"[{names[s]}->{names[t]}]{m}:{k}")

    def class_of(vector: Coords, key) -> Coords:
        sol = classes[key].coordinates(vector) if key in classes else None
        if sol is None:
            raise ChainConditionViolated(
                f"a composite into Hom({names[key[1]]}, {names[key[2]]}) is not a cocycle"
            )
        return {first[key] + k: c for k, c in sol.items()}

    lifts = [_lift(resolutions[s], resolutions[t], phi, m) for m, s, t, phi in basis]
    by_source: dict[int, list[int]] = {}
    for i, (_, s, _, _) in enumerate(basis):
        by_source.setdefault(s, []).append(i)
    products: dict[tuple[int, int], Coords] = {}
    for j, (mj, s, t, _) in enumerate(basis):
        for i in by_source.get(t, ()):
            mi, _, r, phi = basis[i]
            composite = _after(field, phi, simples[names[r]], lifts[j])
            if composite:
                products[(i, j)] = class_of(composite, (mi + mj, s, r))

    idempotents: dict[str, Coords] = {}
    unit: Coords = {}
    for s, Q in enumerate(resolutions):
        eps = {g: c for g, c in enumerate(Q.phi_gens) if c}
        idempotents[names[s]] = class_of(eps, (0, s, s))
        unit.update(idempotents[names[s]])

    out = DGAlgebra(
        field,
        tuple(labels),
        tuple(m for m, _, _, _ in basis),
        products,
        {},
        unit,
        idempotents,
        provenance=f"Ext of {E.provenance}" if E.provenance else "Ext",
    )
    out.verify()
    out.lifts = lifts
    return out
