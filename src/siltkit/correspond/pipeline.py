"""The lockstep mutation pipeline and the Koszul-duality pair check.

A certified pair — silting collection on one side, simple-minded
collection on the other — can be walked through mutations in lockstep:
mutating both sides at the same index and re-verifying the
orthogonality pattern after every step keeps the certificate trail
intact.  ``lockstep_walk`` is that walk; the ``mutate`` command drives
it from a pair read from a file, and ``standard_pair`` gives the pair
an algebra starts from.

``koszul_pair_check`` compares the two sides' dg endomorphism algebras
through Koszul duality: the dual of each side's one-sided model, the
smart truncation of the silting side or the positive model of the
simple-minded side, must have the cohomology of the opposite side.  That
cohomology is read off Hom(Q, S), the resolved simples of the model
mapped to the simples, by lifting its classes to chain maps
(``dg.ext_algebra``); the dual itself (``dg.koszul_dual``) is never
built here and serves the tests as the referee.  A refused model, or a
resolution that needs more than dim H^*(opposite side) + 1 stages,
leaves the check not certified.  The cohomology algebras are compared
through the pattern's bijection: silting member i and simple member σ(i)
name matching idempotents, so no matching is searched for, and only
one-dimensional blocks are matched.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..core.algebras import PathAlgebra
from ..core.modules import minimal_projective_resolution
from ..dg import (
    DGAlgebra,
    GradedAlgebraMap,
    cohomology_algebra,
    ext_algebra,
    positive_model,
    smart_truncation,
    verify_dg_quasi_iso,
)
from ..errors import (
    IdempotentLiftMissing,
    Inconclusive,
    SimpleNotOneDimensional,
    TruncationUnsound,
)
from ..homotopy.complexes import Generated, ProjComplex, single_projective
from ..homotopy.mutation import silting_mutate, smc_mutate
from .checks import CheckReport, CorrespondenceCertificate, _Reporter, check_pattern


def standard_pair(algebra: PathAlgebra) -> tuple[list[ProjComplex], Generated]:
    """The standard certified pair of an algebra: projective stalks on
    the silting side, resolved simples on the simple-minded side.

    The simple-minded side is :class:`Generated`: it is the simples in
    K^b(proj A), and each projective has a composition series.  A simple
    whose resolution is longer than ``RESOLUTION_BOUND`` raises
    TruncationUnsound.
    """
    silting = [
        single_projective(algebra, v, 0, label=f"P({v})")
        for v in algebra.quiver.vertices
    ]
    smc = [minimal_projective_resolution(algebra, v) for v in algebra.quiver.vertices]
    return silting, Generated(smc, "standard collection")


def lockstep_walk(
    silting: Sequence[ProjComplex],
    smc: Sequence[ProjComplex],
    script: Sequence[tuple[int, str]],
    seed: int = 0,
    depth: int = 3,
) -> Iterator[tuple[list[ProjComplex], list[ProjComplex], CorrespondenceCertificate]]:
    """Mutate both sides of a pair in lockstep, one script entry at a time.

    Script entries are (index, side) with 1-based indices and side
    ``left`` or ``right``.  Each step yields the mutated pair and its
    pattern certificate.  An entry is validated when its step is reached
    (ValueError); verification failures propagate unwrapped.  A
    :class:`Generated` simple-minded side stays one along the walk.
    """
    for step, (index, side) in enumerate(script, start=1):
        if side not in {"left", "right"}:
            raise ValueError(f"step {step}: side must be 'left' or 'right', not {side!r}")
        if not 1 <= index <= len(silting):
            raise ValueError(
                f"step {step}: index {index} out of range 1..{len(silting)}"
            )
        silting = silting_mutate(silting, index - 1, side)
        smc = smc_mutate(smc, index - 1, side)
        yield silting, smc, check_pattern(silting, smc, seed=seed, depth=depth)


# ---------------------------------------------------------------------------
# Koszul duality between the two sides
# ---------------------------------------------------------------------------


def _blockwise_buckets(h: DGAlgebra) -> dict[tuple[int, str, str], list[int]] | None:
    """Basis indices grouped by (degree, left idempotent, right
    idempotent), or None when some element is not block-pure."""
    if None in h.blocks:
        return None
    buckets: dict[tuple[int, str, str], list[int]] = {}
    for i, (left, right) in enumerate(h.blocks):
        buckets.setdefault((h.degrees[i], left, right), []).append(i)
    return buckets


def _propagate_scalars(
    h1: DGAlgebra,
    h2: DGAlgebra,
    img: dict[int, int],
    lam: dict[int, object],
) -> bool:
    """Best-effort solve of the multiplicativity constraints for the
    per-element scalars of a block-matched candidate map.

    Works entirely with one-dimensional blocks, so every product has at
    most one term.  Returns False on a constraint that already cannot
    hold; leftover scalars stay undetermined for the caller to fix.
    """
    field = h1.field
    changed = True
    while changed:
        changed = False
        for (i, j), coords in h1.products.items():
            ti, tj = img[i], img[j]
            target = h2.products.get((ti, tj), {})
            if not coords:
                if target:
                    return False
                continue
            if not target:
                return False
            (k, c), = coords.items()
            (k2, c2), = target.items()
            if img[k] != k2:
                return False
            li, lj, lk = lam.get(i), lam.get(j), lam.get(k)
            if li is not None and lj is not None:
                value = field.div(li * lj * c2, c)
                if lk is None:
                    lam[k] = value
                    changed = True
                elif lk != value:
                    return False
            elif lk is not None and li is not None and lj is None:
                lam[j] = field.div(c * lk, li * c2)
                changed = True
            elif lk is not None and lj is not None and li is None:
                lam[i] = field.div(c * lk, lj * c2)
                changed = True
    return True


def graded_algebra_isomorphism(
    h1: DGAlgebra, h2: DGAlgebra, sigma: dict[str, str]
) -> GradedAlgebraMap | None:
    """An isomorphism of graded algebras that sends idempotent ``n`` of h1
    to idempotent ``sigma[n]`` of h2, or None.

    The idempotent matching is given, not searched for; ``koszul_pair_check``
    takes it from the pattern's bijection.  Only one-dimensional blocks are
    matched: every (degree, left idempotent, right idempotent) block of
    both algebras must have dimension at most one.  The blocks are paired
    through ``sigma``, the connecting scalars are solved by propagation,
    and the candidate is fully verified before it is returned.  None means
    that this matching gives no isomorphism of that shape, not that none
    exists.
    """
    if h1.graded_dims() != h2.graded_dims():
        return None
    names1 = sorted(h1.idempotents)
    if any(n not in sigma for n in names1) or sorted(
        sigma[n] for n in names1
    ) != sorted(h2.idempotents):
        return None
    buckets1 = _blockwise_buckets(h1)
    buckets2 = _blockwise_buckets(h2)
    if buckets1 is None or buckets2 is None:
        return None
    if any(len(b) > 1 for b in buckets1.values()) or any(
        len(b) > 1 for b in buckets2.values()
    ):
        return None
    if any(
        len(buckets2.get((n, sigma[u], sigma[w]), [])) != len(members)
        for (n, u, w), members in buckets1.items()
    ):
        return None
    img: dict[int, int] = {}
    for (n, u, w), members in buckets1.items():
        img[members[0]] = buckets2[(n, sigma[u], sigma[w])][0]
    if len(set(img.values())) != len(img) or len(img) != h1.dimension:
        return None

    lam: dict[int, object] = {}
    for name in names1:
        (i, c), = h1.idempotents[name].items()
        (i2, c2), = h2.idempotents[sigma[name]].items()
        if img[i] != i2:
            return None
        lam[i] = h1.field.div(c2, c)
    # A stalled propagation fixes the first open scalar to 1 and goes on.
    settled = _propagate_scalars(h1, h2, img, lam)
    for i in range(h1.dimension):
        if settled and i not in lam:
            lam[i] = h1.field.one
            settled = _propagate_scalars(h1, h2, img, lam)
    if not settled:
        return None
    images = [{img[i]: lam[i]} for i in range(h1.dimension)]
    candidate = GradedAlgebraMap(h1, h2, images)
    return candidate if verify_dg_quasi_iso(candidate) else None


def koszul_pair_check(
    E: DGAlgebra,
    F: DGAlgebra,
    bijection: Sequence[int],
) -> CheckReport:
    """Check that the two sides of a pair are Koszul dual to each other,
    given the dg endomorphism algebras E of the silting side and F of the
    simple-minded side, and the pattern's bijection: silting member i
    pairs with simple member ``bijection[i]`` (0-based), as in
    ``CorrespondenceCertificate.bijection``.

    For each side, the Koszul dual of the dg endomorphism algebra must
    have the cohomology of the opposite side's dg endomorphism algebra:
    equal cohomology dimensions (a hard condition) and an isomorphism of
    cohomology algebras that matches the idempotents through the
    bijection (pass when ``graded_algebra_isomorphism`` finds one,
    not-certified otherwise: it matches one-dimensional blocks only).
    The dual's cohomology is ``ext_algebra``, Ext of the simples read off
    Hom(Q, S) with products by lifting, so no dual is built or verified.

    E is dualized through its smart truncation and F through its positive
    model.  Both exist when the pattern holds and every simple-minded
    member has scalar endomorphisms; a refused model is a soft miss naming
    why.  Each resolution of a simple S_s gets dim H^*(opposite side) + 1
    stages.  Koszul duality identifies Ext(S_s, ⊕S) with
    H^*(opposite side) e_s, and a minimal resolution has one generator
    per basis element of it, each stage but the last adopting one or
    more.  ``semifree_resolution`` is not minimal in general, so its
    generators can outnumber the Ext classes; ``ext_algebra`` takes the
    cohomology of Hom(Q, S), not a count of generators.  A resolution that
    needs more stages is a soft miss naming the cap.
    """
    forward = {str(i + 1): str(j + 1) for i, j in enumerate(bijection)}
    backward = {j: i for i, j in forward.items()}
    rep = _Reporter("koszul duality")
    for label, source, opposite, sigma, model, route in (
        ("dual of the silting side", E, F, forward, smart_truncation, "smart truncation"),
        ("dual of the simple side", F, E, backward, positive_model, "positive model"),
    ):
        opp_h = opposite.cohomology_dims()
        try:
            dual = ext_algebra(model(source), sum(opp_h.values()) + 1)
        except TruncationUnsound as exc:
            rep.soft(f"{label} computed", False, f"{exc} (dim H^*(opposite) + 1)")
            continue
        except (Inconclusive, SimpleNotOneDimensional, IdempotentLiftMissing) as exc:
            rep.soft(f"{label} computed", False, str(exc))
            continue
        rep.hard(f"{label} computed", True, f"route: {route}")
        dual_h = dual.graded_dims()
        rep.hard(
            f"{label} has the opposite side's cohomology dimensions",
            dual_h == opp_h,
            f"{_dims_text(dual_h)} versus {_dims_text(opp_h)}",
        )
        if dual_h != opp_h:
            continue
        iso = graded_algebra_isomorphism(dual, cohomology_algebra(opposite), sigma)
        rep.soft(
            f"{label} cohomology algebra matches the opposite side",
            iso is not None,
            "isomorphism verified" if iso is not None else
            "no isomorphism through the pattern's matching on one-dimensional blocks",
        )
    return rep.report()


def _dims_text(dims: dict[int, int]) -> str:
    if not dims:
        return "{}"
    return "{" + ", ".join(f"{n}: {dims[n]}" for n in sorted(dims)) + "}"
