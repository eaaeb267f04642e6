"""Deciding isomorphism and indecomposability in the homotopy category.

K^b(proj A) is Krull–Schmidt: an indecomposable object has a local
endomorphism ring.  Two complete complexes whose minimal forms have equal
keys are isomorphic by the identity.  Otherwise isomorphism is decided
through exact invariants first (graded summand multiplicities, cohomology
dimensions, a zero H^0 Hom), then by matching visible direct summands,
then by testing H^0 Hom representatives for invertibility.  When H^0 End
of either side is local this test is exact: an isomorphism is a
combination of representatives, and the non-units of a local ring form an
ideal, so some representative is itself invertible.  Otherwise every
combination in a coefficient box bounded by ``SEARCH_BUDGET`` is tried.
Over the rationals a failed box search is reported as Inconclusive, never
as a definitive "no"; over a prime field the box is the whole space, and
a negative answer is then real.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from ..errors import CharacteristicUnsupported, Inconclusive
from ..linalg import kernel_basis, mat_vec, solve, zero_vector
from .complexes import (
    ChainMap,
    ProjComplex,
    complex_cohomology_dims,
    component_split,
    identity_map,
    minimize,
)
from .homs import HomSpace, hom_space

SEARCH_BUDGET = 100_000


def _coefficient_pool(field) -> list:
    if field.characteristic == 0:
        return [field.coerce(i) for i in range(-3, 4)]
    return [field.coerce(i) for i in range(field.characteristic)]


def _combination(space: HomSpace, coeffs) -> ChainMap:
    f = space.representatives[0].scale(space.complex.field.zero)
    for c, rep in zip(coeffs, space.representatives):
        if c:
            f = f.add(rep.scale(c))
    return f


def _known_local(x: ProjComplex) -> bool:
    """Whether H^0 End(x) is known to be a local ring."""
    try:
        return is_indecomposable(x)
    except (Inconclusive, CharacteristicUnsupported):
        return False


def find_isomorphism(
    x: ProjComplex, y: ProjComplex
) -> tuple[ChainMap, ChainMap] | None:
    """A pair (f, g) of mutually inverse degree-0 maps up to homotopy, or
    None if the search finds none.

    f is tried among the H^0 Hom(x, y) representatives, then, unless
    H^0 End(x) or H^0 End(y) is local, among every combination in the
    coefficient box when that box fits in ``SEARCH_BUDGET``.  A candidate
    f passes when [g][f] = [1_x] has a solution g and that g also gives
    [f][g] = [1_y].
    """
    mx, my = minimize(x), minimize(y)
    if mx.is_zero() and my.is_zero():
        ident = identity_map(mx)
        return ident, ident
    if mx.is_zero() or my.is_zero():
        return None
    forward = hom_space(mx, my, 0)
    backward = hom_space(my, mx, 0)
    if forward.dimension == 0 or backward.dimension == 0:
        return None
    field = mx.algebra.field
    end_x, end_y = hom_space(mx, mx, 0), hom_space(my, my, 0)
    one_x = end_x.class_coordinates(identity_map(mx))
    one_y = end_y.class_coordinates(identity_map(my))

    def inverse(f: ChainMap) -> ChainMap | None:
        columns = [
            end_x.class_coordinates(g.compose(f)) for g in backward.representatives
        ]
        matrix = [[column[i] for column in columns] for i in range(len(one_x))]
        coords = solve(field, matrix, one_x)
        if coords is None:
            return None
        g = _combination(backward, coords)
        if end_y.class_coordinates(f.compose(g)) != one_y:
            return None
        return g

    def box():
        if not _search_is_exhaustive(field, forward.dimension):
            return
        if _known_local(mx) or _known_local(my):
            return
        pool = _coefficient_pool(field)
        for coeffs in itertools.product(pool, repeat=forward.dimension):
            yield _combination(forward, coeffs)

    for f in itertools.chain(forward.representatives, box()):
        g = inverse(f)
        if g is not None:
            return f, g
    return None


def _search_is_exhaustive(field, dimension: int) -> bool:
    pool = _coefficient_pool(field)
    return len(pool) ** dimension <= SEARCH_BUDGET


def isomorphic_collections(
    xs: Sequence[ProjComplex], ys: Sequence[ProjComplex]
) -> bool:
    """Whether the members of xs and ys match up to isomorphism and order.

    Each member of xs takes the first unmatched isomorphic member of ys.
    Isomorphism is transitive, so this greedy matching succeeds whenever
    any matching does.  A member left without a match after an
    Inconclusive comparison re-raises it.
    """
    if len(xs) != len(ys):
        return False
    free = list(ys)
    for x in xs:
        doubt = None
        for n, y in enumerate(free):
            try:
                if is_isomorphic(x, y):
                    del free[n]
                    break
            except Inconclusive as exc:
                doubt = exc
        else:
            if doubt is not None:
                raise doubt
            return False
    return True


def is_isomorphic(x: ProjComplex, y: ProjComplex) -> bool:
    """Whether x and y are isomorphic in the homotopy category.

    Complete minimal models with equal keys are the same complex, so the
    identity settles them.  Truncated ones go on: equal truncations need
    not come from isomorphic resolutions.  Exact invariants (graded
    multiplicities of the minimal models, then vertex-wise cohomology
    dimensions) settle most negatives.  Complexes whose differential
    visibly splits are first matched summand by summand.  Otherwise
    :func:`find_isomorphism` decides: a found map proves True, and a miss
    proves False when H^0 Hom(x, y) is zero, when H^0 End of either side
    is local, or when the box over a prime field covered all of
    H^0 Hom(x, y).  Any other miss raises Inconclusive naming
    ``SEARCH_BUDGET``.
    """
    mx, my = minimize(x), minimize(y)
    if mx.complete and mx.key == my.key:
        return True
    if mx.is_zero() or my.is_zero():
        return mx.is_zero() and my.is_zero()
    if mx.graded_multiplicities() != my.graded_multiplicities():
        return False
    if complex_cohomology_dims(mx) != complex_cohomology_dims(my):
        return False
    xs, ys = component_split(mx), component_split(my)
    if len(xs) > 1 or len(ys) > 1:
        try:
            if isomorphic_collections(xs, ys):
                return True
        except Inconclusive:
            pass
    if find_isomorphism(mx, my) is not None:
        return True
    forward_dim = hom_space(mx, my, 0).dimension
    if forward_dim == 0 or _known_local(mx) or _known_local(my):
        return False
    field = mx.algebra.field
    if not _search_is_exhaustive(field, forward_dim):
        reach = (
            f"the {len(_coefficient_pool(field))}^{forward_dim} coefficient "
            f"choices exceed SEARCH_BUDGET = {SEARCH_BUDGET}"
        )
    elif field.characteristic != 0:
        return False
    else:
        reach = (
            "no invertible map has coefficients in -3..3 (the box the "
            f"SEARCH_BUDGET = {SEARCH_BUDGET} search covers)"
        )
    raise Inconclusive(
        f"invariants agree and neither H^0 End is known to be local, but {reach}"
    )


def _end_structure(x: ProjComplex):
    """Basis, multiplication table, and identity coordinates of H^0 End(x)."""
    space = hom_space(x, x, 0)
    reps = space.representatives
    dim = space.dimension
    table = [
        [space.class_coordinates(reps[i].compose(reps[j])) for j in range(dim)]
        for i in range(dim)
    ]
    ident = space.class_coordinates(identity_map(x))
    return space, table, ident


def _left_multiplication(field, table, coords, dim):
    mat = [[field.zero] * dim for _ in range(dim)]
    for i, c in enumerate(coords):
        if not c:
            continue
        for j in range(dim):
            for k in range(dim):
                mat[k][j] = mat[k][j] + c * table[i][j][k]
    return mat


def is_indecomposable(x: ProjComplex) -> bool:
    """Whether x is indecomposable, decided through its endomorphism ring.

    In characteristic zero the radical of H^0 End is the kernel of the trace
    form of the regular representation; x is indecomposable when the
    semisimple quotient is one-dimensional.  Otherwise, in any
    characteristic, x is declared decomposable only when the bounded search
    exhibits a nontrivial idempotent.  Over F_p that search exhausts the
    finite ring, so finding none proves indecomposability; over the
    rationals it proves nothing and Inconclusive is raised.
    """
    mx = minimize(x)
    if mx.is_zero():
        return False
    space, table, ident = _end_structure(mx)
    field = mx.algebra.field
    dim = space.dimension
    if dim == 1:
        return True

    if field.characteristic == 0:
        # Gram matrix of the trace form tr(L_a L_b) on the basis.
        mults = []
        for i in range(dim):
            unit = zero_vector(field, dim)
            unit[i] = field.one
            mults.append(_left_multiplication(field, table, unit, dim))
        gram = [[field.zero] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                trace = field.zero
                for a in range(dim):
                    for b in range(dim):
                        trace = trace + mults[i][a][b] * mults[j][b][a]
                gram[i][j] = trace
        if dim - len(kernel_basis(field, gram)) == 1:
            return True

    pool = _coefficient_pool(field)
    if not _search_is_exhaustive(field, dim):
        if field.characteristic:
            raise CharacteristicUnsupported(
                f"idempotent search over F_{field.characteristic} needs "
                f"{len(pool)}^{dim} trials, beyond the budget"
            )
        raise Inconclusive(
            f"idempotent search over {len(pool)}^{dim} coefficient choices "
            f"exceeds SEARCH_BUDGET = {SEARCH_BUDGET}"
        )

    zero = zero_vector(field, dim)
    for cand in itertools.product(pool, repeat=dim):
        e = list(cand)
        if e == zero or e == ident:
            continue
        if mat_vec(field, _left_multiplication(field, table, e, dim), e) == e:
            return False
    if field.characteristic == 0:
        raise Inconclusive(
            "H^0 End is not local by its trace form, but no nontrivial "
            "idempotent has coefficients in -3..3 (the box the SEARCH_BUDGET "
            f"= {SEARCH_BUDGET} search covers)"
        )
    return True
