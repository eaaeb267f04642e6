"""Deciding isomorphism and indecomposability in the homotopy category.

Both questions are answered through exact invariants first (graded summand
multiplicities, cohomology dimensions) and only then through searches that
are deterministic given the seed.  A failed search over the rationals is
reported as Inconclusive, never as a definitive "no": the coefficient box is
finite, so absence of a unit inside it proves nothing.  Over a prime field
the same search can be exhaustive, and a negative answer is then real.
"""

from __future__ import annotations

import itertools
import random

from ..errors import CharacteristicUnsupported, Inconclusive
from ..linalg import kernel_basis, mat_vec, zero_vector
from .complexes import ChainMap, ProjComplex, cone, identity_map, minimize
from .homs import HomSpace, hom_space

SEARCH_BUDGET = 100_000


def _coefficient_pool(field) -> list:
    if field.characteristic == 0:
        return [field.coerce(i) for i in range(-3, 4)]
    return [field.coerce(i) for i in range(field.characteristic)]


def _combination(space: HomSpace, coeffs) -> ChainMap:
    f = None
    for c, rep in zip(coeffs, space.representatives):
        if not c:
            continue
        term = rep.scale(c)
        f = term if f is None else f.add(term)
    if f is None:
        zero = space.representatives[0].scale(space.complex.field.zero)
        return zero
    return f


def _is_contractible_after(f: ChainMap) -> bool:
    return minimize(cone(f)).is_zero()


def find_isomorphism(
    x: ProjComplex, y: ProjComplex, seed: int = 0, samples: int = 16
) -> tuple[ChainMap, ChainMap] | None:
    """A pair (f, g) of mutually inverse degree-0 maps up to homotopy, or
    None if the search finds none.

    f is hunted among combinations of H^0 Hom(x, y) representatives: each
    representative alone, then seeded random small-integer combinations,
    then (when the coefficient box is small enough) every combination.  A
    candidate passes when its cone collapses to the zero complex; the inverse
    is then recovered by solving [g][f] = [id] on classes.
    """
    mx, my = minimize(x), minimize(y)
    if mx.is_zero() and my.is_zero():
        ident = identity_map(mx)
        return ident, ident
    if mx.is_zero() or my.is_zero():
        return None
    forward = hom_space(mx, my, 0)
    if forward.dimension == 0:
        return None

    def attempt(coeffs):
        f = _combination(forward, coeffs)
        if f.is_zero():
            return None
        if not _is_contractible_after(f):
            return None
        g = _invert(forward, f, mx, my)
        if g is None:
            return None
        return f, g

    for i in range(forward.dimension):
        unit = [forward.complex.field.zero] * forward.dimension
        unit[i] = forward.complex.field.one
        found = attempt(unit)
        if found:
            return found

    rng = random.Random(seed)
    for _ in range(samples):
        coeffs = [
            forward.complex.field.coerce(rng.randint(-3, 3))
            for _ in range(forward.dimension)
        ]
        found = attempt(coeffs)
        if found:
            return found

    pool = _coefficient_pool(forward.complex.field)
    if len(pool) ** forward.dimension <= SEARCH_BUDGET:
        for coeffs in itertools.product(pool, repeat=forward.dimension):
            found = attempt(list(coeffs))
            if found:
                return found
    return None


def _search_is_exhaustive(field, dimension: int) -> bool:
    pool = _coefficient_pool(field)
    return len(pool) ** dimension <= SEARCH_BUDGET


def _invert(
    forward: HomSpace, f: ChainMap, mx: ProjComplex, my: ProjComplex
) -> ChainMap | None:
    backward = hom_space(my, mx, 0)
    if backward.dimension == 0:
        return None
    end_x = hom_space(mx, mx, 0)
    target = end_x.class_coordinates(identity_map(mx))
    columns = [
        end_x.class_coordinates(rep.compose(f)) for rep in backward.representatives
    ]
    matrix = [
        [columns[j][i] for j in range(len(columns))] for i in range(len(target))
    ]
    from ..linalg import solve

    coords = solve(end_x.complex.field, matrix, target)
    if coords is None:
        return None
    g = _combination(backward, coords)
    end_y = hom_space(my, my, 0)
    left = end_y.class_coordinates(f.compose(g))
    if left != end_y.class_coordinates(identity_map(my)):
        return None
    return g


def is_isomorphic(
    x: ProjComplex, y: ProjComplex, seed: int = 0, samples: int = 16
) -> bool:
    """Whether x and y are isomorphic in the homotopy category.

    Cheap exact invariants (graded multiplicities of the minimal models,
    then vertex-wise cohomology dimensions) settle most negatives.  The
    remaining positives are settled by exhibiting an invertible map.  If no
    map is found and the search was not exhaustive (always the case over the
    rationals when invariants agree), Inconclusive is raised instead of
    guessing.
    """
    from .complexes import complex_cohomology_dims

    mx, my = minimize(x), minimize(y)
    if mx.is_zero() or my.is_zero():
        return mx.is_zero() and my.is_zero()
    if mx.graded_multiplicities() != my.graded_multiplicities():
        return False
    if complex_cohomology_dims(mx) != complex_cohomology_dims(my):
        return False
    found = find_isomorphism(mx, my, seed=seed, samples=samples)
    if found is not None:
        return True
    forward_dim = hom_space(mx, my, 0).dimension
    field = mx.algebra.field
    if field.characteristic != 0 and _search_is_exhaustive(field, forward_dim):
        return False
    raise Inconclusive(
        "invariants agree but no invertible map was found within the "
        "search budget; the complexes may still be isomorphic"
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
