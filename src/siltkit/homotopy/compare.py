"""Deciding isomorphism and indecomposability in the homotopy category.

K^b(proj A) is Krull–Schmidt: X = ⊕ X_i^{a_i} over pairwise non-isomorphic
indecomposables X_i, each with a local H^0 End whose residue division ring
has dimension d_i.  Both questions are read off the radical of H^0 End.

Isomorphism.  Complete minimal models with equal keys are the same
complex, and exact invariants (zero, graded multiplicities, cohomology
dimensions, the last read from the Hom table as H^k Hom(e_v A, X))
settle most negatives.  The rest is one test (Brooksbank–Luks,
*Testing isomorphism of modules*, 2008).  Let rad(X, Y) hold the f in
H^0 Hom(X, Y) with [g∘f] in rad End(X) for every g in H^0 Hom(Y, X), and
t(X, Y) = dim H^0 Hom(X, Y) − dim rad(X, Y).  For Y = ⊕ X_i^{b_i},
t(X, Y) = Σ d_i a_i b_i, so t(X, X) + t(Y, Y) − 2 t(X, Y) =
Σ d_i (a_i − b_i)², which is zero exactly when X ≅ Y.

Indecomposability.  X is indecomposable exactly when End(X)/rad is a
division algebra.  Over F_p that is decided (Wedderburn, Berlekamp; see
:func:`is_indecomposable`).  Over Q a reducible minimal polynomial proves
a split, and a quotient that shows none is reported Inconclusive.

H^0 End is handed over as sparse structure constants: class coordinates
are ``linalg.Coords`` keyed by representative position, and its radical
comes from ``linalg.radical``, the same routine that reads the top of the
corner algebra whose character is a simple dg module in ``dg.dgmod``.
Every composite is taken in Hom coordinates (``HomSpace.composites``);
the only chain maps here are the pair :func:`find_isomorphism` returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import isqrt, lcm

from ..errors import Inconclusive
from ..linalg import Coords, rank, solve, sparse_combination, sparse_product, top
from .complexes import (
    ChainMap,
    ProjComplex,
    component_split,
    identity_map,
    minimize,
)
from .homs import complex_cohomology_dims, hom_space


def find_isomorphism(
    x: ProjComplex, y: ProjComplex
) -> tuple[ChainMap, ChainMap] | None:
    """A pair (f, g) of mutually inverse degree-0 maps up to homotopy, with
    f one of the H^0 Hom(x, y) representatives, or None when no
    representative is invertible.  None does not prove x and y
    non-isomorphic; :func:`is_isomorphic` decides that.

    f passes when [g][f] = [1_x] has a solution g that also gives
    [f][g] = [1_y].
    """
    mx, my = minimize(x), minimize(y)
    if mx.is_zero() or my.is_zero():
        ident = identity_map(mx)
        return (ident, ident) if mx.is_zero() and my.is_zero() else None
    forward, backward = hom_space(mx, my, 0), hom_space(my, mx, 0)
    end_x, end_y = hom_space(mx, mx, 0), hom_space(my, my, 0)
    field = mx.algebra.field
    table = backward.composites(forward, end_x)
    one_x, one_y = _unit(end_x), _unit(end_y)
    reps = backward.cohomology.reps
    for j, f in enumerate(forward.cohomology.reps):
        coords = solve(field, [row[j] for row in table], one_x)
        if coords is None:
            continue
        g = sparse_combination(field, [(c, reps[t]) for t, c in sorted(coords.items())])
        fg = forward.complex.compose(f, 0, backward.complex, g, 0, end_y.complex)
        if end_y.cohomology.coordinates(fg) == one_y:
            return forward.representatives[j], backward.complex.vector_to_map(0, g)
    return None


def isomorphic_collections(
    xs: Sequence[ProjComplex], ys: Sequence[ProjComplex]
) -> bool:
    """Whether the members of xs and ys match up to isomorphism and order.

    Each member of xs takes the first unmatched isomorphic member of ys.
    Isomorphism is transitive, so this greedy matching succeeds whenever
    any matching does.
    """
    if len(xs) != len(ys):
        return False
    free = list(ys)
    for x in xs:
        for n, y in enumerate(free):
            if is_isomorphic(x, y):
                del free[n]
                break
        else:
            return False
    return True


def is_isomorphic(x: ProjComplex, y: ProjComplex) -> bool:
    """Whether x and y are isomorphic in the homotopy category.

    Equal keys of the minimal models settle True.  After the invariants,
    t(x, y) is the rank of f ↦ ([g∘f] modulo rad End(x)) over the basis g
    of H^0 Hom(y, x).
    """
    mx, my = minimize(x), minimize(y)
    if mx.key == my.key:
        return True
    if mx.is_zero() or my.is_zero():
        return mx.is_zero() and my.is_zero()
    if mx.graded_multiplicities() != my.graded_multiplicities():
        return False
    if complex_cohomology_dims(mx) != complex_cohomology_dims(my):
        return False
    field = mx.algebra.field
    (px, dx, _), (py, dy, _) = _end_table(mx), _end_table(my)
    top_x, top_y = top(field, px, range(dx)), top(field, py, range(dy))
    products = hom_space(my, mx, 0).composites(hom_space(mx, my, 0), hom_space(mx, mx, 0))
    rows = [
        {t: x for t, c in enumerate(row) if (x := _dot(w, c))}
        for row in products
        for w in top_x
    ]
    return len(top_x) + len(top_y) == 2 * rank(field, rows)


def _end_table(x: ProjComplex):
    """H^0 End(x) as structure constants over its representatives r
    (``products[(i, j)]`` holds the sparse coordinates of r_i ∘ r_j), their
    dimension and the sparse coordinates of the identity.  The table is
    kept on x, so each complex builds it once."""
    if x._end_table is None:
        space = hom_space(x, x, 0)
        table = space.composites(space, space)
        products = {(i, j): c for i, row in enumerate(table) for j, c in enumerate(row)}
        x._end_table = (products, space.dimension, _unit(space))
    return x._end_table


def _unit(end) -> Coords:
    """The class of the identity in an H^0 End space."""
    return end.cohomology.coordinates(end.complex.identity())


def _dot(u: Coords, v: Coords):
    return sum((c * v[k] for k, c in u.items() if k in v), 0)


def is_indecomposable(x: ProjComplex) -> bool:
    """Whether x is indecomposable, that is, End(x)/rad is a division ring.

    A visible split of the differential gives False; a one-dimensional
    End or End/rad gives True.  Over F_p, x is indecomposable iff End/rad
    is commutative and {a : a^p − a ∈ rad} has dimension dim rad + 1: a
    finite division ring is a field, and the Frobenius-fixed part of a
    commutative semisimple ring has one dimension per field factor.  Over
    Q a basis element that is not a scalar modulo rad, with a repeated
    factor or a rational root in its minimal polynomial, gives False;
    otherwise Inconclusive names End modulo its radical and its dimension.
    """
    mx = minimize(x)
    if mx.is_zero() or len(component_split(mx)) > 1:
        return False
    if hom_space(mx, mx, 0).dimension == 1:
        return True
    return _is_local(mx.algebra.field, *_end_table(mx))


def _is_local(field, products, dim: int, one) -> bool:
    """Whether the unital algebra with these structure constants, of
    dimension ``dim`` and with identity coordinates ``one``, is local, as
    :func:`is_indecomposable` decides it."""
    functionals = top(field, products, range(dim))
    if len(functionals) == 1:
        return True

    def modulo_rad(v: Coords) -> Coords:
        return {i: x for i, w in enumerate(functionals) if (x := _dot(w, v))}

    units = [{k: field.one} for k in range(dim)]
    p = field.characteristic
    if p:
        for i in range(dim):
            for j in range(i):
                ij, ji = products.get((i, j)), products.get((j, i))
                if modulo_rad(sparse_combination(field, [(1, ij), (-1, ji)])):
                    return False

        def frobenius(a):
            """a^p, by repeated squaring."""
            power = one
            for bit in bin(p)[2:]:
                power = sparse_product(field, products, power, power)
                if bit == "1":
                    power = sparse_product(field, products, power, a)
            return power

        rows = [
            modulo_rad(sparse_combination(field, [(1, frobenius(e)), (-1, e)]))
            for e in units
        ]
        return rank(field, rows) == len(functionals) - 1
    for e in units:
        poly = _minimal_polynomial(field, products, e, one, modulo_rad)
        if len(poly) > 2 and (_has_repeated_factor(field, poly) or _has_rational_root(poly)):
            return False
    raise Inconclusive(
        f"End modulo its radical has dimension {len(functionals)}, and no basis "
        "element has a minimal polynomial with a repeated factor or a rational "
        "root, so it is not known whether it is a division algebra"
    )


def _minimal_polynomial(field, products, a, one, modulo_rad) -> list:
    """The monic minimal polynomial of a modulo the radical, as
    coefficients from the constant term up."""
    images, power = [modulo_rad(one)], one
    while True:
        power = sparse_product(field, products, power, a)
        coords = solve(field, images, modulo_rad(power))
        if coords is not None:
            return [-coords.get(t, field.zero) for t in range(len(images))] + [field.one]
        images.append(modulo_rad(power))


def _has_repeated_factor(field, poly: list) -> bool:
    """Whether a monic rational poly of degree m > 1 (coefficients from the
    constant term up) shares a factor with its derivative: exactly when
    their Sylvester matrix is singular."""
    slope, m = [k * c for k, c in enumerate(poly)][1:], len(poly) - 1
    rows = [{i + k: c for k, c in enumerate(poly) if c} for i in range(m - 1)]
    rows += [{i + k: c for k, c in enumerate(slope) if c} for i in range(m)]
    return rank(field, rows) < 2 * m - 1


def _has_rational_root(poly: list) -> bool:
    """Whether a rational polynomial has a rational root, by the rational
    root theorem on its integral multiple."""
    scale = lcm(*(Fraction(c).denominator for c in poly))
    ints = [int(c * scale) for c in poly]

    def divisors(n: int) -> list[int]:
        n = abs(n)
        return [e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)]

    return not ints[0] or any(
        sum(c * Fraction(sign * num, den) ** k for k, c in enumerate(ints)) == 0
        for num in divisors(ints[0])
        for den in divisors(ints[-1])
        for sign in (1, -1)
    )
