"""Minimal approximations and mutation of collections.

A left approximation of X by the additive closure of a generator list is
built universally (one copy of a generator per basis class of maps into it)
and then trimmed: copies are dropped one at a time, in order, whenever the
restricted map still induces surjections Hom(E', G) -> Hom(X, G) for every
generator G.  Because dropped copies only ever shrink the available maps, a
single forward pass lands on a genuinely minimal approximation.

H^0 Hom out of (or into) a sum is the sum of the Hom spaces of its parts,
so the image of Hom(E', G) -> Hom(X, G) is the union of the images of the
kept copies.  Each copy's image is read once, in Hom coordinates, from the
generators' own Hom spaces (``HomSpace.composites``); no trial builds a
sum or a Hom complex of one.  The chain map of the kept copies is stacked
only at the end, to feed ``cone``.

Mutation at a chosen index replaces that summand by a cone construction and
keeps everything else.  Simple-minded mutation does not verify its output;
callers check the result (``check_pattern`` runs ``check_smc``).  It passes
on a certified generation fact, since a mutation triangle leaves the thick
closure unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..linalg import Coords, rank
from .complexes import (
    ChainMap,
    Generated,
    ProjComplex,
    cone,
    direct_sum,
    minimize,
    shift,
)
from .homs import HomComplex, hom_space


@dataclass
class Approximation:
    """A minimal approximation map together with how many copies of each
    generator survived the trimming."""

    map: ChainMap
    multiplicities: dict[int, int]


def _assemble_sum(parts: list[ProjComplex], algebra) -> ProjComplex:
    total = ProjComplex(algebra, {}, {}, check=False)
    for p in parts:
        total = direct_sum(total, p)
    return total


def _universal(x: ProjComplex, maps: list[tuple[HomComplex, Coords]], side: str) -> ChainMap:
    """The stacked map X -> ⊕ parts on the left side, ⊕ parts -> X on the
    right side, from one (Hom complex, degree-0 vector) pair per part.

    Each term (k, r, c, q) moves past the summands of the earlier parts in
    degree k: on the row on the left side, on the column on the right.
    """
    parts = [hom.target if side == "left" else hom.source for hom, _ in maps]
    total = _assemble_sum(parts, x.algebra)
    f = ChainMap(x, total, {}) if side == "left" else ChainMap(total, x, {})
    offsets: dict[int, int] = {}
    for part, (hom, vec) in zip(parts, maps):
        for i in sorted(vec):
            k, r, c, q = hom.basis[0][i]
            if side == "left":
                r += offsets.get(k, 0)
            else:
                c += offsets.get(k, 0)
            row = f.components[k][r]
            row[c] = row[c] + x.algebra.basis_element(q).scale(vec[i])
        for k, vs in part.summands.items():
            offsets[k] = offsets.get(k, 0) + len(vs)
    return f


def _hom_0(x: ProjComplex, g: ProjComplex, side: str):
    """Hom(X, G) on the left side, Hom(G, X) on the right side, in degree 0."""
    return hom_space(x, g, 0) if side == "left" else hom_space(g, x, 0)


def _approximation(x: ProjComplex, generators: list[ProjComplex], side: str) -> Approximation:
    """The minimal left (X -> E) or right (E -> X) approximation of X with
    E in the additive closure of the generators."""
    spaces = [_hom_0(x, g, side) for g in generators]

    def images(u: int, w: int) -> list[list[Coords]]:
        """Per copy j of G_u, the classes in spaces[w] of its composites
        with H^0 Hom(G_u, G_w) on the left side (h ∘ f_j), or with
        H^0 Hom(G_w, G_u) on the right side (f_j ∘ h)."""
        if not spaces[u].dimension:
            return []
        if side == "right":
            return spaces[u].composites(hom_space(generators[w], generators[u], 0), spaces[w])
        table = hom_space(generators[u], generators[w], 0).composites(spaces[u], spaces[w])
        return [[row[j] for row in table] for j in range(spaces[u].dimension)]

    reach = {
        w: [images(u, w) for u in range(len(generators))]
        for w, space in enumerate(spaces)
        if space.dimension
    }
    field = x.algebra.field

    def is_approximation(kept: list[tuple[int, int]]) -> bool:
        return all(
            rank(field, [c for u, j in kept for c in copies[u][j]]) == spaces[w].dimension
            for w, copies in reach.items()
        )

    kept = [(u, j) for u, space in enumerate(spaces) for j in range(space.dimension)]
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if is_approximation(trial):
            kept = trial
        else:
            i += 1

    mults: dict[int, int] = {u: 0 for u in range(len(generators))}
    for u, _ in kept:
        mults[u] += 1
    maps = [(spaces[u].complex, spaces[u].cohomology.reps[j]) for u, j in kept]
    return Approximation(map=_universal(x, maps, side), multiplicities=mults)


def left_approximation(x: ProjComplex, generators: list[ProjComplex]) -> Approximation:
    """The minimal left approximation X -> E with E in the additive closure
    of the generators."""
    return _approximation(x, generators, "left")


def right_approximation(x: ProjComplex, generators: list[ProjComplex]) -> Approximation:
    """The minimal right approximation E -> X with E in the additive closure
    of the generators."""
    return _approximation(x, generators, "right")


def silting_mutate(
    collection: list[ProjComplex], index: int, side: str = "left"
) -> list[ProjComplex]:
    """Mutation of a silting collection at one index.

    Left mutation replaces the chosen summand X by the cone of its minimal
    left approximation into the other summands; right mutation replaces it
    by the shifted-down cone of the minimal right approximation from them.
    """
    if not 0 <= index < len(collection):
        raise IndexError(f"index {index} out of range for {len(collection)} summands")
    x = collection[index]
    others = [c for j, c in enumerate(collection) if j != index]
    if side == "left":
        approx = left_approximation(x, others)
        replacement = minimize(cone(approx.map))
    elif side == "right":
        approx = right_approximation(x, others)
        replacement = minimize(shift(cone(approx.map), -1))
    else:
        raise ValueError("side must be 'left' or 'right'")
    result = list(collection)
    result[index] = replacement
    return result


def _power_map(x: ProjComplex, g: ProjComplex, degree_shift: int, side: str) -> ChainMap | None:
    """Universal map x -> g[degree_shift]^d (left side) or
    g[degree_shift]^d -> x (right side) built from all hom classes."""
    other = shift(g, degree_shift)
    space = _hom_0(x, other, side)
    if space.dimension == 0:
        return None
    return _universal(x, [(space.complex, v) for v in space.cohomology.reps], side)


def smc_mutate(
    collection: Sequence[ProjComplex], index: int, side: str = "left"
) -> Sequence[ProjComplex]:
    """Mutation of a simple-minded collection at one index.

    The chosen summand is shifted; every other summand is corrected by the
    cone or cocone over the universal map out of (or into) the shifted
    summand's first extension space.  The result is not re-checked.

    Each new member sits in a triangle with an old member and a power of
    the shifted summand, so the thick closure is unchanged.  A
    :class:`Generated` input therefore yields a :class:`Generated` result.
    """
    if not 0 <= index < len(collection):
        raise IndexError(f"index {index} out of range for {len(collection)} summands")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    step = 1 if side == "left" else -1
    t_i = collection[index]
    result: list[ProjComplex] = []
    for j, t_j in enumerate(collection):
        if j == index:
            result.append(minimize(shift(t_j, step)))
            continue
        g = _power_map(t_j, t_i, step, side)
        if g is None:
            result.append(minimize(t_j))
        elif side == "left":
            result.append(minimize(shift(cone(g), -1)))
        else:
            result.append(minimize(cone(g)))

    if isinstance(collection, Generated):
        return Generated(
            result, f"{side} mutation at {index + 1} of a certified collection"
        )
    return result
