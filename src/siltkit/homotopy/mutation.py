"""Minimal approximations and mutation of collections.

A left approximation of X by the additive closure of a generator list is
built universally (one copy of a generator per basis class of maps into it)
and then trimmed: copies are dropped one at a time, in order, whenever the
restricted map still induces surjections Hom(E', G) -> Hom(X, G) for every
generator G.  Because dropped copies only ever shrink the available maps, a
single forward pass lands on a genuinely minimal approximation.

Mutation at a chosen index replaces that summand by a cone construction and
keeps everything else.  Simple-minded mutation does not verify its output;
callers check the result (``check_pattern`` runs ``check_smc``).  It passes
on a certified generation fact, since a mutation triangle leaves the thick
closure unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..linalg import rank
from .complexes import (
    ChainMap,
    Generated,
    ProjComplex,
    cone,
    direct_sum,
    minimize,
    shift,
)
from .homs import hom_space


@dataclass
class Approximation:
    """A minimal approximation map together with how many copies of each
    generator survived the trimming."""

    map: ChainMap
    multiplicities: dict[int, int]
    side: str


def _assemble_sum(parts: list[ProjComplex], algebra) -> ProjComplex:
    total = ProjComplex(algebra, {}, {}, check=False)
    for p in parts:
        total = direct_sum(total, p)
    return total


def _stack_to_sum(x: ProjComplex, parts: list[ProjComplex], maps: list[ChainMap]) -> ChainMap:
    """Column-stack maps X -> parts[t] into a single map X -> ⊕ parts."""
    algebra = x.algebra
    total = _assemble_sum(parts, algebra)
    components: dict[int, list] = {}
    for k in x.summands:
        cols = len(x.summands[k])
        rows_blocks = []
        for t, part in enumerate(parts):
            block_rows = len(part.summands.get(k, ()))
            mat = maps[t].component(k)
            for r in range(block_rows):
                rows_blocks.append([mat[r][c] for c in range(cols)])
        if rows_blocks:
            components[k] = rows_blocks
    return ChainMap(x, total, components, degree=0)


def _stack_from_sum(x: ProjComplex, parts: list[ProjComplex], maps: list[ChainMap]) -> ChainMap:
    """Row-stack maps parts[t] -> X into a single map ⊕ parts -> X."""
    algebra = x.algebra
    total = _assemble_sum(parts, algebra)
    components: dict[int, list] = {}
    for k in total.summands:
        rows = len(x.summands.get(k, ()))
        if rows == 0:
            continue
        mat = [[] for _ in range(rows)]
        for t, part in enumerate(parts):
            block_cols = len(part.summands.get(k, ()))
            sub = maps[t].component(k)
            for r in range(rows):
                for c in range(block_cols):
                    mat[r].append(sub[r][c])
        components[k] = mat
    return ChainMap(total, x, components, degree=0)


def _covers_target(space, compositions) -> bool:
    """Whether the classes of the given maps span the whole hom space."""
    classes = [space.class_coordinates(comp) for comp in compositions]
    return rank(space.complex.field, classes) == space.dimension


def _universal(
    x: ProjComplex, parts: list[ProjComplex], maps: list[ChainMap], side: str
) -> ChainMap:
    """The stacked map X -> ⊕ parts on the left side, ⊕ parts -> X on the
    right side."""
    if side == "left":
        return _stack_to_sum(x, parts, maps)
    return _stack_from_sum(x, parts, maps)


def _hom_0(x: ProjComplex, g: ProjComplex, side: str):
    """Hom(X, G) on the left side, Hom(G, X) on the right side, in degree 0."""
    return hom_space(x, g, 0) if side == "left" else hom_space(g, x, 0)


def _approximation(x: ProjComplex, generators: list[ProjComplex], side: str) -> Approximation:
    """The minimal left (X -> E) or right (E -> X) approximation of X with
    E in the additive closure of the generators."""
    spaces = [_hom_0(x, g, side) for g in generators]
    copies: list[tuple[int, ChainMap]] = []
    for u, space in enumerate(spaces):
        for rep in space.representatives:
            copies.append((u, rep))

    def stacked(kept: list[tuple[int, ChainMap]]) -> ChainMap:
        return _universal(x, [generators[u] for u, _ in kept], [rep for _, rep in kept], side)

    def is_approximation(kept: list[tuple[int, ChainMap]]) -> bool:
        f = stacked(kept)
        total = f.target if side == "left" else f.source
        for g, target_space in zip(generators, spaces):
            if target_space.dimension == 0:
                continue
            reps = _hom_0(total, g, side).representatives
            if side == "left":
                comps = [h.compose(f) for h in reps]
            else:
                comps = [f.compose(h) for h in reps]
            if not _covers_target(target_space, comps):
                return False
        return True

    kept = list(copies)
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
    return Approximation(map=stacked(kept), multiplicities=mults, side=side)


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
    parts = [other for _ in space.representatives]
    return _universal(x, parts, list(space.representatives), side)


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
