"""Minimal approximations and mutation of collections.

A left approximation of X by the additive closure of a generator list is
built universally (one copy of a generator per basis class of maps into it)
and then trimmed: copies are dropped one at a time, in order, whenever the
restricted map still induces surjections Hom(E', G) -> Hom(X, G) for every
generator G.  Because dropped copies only ever shrink the available maps, a
single forward pass lands on a genuinely minimal approximation.

Mutation at a chosen index replaces that summand by a cone construction and
keeps everything else; the heuristic simple-minded recipe re-verifies its
output and refuses to return an unverified collection unless asked to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MutationNotVerified
from ..linalg import rank
from .complexes import ChainMap, ProjComplex, cone, direct_sum, minimize, shift
from .homs import hom_space


@dataclass
class Approximation:
    """A minimal approximation map together with how many copies of each
    generator survived the trimming."""

    map: ChainMap
    multiplicities: dict[int, int]
    side: str


def _assemble_sum(parts: list[ProjComplex], algebra) -> ProjComplex:
    from .complexes import ProjComplex as PC

    total = PC(algebra, {}, {}, complete=True, check=False)
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
    return ChainMap(x, total, components, degree=0, check=False)


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
    return ChainMap(total, x, components, degree=0, check=False)


def _covers_target(space, compositions) -> bool:
    """Whether the classes of the given maps span the whole hom space."""
    classes = [space.class_coordinates(comp) for comp in compositions]
    return rank(space.complex.field, classes) == space.dimension


def left_approximation(x: ProjComplex, generators: list[ProjComplex]) -> Approximation:
    """The minimal left approximation X -> E with E in the additive closure
    of the generators."""
    copies: list[tuple[int, ChainMap]] = []
    for u, g in enumerate(generators):
        space = hom_space(x, g, 0)
        for rep in space.representatives:
            copies.append((u, rep))

    def is_approximation(kept: list[tuple[int, ChainMap]]) -> bool:
        parts = [generators[u] for u, _ in kept]
        f = _stack_to_sum(x, parts, [rep for _, rep in kept])
        total = f.target
        for g in generators:
            target_space = hom_space(x, g, 0)
            if target_space.dimension == 0:
                continue
            out_space = hom_space(total, g, 0)
            comps = [h.compose(f) for h in out_space.representatives]
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
    final = _stack_to_sum(x, [generators[u] for u, _ in kept], [rep for _, rep in kept])
    return Approximation(map=final, multiplicities=mults, side="left")


def right_approximation(x: ProjComplex, generators: list[ProjComplex]) -> Approximation:
    """The minimal right approximation E -> X with E in the additive closure
    of the generators."""
    copies: list[tuple[int, ChainMap]] = []
    for u, g in enumerate(generators):
        space = hom_space(g, x, 0)
        for rep in space.representatives:
            copies.append((u, rep))

    def is_approximation(kept: list[tuple[int, ChainMap]]) -> bool:
        parts = [generators[u] for u, _ in kept]
        f = _stack_from_sum(x, parts, [rep for _, rep in kept])
        total = f.source
        for g in generators:
            target_space = hom_space(g, x, 0)
            if target_space.dimension == 0:
                continue
            in_space = hom_space(g, total, 0)
            comps = [f.compose(h) for h in in_space.representatives]
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
    final = _stack_from_sum(x, [generators[u] for u, _ in kept], [rep for _, rep in kept])
    return Approximation(map=final, multiplicities=mults, side="right")


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


def _power_map_into(x: ProjComplex, g: ProjComplex, degree_shift: int) -> ChainMap | None:
    """Universal map x -> g[degree_shift]^d built from all hom classes."""
    target = shift(g, degree_shift)
    space = hom_space(x, target, 0)
    if space.dimension == 0:
        return None
    parts = [target for _ in space.representatives]
    return _stack_to_sum(x, parts, list(space.representatives))


def _power_map_from(x: ProjComplex, g: ProjComplex, degree_shift: int) -> ChainMap | None:
    """Universal map g[degree_shift]^d -> x built from all hom classes."""
    source = shift(g, degree_shift)
    space = hom_space(source, x, 0)
    if space.dimension == 0:
        return None
    parts = [source for _ in space.representatives]
    return _stack_from_sum(x, parts, list(space.representatives))


def smc_mutate(
    collection: list[ProjComplex],
    index: int,
    side: str = "left",
    verify: bool = True,
    seed: int = 0,
) -> list[ProjComplex]:
    """Mutation of a simple-minded collection at one index.

    The chosen summand is shifted; every other summand is corrected by the
    cone or cocone over the universal map out of (or into) the shifted
    summand's first extension space.  The outcome is then re-checked as a
    simple-minded collection, and MutationNotVerified is raised if the check
    fails; pass verify=False to skip the safety net.
    """
    if not 0 <= index < len(collection):
        raise IndexError(f"index {index} out of range for {len(collection)} summands")
    t_i = collection[index]
    result: list[ProjComplex] = []
    if side == "left":
        for j, t_j in enumerate(collection):
            if j == index:
                result.append(minimize(shift(t_j, 1)))
                continue
            g = _power_map_into(t_j, t_i, 1)
            if g is None:
                result.append(minimize(t_j))
                continue
            result.append(minimize(shift(cone(g), -1)))
    elif side == "right":
        for j, t_j in enumerate(collection):
            if j == index:
                result.append(minimize(shift(t_j, -1)))
                continue
            h = _power_map_from(t_j, t_i, -1)
            if h is None:
                result.append(minimize(t_j))
                continue
            result.append(minimize(cone(h)))
    else:
        raise ValueError("side must be 'left' or 'right'")

    if verify:
        from ..correspond.checks import check_smc

        report = check_smc(result, seed=seed)
        if not report.passed:
            raise MutationNotVerified(
                "mutated collection failed re-verification", report=report
            )
    return result
