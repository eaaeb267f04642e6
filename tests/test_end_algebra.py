"""The dg endomorphism algebra of free dg modules, refereed by the Hom
complexes of the homotopy layer, and the dg layer's independence of it."""

import ast
import pathlib
import re

import pytest

import siltkit.dg
from siltkit.correspond.pipeline import standard_pair
from siltkit.dg import dg_end
from siltkit.homotopy.homs import HomComplex
from siltkit.homotopy.mutation import silting_mutate, smc_mutate

LABEL = re.compile(r"\[(\d+)->(\d+)\](-?\d+):(\d+)")


def block_index(E) -> dict[tuple[int, int, int, int], int]:
    """Global index of each (source, target, degree, local index) of a dg
    end, read off its labels; members are numbered from 0."""
    out = {}
    for i, label in enumerate(E.labels):
        s, t, n, loc = map(int, LABEL.fullmatch(label).groups())
        out[(s - 1, t - 1, n, loc)] = i
    return out


def pair_sides(algebra, mutated: bool) -> list[list]:
    silting, smc = standard_pair(algebra)
    if mutated:
        silting = silting_mutate(silting, 0, "left")
        smc = smc_mutate(smc, 0, "left")
    return [list(silting), list(smc)]


CASES = [("a2", False), ("a3rel", False), ("kronecker", False), ("a3rel", True)]


@pytest.mark.parametrize("name, mutated", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_dg_end_blocks_are_the_hom_complexes(name, mutated, request):
    """Every (s, t) block of dg_end has the basis, the differential and
    the composition of HomComplex(x_s, x_t)."""
    algebra = request.getfixturevalue(name)
    for members in pair_sides(algebra, mutated):
        E = dg_end(members)
        field = E.field
        index = block_index(E)
        homs = {
            (s, t): HomComplex(x, y)
            for s, x in enumerate(members)
            for t, y in enumerate(members)
        }
        assert len(index) == E.dimension == sum(
            hom.dimension(n) for hom in homs.values() for n in hom.basis
        )
        for (s, t), hom in homs.items():
            for n in hom.basis:
                position = {
                    index[(s, t, n + 1, row)]: row for row in range(hom.dimension(n + 1))
                }
                images = [
                    {
                        position[i]: c
                        for i, c in E.differential.get(index[(s, t, n, col)], {}).items()
                    }
                    for col in range(hom.dimension(n))
                ]
                assert images == hom.differential(n)

        for (s1, t1, n1, l1), i in index.items():
            for (s2, t2, n2, l2), j in index.items():
                got = E.products.get((i, j), {})
                if t2 != s1:
                    assert got == {}
                    continue
                vec = homs[(s1, t1)].compose(
                    {l1: field.one}, n1, homs[(s2, t2)], {l2: field.one}, n2, homs[(s2, t1)]
                )
                assert got == {index[(s2, t1, n1 + n2, k)]: c for k, c in vec.items()}


def test_the_dg_layer_does_not_import_the_homotopy_layer():
    """dg/ builds its ends from free dg modules; only the referee above
    reaches for HomComplex."""
    package = pathlib.Path(siltkit.dg.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "siltkit.dg".split(".")
                if node.level:
                    base = base[: len(base) - node.level + 1]
                    prefix = ".".join(base + ([node.module] if node.module else []))
                else:
                    prefix = node.module or ""
                names = [prefix] + [f"{prefix}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.split(".")[:2] == ["siltkit", "homotopy"] for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
