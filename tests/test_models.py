"""The one-sided models the Koszul check dualizes: the smart truncation of
the silting side's dg endomorphism algebra and the positive model of the
simple-minded side's, each refereed by ``verify_dg_quasi_iso`` on its
inclusion."""

import functools

import pytest

from conftest import linear_algebra_text
from siltkit.cli.parsing import parse_algebra
from siltkit.correspond.pipeline import lockstep_walk, standard_pair
from siltkit.dg import (
    GradedAlgebraMap,
    dg_end,
    path_algebra_to_dg,
    positive_model,
    smart_truncation,
    verify_dg_quasi_iso,
)
from siltkit.errors import Inconclusive
from siltkit.homotopy.complexes import shift, single_projective


@functools.cache
def algebra(family: str, n: int):
    return parse_algebra(linear_algebra_text(n, family == "rsz"))


def scripts(n: int) -> list[list[tuple[int, str]]]:
    """The empty script, every 1-step script and every 2-step script
    ``i l, i+1 r``, with ``n l, 1 r`` closing the cycle."""
    one_step = [[(i, side)] for i in range(1, n + 1) for side in ("left", "right")]
    return [[], *one_step, *([(i, "left"), (i % n + 1, "right")] for i in range(1, n + 1))]


def pair_cases():
    for n in (3, 4):
        for family in ("linear", "rsz"):
            for script in scripts(n):
                name = "-".join(f"{i}{side[0]}" for i, side in script) or "std"
                yield pytest.param(family, n, script, id=f"{family}-a{n}-{name}")


@pytest.mark.parametrize("family, n, script", pair_cases())
def test_both_models_are_quasi_isomorphic_to_their_side(family, n, script):
    silting, smc = standard_pair(algebra(family, n))
    for silting, smc, _ in lockstep_walk(silting, smc, script):
        pass  # keep the pair the walk ends on
    for model, X in ((smart_truncation, dg_end(silting)), (positive_model, dg_end(smc))):
        M = model(X)
        notes: list[str] = []
        assert verify_dg_quasi_iso(GradedAlgebraMap(M, X, M.section_reps), notes), notes


def test_the_smart_truncation_refuses_positive_cohomology(a2):
    F = dg_end(standard_pair(a2)[1])
    assert F.cohomology_dims() == {0: 2, 1: 1}
    with pytest.raises(Inconclusive, match="^H\\^1 has dimension 1"):
        smart_truncation(F)


def test_the_positive_model_refuses_the_dual_numbers(loop2):
    """H^0 of the dual numbers is two-dimensional, one more than the
    single idempotent class spans."""
    with pytest.raises(Inconclusive, match="^H\\^0 has dimension 2"):
        positive_model(path_algebra_to_dg(loop2))


def test_the_positive_model_refuses_negative_cohomology(a2):
    p1, p2 = (single_projective(a2, v, 0) for v in ("1", "2"))
    with pytest.raises(Inconclusive, match="^H\\^-1 has dimension 1"):
        positive_model(dg_end([p1, shift(p2, -1)]))
