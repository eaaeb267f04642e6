"""The lockstep mutation pipeline and the two-sided Koszul duality
check on whole pairs."""

import pytest

import siltkit.correspond.pipeline as pipeline_module
import siltkit.dg.dga as dga_module
from siltkit.correspond.checks import check_pattern
from siltkit.correspond.pipeline import (
    PipelineResult,
    graded_algebra_isomorphism,
    koszul_pair_check,
    standard_pair,
    wt_pipeline,
)
from siltkit.dg import cohomology_algebra, dg_end, path_algebra_to_dg, verify_dg_quasi_iso
from siltkit.errors import PatternFailed, StepFailed
from siltkit.homotopy.compare import is_isomorphic
from siltkit.homotopy.complexes import shift, single_projective


def test_standard_pair_members(a2):
    silting, smc = standard_pair(a2)
    assert [x.label for x in silting] == ["P(1)", "P(2)"]
    assert [x.label for x in smc] == ["res(1)", "res(2)"]
    assert silting[0].summands == {0: ("1",)}
    assert smc[0].summands == {-1: ("2",), 0: ("1",)}
    assert smc[1].summands == {0: ("2",)}


def test_standard_pair_respects_the_resolution_bound(a3):
    _, smc = standard_pair(a3, resolution_bound=7)
    assert all(r.complete for r in smc)


def test_empty_script_certifies_the_standard_pair(a2):
    result = wt_pipeline(a2, [])
    assert isinstance(result, PipelineResult)
    assert len(result.pairs) == 1
    assert len(result.certificates) == 1
    assert result.certificates[0].bijection == (0, 1)


def test_left_mutation_lands_on_the_mixed_pair(a2):
    result = wt_pipeline(a2, [(2, "left")])
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    _, smc0 = standard_pair(a2)
    assert is_isomorphic(result.silting[0], p1)
    assert is_isomorphic(result.silting[1], smc0[0])
    assert is_isomorphic(result.smc[0], p1)
    assert is_isomorphic(result.smc[1], shift(p2, 1))
    assert [c.verdicts["pattern"] for c in result.certificates] == ["pass", "pass"]


def test_right_mutation_lands_on_the_shifted_pair(a2):
    result = wt_pipeline(a2, [(2, "right")])
    p2 = single_projective(a2, "2", 0)
    _, smc0 = standard_pair(a2)
    assert is_isomorphic(result.silting[1], shift(p2, -1))
    assert is_isomorphic(result.smc[0], smc0[0])
    assert is_isomorphic(result.smc[1], shift(p2, -1))


def test_mutating_back_and_forth_returns_home(a2):
    result = wt_pipeline(a2, [(2, "left"), (2, "right")])
    silting0, smc0 = standard_pair(a2)
    for ours, original in zip(result.silting, silting0):
        assert is_isomorphic(ours, original)
    for ours, original in zip(result.smc, smc0):
        assert is_isomorphic(ours, original)
    assert len(result.certificates) == 3


def test_script_validation(a2):
    with pytest.raises(ValueError, match="out of range"):
        wt_pipeline(a2, [(3, "left")])
    with pytest.raises(ValueError, match="side"):
        wt_pipeline(a2, [(1, "sideways")])


def test_failed_step_is_wrapped_and_numbered(a2, monkeypatch):
    """A pattern failure mid-walk must surface as a numbered step
    failure rather than a bare exception."""
    calls = {"n": 0}
    real = pipeline_module.check_pattern

    def wobbly(silting, smc, seed=0, depth=3):
        calls["n"] += 1
        if calls["n"] > 1:
            raise PatternFailed((0, 0, 0, 9), table=None)
        return real(silting, smc, seed=seed, depth=depth)

    monkeypatch.setattr(pipeline_module, "check_pattern", wobbly)
    with pytest.raises(StepFailed) as info:
        wt_pipeline(a2, [(2, "left")])
    assert info.value.step == 1
    assert "step 1" in str(info.value)


def test_pipeline_over_the_bigger_quivers(a3, a3rel, kronecker):
    for algebra in (a3, a3rel, kronecker):
        result = wt_pipeline(algebra, [(1, "left"), (1, "right")])
        assert all(c.verdicts["pattern"] == "pass" for c in result.certificates)


def koszul_of_walk(algebra, script):
    """The Koszul check of the pair a walk from the standard pair ends on,
    matched through that pair's pattern bijection."""
    result = wt_pipeline(algebra, script)
    E, F = dg_end(result.silting), dg_end(result.smc)
    return koszul_pair_check(E, F, result.certificates[-1].bijection)


def test_koszul_check_on_the_standard_pair(a2):
    report = koszul_pair_check(*map(dg_end, standard_pair(a2)), (0, 1))
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: direct", "route: formality"]


def test_koszul_check_on_the_left_mutated_pair(a2):
    report = koszul_of_walk(a2, [(2, "left")])
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: formality", "route: direct"]


def test_koszul_check_on_the_right_mutated_pair(a2):
    report = koszul_of_walk(a2, [(2, "right")])
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: direct", "route: formality"]


def test_koszul_check_never_overclaims_on_wide_arrow_spaces(kronecker):
    """Two independent dual routes agree on dimensions, but the cohomology
    algebras have two-dimensional arrow blocks, which the comparison does
    not match; the verdict then stays short of a pass."""
    report = koszul_pair_check(*map(dg_end, standard_pair(kronecker)), (0, 1))
    assert report.verdict == "not-certified"
    dims_items = [item for item in report.items if "dimensions" in item.name]
    assert dims_items and all(item.ok for item in dims_items)
    iso_items = [item for item in report.items if "matches" in item.name]
    assert iso_items and not any(item.ok for item in iso_items)


def test_koszul_check_matches_idempotents_through_the_bijection(a3rel):
    """With the simple side listed as res(2), res(3), res(1), silting
    member i pairs with simple member (i + 2) mod 3.  That matching
    certifies both sides; the identity and the inverse matching do not."""
    silting, smc = standard_pair(a3rel)
    smc = [smc[1], smc[2], smc[0]]
    bijection = check_pattern(silting, smc).bijection
    assert bijection == (2, 0, 1)
    E, F = dg_end(silting), dg_end(smc)
    assert koszul_pair_check(E, F, bijection).verdict == "pass"
    for wrong in ((0, 1, 2), (1, 2, 0)):
        assert koszul_pair_check(E, F, wrong).verdict == "not-certified"


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_formality_miss_names_where_it_stopped(a3, side):
    """After one mutation at 2 over linear A3 the silting side has no
    simple dg modules, and the linearised correction of its cocycle
    section (5 unknowns) has no solution: the budget played no part."""
    report = koszul_of_walk(a3, [(2, side)])
    (miss,) = [item for item in report.items if not item.ok]
    assert miss.name == "dual of the silting side computed"
    assert miss.detail == (
        "no formality witness: the linearised correction of the cocycle "
        "section has no solution (correction unknowns: 5)"
    )
    assert "budget" not in miss.detail.lower()
    assert report.verdict == "not-certified"


def test_a_formality_miss_over_the_budget_names_the_budget(monkeypatch, a3):
    monkeypatch.setattr(dga_module, "FORMALITY_BUDGET", 4)
    report = koszul_of_walk(a3, [(2, "left")])
    (miss,) = [item for item in report.items if not item.ok]
    assert miss.detail == (
        "no formality witness: 5 correction unknowns exceed FORMALITY_BUDGET = 4"
    )


#: The idempotent matching of two algebras over the vertices 1 and 2.
IDENTITY = {"1": "1", "2": "2"}


def test_graded_isomorphism_finds_the_identity(a2):
    D = path_algebra_to_dg(a2)
    found = graded_algebra_isomorphism(D, D, IDENTITY)
    assert found is not None
    assert verify_dg_quasi_iso(found)


def test_graded_isomorphism_rejects_different_shapes(a2):
    D = path_algebra_to_dg(a2)
    _, smc = standard_pair(a2)
    E = dg_end(smc)
    assert graded_algebra_isomorphism(D, E, IDENTITY) is None
    assert graded_algebra_isomorphism(D, cohomology_algebra(E), IDENTITY) is None
