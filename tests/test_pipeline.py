"""The lockstep mutation pipeline and the two-sided Koszul duality
check on whole pairs."""

import pytest

import siltkit.correspond.pipeline as pipeline_module
from conftest import INPUTS
from siltkit.cli import main
from siltkit.core.modules import RESOLUTION_BOUND
from siltkit.correspond.checks import check_pattern
from siltkit.correspond.pipeline import (
    graded_algebra_isomorphism,
    koszul_pair_check,
    lockstep_walk,
    standard_pair,
)
from siltkit.dg import cohomology_algebra, dg_end, path_algebra_to_dg, verify_dg_quasi_iso
from siltkit.errors import PatternFailed, TruncationUnsound
from siltkit.homotopy.compare import is_isomorphic
from siltkit.homotopy.complexes import Generated, shift, single_projective


def test_standard_pair_members(a2):
    silting, smc = standard_pair(a2)
    assert [x.label for x in silting] == ["P(1)", "P(2)"]
    assert [x.label for x in smc] == ["res(1)", "res(2)"]
    assert silting[0].summands == {0: ("1",)}
    assert smc[0].summands == {-1: ("2",), 0: ("1",)}
    assert smc[1].summands == {0: ("2",)}


def test_standard_pair_respects_the_resolution_bound(a3, loop2):
    """Resolutions that end make a Generated standard pair; loop2's simple
    has an unending resolution, which is refused naming the bound."""
    _, smc = standard_pair(a3)
    assert isinstance(smc, Generated)
    with pytest.raises(TruncationUnsound, match=f"RESOLUTION_BOUND = {RESOLUTION_BOUND}"):
        standard_pair(loop2)


def walk(algebra, script):
    """The standard pair of an algebra walked through a mutation script,
    as (silting, smc, certificate) for every pair, the start included."""
    silting, smc = standard_pair(algebra)
    return [(silting, smc, check_pattern(silting, smc))] + list(
        lockstep_walk(silting, smc, script)
    )


def test_empty_script_certifies_the_standard_pair(a2):
    trail = walk(a2, [])
    assert len(trail) == 1
    assert trail[0][2].bijection == (0, 1)


def test_left_mutation_lands_on_the_mixed_pair(a2):
    trail = walk(a2, [(2, "left")])
    silting, smc, _ = trail[-1]
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    _, smc0 = standard_pair(a2)
    assert is_isomorphic(silting[0], p1)
    assert is_isomorphic(silting[1], smc0[0])
    assert is_isomorphic(smc[0], p1)
    assert is_isomorphic(smc[1], shift(p2, 1))
    assert [c.verdicts["pattern"] for _, _, c in trail] == ["pass", "pass"]


def test_right_mutation_lands_on_the_shifted_pair(a2):
    silting, smc, _ = walk(a2, [(2, "right")])[-1]
    p2 = single_projective(a2, "2", 0)
    _, smc0 = standard_pair(a2)
    assert is_isomorphic(silting[1], shift(p2, -1))
    assert is_isomorphic(smc[0], smc0[0])
    assert is_isomorphic(smc[1], shift(p2, -1))


def test_mutating_back_and_forth_returns_home(a2):
    trail = walk(a2, [(2, "left"), (2, "right")])
    silting, smc, _ = trail[-1]
    silting0, smc0 = standard_pair(a2)
    for ours, original in zip(silting, silting0):
        assert is_isomorphic(ours, original)
    for ours, original in zip(smc, smc0):
        assert is_isomorphic(ours, original)
    assert len(trail) == 3


def test_script_validation(a2):
    with pytest.raises(ValueError, match="out of range"):
        walk(a2, [(3, "left")])
    with pytest.raises(ValueError, match="side"):
        walk(a2, [(1, "sideways")])


def test_failed_step_is_wrapped_and_numbered(monkeypatch, capsys):
    """A pattern failure mid-walk must surface from ``mutate`` as a
    numbered step failure rather than a bare exception."""

    def failing(silting, smc, seed=0, depth=3):
        raise PatternFailed("made to fail", witness=(0, 0, 0, 9))

    monkeypatch.setattr(pipeline_module, "check_pattern", failing)
    argv = ["mutate", str(INPUTS / "a2.alg"), str(INPUTS / "std.pair"), "--at", "2", "--left"]
    code = main(argv)
    assert code == 2
    assert "step 1 (left at index 2) failed: made to fail" in capsys.readouterr().out


def test_pipeline_over_the_bigger_quivers(a3, a3rel, kronecker):
    for algebra in (a3, a3rel, kronecker):
        trail = walk(algebra, [(1, "left"), (1, "right")])
        assert all(c.verdicts["pattern"] == "pass" for _, _, c in trail)


def koszul_of_walk(algebra, script):
    """The Koszul check of the pair a walk from the standard pair ends on,
    matched through that pair's pattern bijection."""
    silting, smc, certificate = walk(algebra, script)[-1]
    return koszul_pair_check(dg_end(silting), dg_end(smc), certificate.bijection)


def test_koszul_check_on_the_standard_pair(a2):
    report = koszul_pair_check(*map(dg_end, standard_pair(a2)), (0, 1))
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: smart truncation", "route: positive model"]


def test_koszul_check_on_the_left_mutated_pair(a2):
    report = koszul_of_walk(a2, [(2, "left")])
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: smart truncation", "route: positive model"]


def test_koszul_check_on_the_right_mutated_pair(a2):
    report = koszul_of_walk(a2, [(2, "right")])
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: smart truncation", "route: positive model"]


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


def test_an_unending_resolution_is_not_certified_and_names_the_bound(loop2):
    """Over the dual numbers the simple dg module has an infinite
    resolution, so the silting side's dual is refused naming the bound,
    and no dimension witness is taken from a truncated dual.  On the
    simple side H^0 is two-dimensional, more than the idempotent classes
    span, so no positive model exists."""
    D = path_algebra_to_dg(loop2)
    report = koszul_pair_check(D, D, (0,))
    assert report.verdict == "not-certified"
    computed = [item for item in report.items if "computed" in item.name]
    assert [item.detail for item in computed] == [
        "semifree resolution needs more than 3 stages (dim H^*(opposite) + 1)",
        "H^0 has dimension 2 and is not spanned by the classes of the 1 idempotents",
    ]
    assert not any(item.ok for item in computed)


@pytest.mark.parametrize("side", ["left", "right"])
def test_koszul_check_on_a_mutated_linear_a3_pair(a3, side):
    """After one mutation at 2 over linear A3 the silting side's degree-0
    part holds chain maps that are not cocycles, so E has no simple dg
    modules of its own; its smart truncation has them, and both duals
    match."""
    report = koszul_of_walk(a3, [(2, side)])
    assert report.verdict == "pass"
    routes = [item.detail for item in report.items if "computed" in item.name]
    assert routes == ["route: smart truncation", "route: positive model"]


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
