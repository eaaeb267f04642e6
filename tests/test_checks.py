"""Collection checkers: presilting/silting audits, simple-minded
collection audits, and the orthogonality-pattern certificate, refereed
as derived projective covers by the sympy oracle."""

import pytest

import siltkit.correspond.checks as checks
from conftest import INPUTS
from oracles import hom_cohomology_dims
from siltkit.cli.parsing import parse_collection_file
from siltkit.correspond.checks import (
    check_pattern,
    check_presilting,
    check_silting,
    check_smc,
    k0_matrix,
    pattern_table,
    support_window,
)
from siltkit.correspond.pipeline import standard_pair
from siltkit.errors import PatternFailed, TruncationUnsound
from siltkit.homotopy.complexes import Generated, direct_sum, shift, single_projective
from siltkit.homotopy.homs import HomComplex, hom_space


@pytest.fixture
def a2_cast(a2):
    silting, smc = standard_pair(a2)
    p1, p2 = (single_projective(a2, v, 0) for v in ("1", "2"))
    return {"silting": silting, "smc": smc, "p1": p1, "p2": p2}


def test_projective_stalks_are_presilting(a2_cast):
    report = check_presilting(a2_cast["silting"])
    assert report.verdict == "pass"
    assert all(item.ok for item in report.items)


def test_mixed_stalk_and_resolution_is_presilting(a2_cast):
    report = check_presilting([a2_cast["p1"], a2_cast["smc"][0]])
    assert report.verdict == "pass"


def test_resolved_simples_are_not_presilting(a2_cast):
    """The resolutions of the two simples extend one another, so a
    positive-degree hom survives."""
    report = check_presilting(a2_cast["smc"])
    assert report.verdict == "fail"
    assert report.witness == (0, 1, 1, 1)
    failing = [item for item in report.items if not item.ok]
    assert failing and "[1]" in failing[0].name


def test_standard_silting_certifies_with_closure(a2_cast):
    report = check_silting(a2_cast["silting"])
    assert report.verdict == "pass"
    names = [item.name for item in report.items]
    assert "class matrix is unimodular" in names
    assert "thick closure reaches all projectives" in names


def test_shifted_member_still_generates(a2_cast):
    report = check_silting([a2_cast["p1"], shift(a2_cast["p2"], -1)])
    assert report.verdict == "pass"


def test_doubled_member_fails_indecomposability(a2_cast):
    report = check_silting([direct_sum(a2_cast["p1"], a2_cast["p1"])])
    assert report.verdict == "fail"
    assert any(not item.ok for item in report.items)


def test_missing_class_fails_the_square_matrix_audit(a2_cast):
    report = check_silting([a2_cast["p1"]])
    assert report.verdict == "fail"
    (bad,) = [item for item in report.items if not item.ok]
    assert bad.name == "class matrix is square"


def test_exhausted_closure_budget_is_not_certified(a2_cast):
    report = check_silting([a2_cast["p1"], a2_cast["smc"][0]], depth=0)
    assert report.verdict == "not-certified"
    (bad,) = [item for item in report.items if not item.ok]
    assert "not reached" in bad.detail


def test_closure_search_names_the_node_cap_when_it_stops_there(a3, monkeypatch):
    monkeypatch.setattr(checks, "CLOSURE_NODE_CAP", 2)
    _, smc = standard_pair(a3)
    report = check_smc(list(smc))
    assert report.verdict == "not-certified"
    (bad,) = [item for item in report.items if not item.ok]
    assert bad.name == "thick closure reaches all projectives"
    assert "CLOSURE_NODE_CAP = 2" in bad.detail


def test_standard_collection_generates_by_provenance(a2_cast, searches):
    report = check_smc(a2_cast["smc"])
    assert report.verdict == "pass"
    generation = report.items[-1]
    assert generation.name == "thick closure reaches all projectives"
    assert generation.detail == "by provenance: standard collection"
    assert searches == []


def test_parsed_resolved_simples_generate_in_any_order(a2, searches):
    parsed = parse_collection_file("smc s = [res(simple 2), res(simple 1)]", a2)
    smc = parsed.sole("smc")
    assert isinstance(smc, Generated)
    assert check_smc(smc).verdict == "pass"
    assert searches == []


@pytest.mark.parametrize(
    "edit",
    [list, lambda g: g[:], lambda g: (shift(g[0], 1), g[1])],
    ids=["list", "slice", "member-swapped-for-its-shift"],
)
def test_an_edited_collection_loses_the_grant(a2_cast, searches, edit):
    edited = edit(a2_cast["smc"])
    assert not isinstance(edited, Generated)
    report = check_smc(edited)
    assert report.verdict == "pass"
    assert not report.items[-1].detail.startswith("by provenance")
    assert searches == [edited]


@pytest.mark.parametrize(
    "body",
    ["res(simple 1), res(simple 1)", "res(simple 1), res(simple 2)[1]"],
    ids=["repeated-vertex", "shifted-entry"],
)
def test_a_nonstandard_declaration_gets_no_grant(a2, searches, body):
    smc = parse_collection_file(f"smc s = [{body}]", a2).sole("smc")
    assert not isinstance(smc, Generated)
    report = check_smc(smc)
    assert report.verdict == "fail"
    assert not any("provenance" in item.detail for item in report.items)


def test_truncated_resolutions_get_no_grant(loop2):
    """A resolution longer than RESOLUTION_BOUND is refused, not cut off,
    so no truncation can carry a grant: neither the standard pair nor a
    declared collection of loop2 is handed out."""
    bound = r"res\(1\) is longer than RESOLUTION_BOUND = 12"
    with pytest.raises(TruncationUnsound, match=bound):
        standard_pair(loop2)
    parsed = parse_collection_file("smc s = [res(simple 1)]", loop2)
    with pytest.raises(TruncationUnsound, match=bound):
        parsed.sole("smc")


def test_resolved_simples_are_simple_minded(a2_cast):
    report = check_smc(a2_cast["smc"])
    assert report.verdict == "pass"
    assert any("negative" in item.name for item in report.items)


def test_stalk_and_shifted_stalk_smc(a2_cast):
    report = check_smc([a2_cast["p1"], shift(a2_cast["p2"], 1)])
    assert report.verdict == "pass"


def test_duplicated_class_is_not_simple_minded(a2_cast):
    member = a2_cast["smc"][0]
    report = check_smc([member, shift(member, 1)])
    assert report.verdict == "fail"
    assert report.witness is not None


def test_k0_matrices_of_the_standard_pair(a2_cast):
    assert k0_matrix(a2_cast["silting"]) == [[1, 1], [0, 1]]
    assert k0_matrix(a2_cast["smc"]) == [[1, 0], [0, 1]]


def test_support_window_bounds_the_hom_degrees(a2_cast):
    r1, r2 = a2_cast["smc"]
    assert support_window(r1, r2) == range(0, 2)
    assert support_window(r2, r1) == range(-1, 1)
    for x, y in ((r1, r2), (r2, r1)):
        lo, hi = min(support_window(x, y)), max(support_window(x, y))
        assert hom_space(x, y, lo - 1).dimension == 0
        assert hom_space(x, y, hi + 1).dimension == 0


def test_standard_pattern_certificate(a2, a2_cast):
    cert = check_pattern(a2_cast["silting"], a2_cast["smc"])
    assert cert.bijection == (0, 1)
    assert cert.seed == 0
    assert cert.verdicts == {"presilting": "pass", "smc": "pass", "pattern": "pass"}
    for (i, j), column in cert.table.items():
        for m, dim in column.items():
            expected = 1 if (j == cert.bijection[i] and m == 0) else 0
            assert dim == expected


def test_mutated_pair_certificate(a2_cast):
    silting = [a2_cast["p1"], a2_cast["smc"][0]]
    smc = [a2_cast["p1"], shift(a2_cast["p2"], 1)]
    cert = check_pattern(silting, smc)
    assert sorted(cert.bijection) == [0, 1]


def test_mismatched_pair_fails_with_a_located_witness(a2_cast):
    silting = a2_cast["silting"]
    smc = [a2_cast["p1"], shift(a2_cast["p2"], 1)]
    with pytest.raises(PatternFailed) as info:
        check_pattern(silting, smc)
    assert info.value.witness == (1, 1, -1, 1)
    assert info.value.table is not None


def test_pattern_requires_a_presilting_first_argument(a2_cast):
    with pytest.raises(PatternFailed) as info:
        check_pattern(a2_cast["smc"], a2_cast["smc"])
    assert info.value.witness == (0, 1, 1, 1)


def test_pattern_table_matches_the_certificate(a2_cast):
    cert = check_pattern(a2_cast["silting"], a2_cast["smc"])
    assert pattern_table(a2_cast["silting"], a2_cast["smc"]) == cert.table


def test_a_pattern_check_builds_each_hom_complex_once(a3, monkeypatch):
    """Every check reads one Hom table and the End dimensions come from
    the simple-minded check's table, so no ordered pair of objects gets a
    second Hom complex (the check used to make 36 builds over 21 pairs)."""
    builds = []
    real = HomComplex.__init__

    def counting(self, source, target):
        builds.append((source, target))
        real(self, source, target)

    monkeypatch.setattr(HomComplex, "__init__", counting)
    check_pattern(*standard_pair(a3))
    assert len({(id(x), id(y)) for x, y in builds}) == len(builds) == 21


def nonzero(table):
    """The nonzero entries of a Hom table as (i, j, m, dim)."""
    return {(i, j, m, d) for (i, j), row in table.items() for m, d in row.items() if d}


def test_projective_stalk_is_derived_projective(a2_cast):
    assert not nonzero(pattern_table([a2_cast["p1"]], a2_cast["smc"], lambda m: m != 0))


def test_resolution_is_not_derived_projective(a2_cast):
    table = pattern_table([a2_cast["smc"][0]], a2_cast["smc"], lambda m: m != 0)
    assert nonzero(table) == {(0, 1, 1, 1)}


def test_stalk_stays_derived_projective_after_mutation(a2_cast):
    smc = [a2_cast["p1"], shift(a2_cast["p2"], 1)]
    assert not nonzero(pattern_table([a2_cast["p1"]], smc, lambda m: m != 0))


def test_canonical_cover_of_the_top(a2_cast):
    """P(1) is the derived projective cover of the first simple: the
    pattern pairs them, and the map P(1) -> res(1) is no boundary."""
    cert = check_pattern(a2_cast["silting"], a2_cast["smc"])
    assert cert.bijection[0] == 0
    space = hom_space(a2_cast["p1"], a2_cast["smc"][0], 0)
    assert space.cohomology.coordinates(space.cohomology.reps[0]) == {0: 1}


def test_zero_map_is_no_cover(a2_cast):
    space = hom_space(a2_cast["p1"], a2_cast["smc"][0], 0)
    assert space.cohomology.coordinates({}) == {}


def test_decomposable_source_is_no_cover(a2_cast):
    summed = direct_sum(a2_cast["p1"], a2_cast["p2"])
    with pytest.raises(PatternFailed, match="presilting"):
        check_pattern([summed, a2_cast["p2"]], a2_cast["smc"])


def test_coheart_membership_of_a_projective(a2_cast):
    """P(1), a silting member, lies in both halves of the weight
    structure: its certificate row vanishes in every nonzero degree."""
    cert = check_pattern(a2_cast["silting"], a2_cast["smc"])
    assert {(j, m) for i, j, m, _ in nonzero(cert.table) if i == 0} == {(0, 0)}


def test_shifting_leaves_the_lower_weight_class(a2_cast):
    moved = shift(a2_cast["p1"], 1)
    assert not nonzero(pattern_table([moved], a2_cast["smc"], lambda m: m < 0))
    assert nonzero(pattern_table([moved], a2_cast["smc"], lambda m: m > 0))


def test_simple_sits_in_the_heart(a2_cast):
    r1 = a2_cast["smc"][0]
    assert not nonzero(pattern_table([r1], a2_cast["smc"], lambda m: m < 0))
    assert not nonzero(pattern_table(a2_cast["smc"], [r1], lambda m: m < 0))


@pytest.mark.parametrize(
    "algebra_name,pair_file",
    [
        ("a2", "std.pair"),
        ("a2", "ex46.pair"),
        ("a2", "ex47.pair"),
        ("kronecker", "std.pair"),
    ],
)
def test_the_oracle_sees_each_silting_member_as_a_derived_projective_cover(
    request, algebra_name, pair_file
):
    """What check_pattern certifies, refereed by sympy: Hom(P_i, L_j[m])
    vanishes for m != 0, and in degree 0 it is nonzero only at
    j = bijection[i], where it has dimension dim End(L_j)."""
    algebra = request.getfixturevalue(algebra_name)
    text = (INPUTS / pair_file).read_text(encoding="utf-8")
    silting, smc = parse_collection_file(text, algebra).pair()
    bijection = check_pattern(silting, smc).bijection
    for i, p in enumerate(silting):
        s = bijection[i]
        end = hom_cohomology_dims(algebra, smc[s], smc[s])[0]
        row = [hom_cohomology_dims(algebra, p, l) for l in smc]
        assert row == [{0: end} if j == s else {} for j in range(len(smc))]
