"""Silting and simple-minded mutation: the worked two-vertex walks."""

import pytest

from siltkit.core.modules import minimal_projective_resolution, simple_module
from siltkit.correspond.checks import check_pattern
from siltkit.errors import PatternFailed
from siltkit.homotopy.compare import is_isomorphic
from siltkit.homotopy.complexes import Generated, shift, single_projective
from siltkit.homotopy.mutation import (
    left_approximation,
    right_approximation,
    silting_mutate,
    smc_mutate,
)


def res(algebra, v):
    return minimal_projective_resolution(simple_module(algebra, v), 12)


def same_collection(xs, ys) -> bool:
    if len(xs) != len(ys):
        return False
    used = set()
    for x in xs:
        match = next(
            (i for i, y in enumerate(ys) if i not in used and is_isomorphic(x, y)),
            None,
        )
        if match is None:
            return False
        used.add(match)
    return True


@pytest.fixture()
def std_silting(a2):
    return [single_projective(a2, "1", 0), single_projective(a2, "2", 0)]


@pytest.fixture()
def std_smc(a2):
    return [res(a2, "1"), res(a2, "2")]


def test_left_silting_mutation_at_two(a2, std_silting):
    mutated = silting_mutate(std_silting, 1, "left")
    expected = [single_projective(a2, "1", 0), res(a2, "1")]
    assert same_collection(mutated, expected)


def test_right_silting_mutation_at_two(a2, std_silting):
    mutated = silting_mutate(std_silting, 1, "right")
    expected = [single_projective(a2, "1", 0), shift(single_projective(a2, "2", 0), -1)]
    assert same_collection(mutated, expected)


def test_silting_mutation_is_an_involution(std_silting):
    there = silting_mutate(std_silting, 1, "left")
    back = silting_mutate(there, 1, "right")
    assert same_collection(back, std_silting)
    there = silting_mutate(std_silting, 0, "right")
    back = silting_mutate(there, 0, "left")
    assert same_collection(back, std_silting)


def test_left_smc_mutation_at_two(a2, std_smc):
    mutated = smc_mutate(std_smc, 1, "left")
    expected = [single_projective(a2, "1", 0), shift(res(a2, "2"), 1)]
    assert same_collection(mutated, expected)


def test_right_smc_mutation_at_two(a2, std_smc):
    mutated = smc_mutate(std_smc, 1, "right")
    expected = [res(a2, "1"), shift(res(a2, "2"), -1)]
    assert same_collection(mutated, expected)


def test_smc_mutation_is_an_involution(std_smc):
    there = smc_mutate(std_smc, 1, "left")
    back = smc_mutate(there, 1, "right")
    assert same_collection(back, std_smc)


def test_smc_mutation_passes_the_grant_on(a2, std_smc):
    there = smc_mutate(Generated(std_smc, "standard collection"), 1, "left")
    assert there.route == "left mutation at 2 of a certified collection"
    back = smc_mutate(there, 0, "right")
    assert back.route == "right mutation at 1 of a certified collection"
    assert not isinstance(smc_mutate(std_smc, 1, "left"), Generated)


def test_smc_mutation_verification_rejects_junk(a2, std_silting, std_smc):
    broken = [std_smc[0], shift(std_smc[0], 1)]
    mutated = smc_mutate(broken, 0, "left")
    with pytest.raises(PatternFailed, match="simple-minded side fails"):
        check_pattern(silting_mutate(std_silting, 0, "left"), mutated)


def test_smc_mutation_without_verification_returns_something(a2, std_smc):
    broken = [std_smc[0], shift(std_smc[0], 1)]
    result = smc_mutate(broken, 0, "left")
    assert len(result) == 2


def test_left_approximation_of_p2_into_p1(a2):
    """The minimal left approximation of P2 in add(P1) is the arrow."""
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    approx = left_approximation(p2, [p1])
    assert approx.multiplicities == {0: 1}
    c = approx.map
    assert c.source is p2


def test_right_approximation_of_p1_from_p2(a2):
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    approx = right_approximation(p1, [p2])
    assert approx.map.target is p1


def test_mutation_preserves_size_and_the_other_members(a2, std_silting):
    mutated = silting_mutate(std_silting, 1, "left")
    assert len(mutated) == 2
    assert is_isomorphic(mutated[0], std_silting[0])


def test_mutation_rejects_bad_side(std_silting):
    with pytest.raises(ValueError):
        silting_mutate(std_silting, 0, "sideways")
