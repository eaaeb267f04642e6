"""Canonical text forms for algebras, complexes, and collections, and
the content hash that certificates pin themselves to."""

from fractions import Fraction

from siltkit.core.algebras import build_algebra
from siltkit.core.quivers import Arrow, Quiver
from siltkit.correspond.pipeline import standard_pair
from siltkit.fields import QQ, PrimeField
from siltkit.homotopy.complexes import direct_sum, shift, single_projective
from siltkit.serialize import (
    algebra_hash,
    algebra_text,
    collection_text,
    complex_text,
    summand_line,
)

def test_algebra_hash_is_frozen_for_the_two_vertex_quiver(a2):
    assert (
        algebra_hash(a2)
        == "54c271ed3de2f894edb3c27061dc296d804ebc08b82f463e"
        "b2de6d9b0ce5db60"
    )


def test_algebra_hash_is_stable_across_rebuilds(a2):
    rebuilt = build_algebra(
        Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [], 2
    )
    assert algebra_hash(rebuilt) == algebra_hash(a2)


def test_algebra_hash_separates_the_fixtures(a2, a3, a3rel, kronecker, loop2):
    hashes = {algebra_hash(x) for x in (a2, a3, a3rel, kronecker, loop2)}
    assert len(hashes) == 5


def test_algebra_text_sections(a3rel):
    text = algebra_text(a3rel)
    assert text.index("[field]") < text.index("[vertices]")
    assert text.index("[vertices]") < text.index("[arrows]")
    assert text.index("[arrows]") < text.index("[relations]")
    assert text.index("[relations]") < text.index("[bound]")
    assert "a: 2 -> 1" in text
    assert "b: 3 -> 2" in text
    assert "a;b" in text
    assert "characteristic = 0" in text


def test_algebra_text_records_a_prime_field():
    modular = build_algebra(
        Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [], 2, field=PrimeField(5)
    )
    assert "characteristic = 5" in algebra_text(modular)


def test_complex_text_of_a_resolution(a2):
    _, smc = standard_pair(a2)
    assert complex_text("T1", smc[0]) == (
        "complex T1 {\n"
        "  deg -1: P2;\n"
        "  deg 0: P1;\n"
        "  d -1: a;\n"
        "}"
    )


def test_complex_text_drops_zero_differentials(a2):
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    text = complex_text("s", direct_sum(p1, shift(p2, 1)))
    assert "d " not in text
    assert "deg -1: P2;" in text
    assert "deg 0: P1;" in text


def test_collection_text_numbers_members_with_the_prefix(a2):
    _, smc = standard_pair(a2)
    text = collection_text("smc", "std", smc, "T")
    assert "complex T1 {" in text
    assert "complex T2 {" in text
    assert text.rstrip().endswith("smc std = [T1, T2]")


def test_summand_line_collects_repeats():
    assert summand_line(("1", "1", "2")) == "P1^2 + P2"
    assert summand_line(("2",)) == "P2"


def test_scalar_text_forms():
    assert str(QQ.one) == "1"
    assert str(QQ.coerce(-3)) == "-3"
    assert str(QQ.coerce(Fraction(1, 2))) == "1/2"
    assert str(PrimeField(5).coerce(3)) == "3"


def test_element_text_of_the_basis(a2):
    assert [str(b) for b in a2.basis] == ["e_1", "e_2", "a"]


def test_text_forms_are_deterministic(a2, a3rel):
    for algebra in (a2, a3rel):
        assert algebra_text(algebra) == algebra_text(algebra)
    _, smc = standard_pair(a2)
    assert collection_text("smc", "std", smc, "T") == collection_text(
        "smc", "std", smc, "T"
    )
