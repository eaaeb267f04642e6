"""Parsers for the declarative algebra and collection file formats,
with 1-based error positions."""

import pytest

from siltkit.cli.parsing import (
    parse_algebra,
    parse_collection_file,
    parse_element,
    parse_matrix,
)
from siltkit.errors import ParseError, UnknownVertex
from siltkit.serialize import algebra_hash, algebra_text

A2_TEXT = """\
[field]
characteristic = 0

[vertices]
1
2

[arrows]
a: 2 -> 1

[bound]
2
"""


def test_algebra_file_roundtrip(a2, a3rel):
    for algebra in (a2, a3rel):
        again = parse_algebra(algebra_text(algebra))
        assert algebra_hash(again) == algebra_hash(algebra)


def test_characteristic_override():
    modular = parse_algebra(A2_TEXT, characteristic=5)
    assert modular.field.characteristic == 5
    assert modular.dimension == 3


def test_comments_and_blank_lines_are_ignored():
    noisy = "# heading\n" + A2_TEXT.replace("a: 2 -> 1", "a: 2 -> 1  # arrow")
    assert algebra_hash(parse_algebra(noisy)) == algebra_hash(parse_algebra(A2_TEXT))


def test_undeclared_arrow_endpoint_is_located():
    bad = "[vertices]\n1\n\n[arrows]\nz: 1 -> 9\n\n[bound]\n1"
    with pytest.raises(ParseError) as info:
        parse_algebra(bad)
    assert info.value.line == 5
    assert "undeclared endpoint" in str(info.value)


def test_bad_bound_is_located():
    bad = A2_TEXT.replace("2\n", "zero\n", 1).replace("[bound]\n2", "[bound]\nzero")
    with pytest.raises(ParseError, match="positive integer"):
        parse_algebra("[field]\ncharacteristic = 0\n\n[vertices]\n1\n\n[bound]\nzero")


def test_composite_characteristic_is_rejected():
    bad = A2_TEXT.replace("characteristic = 0", "characteristic = 4")
    with pytest.raises(ParseError, match="prime"):
        parse_algebra(bad)


def test_element_grammar(a2, a3, kronecker):
    assert str(parse_element("e_1", a2)) == "e_1"
    assert parse_element("0", a2).is_zero()
    combo = parse_element("1/2 a - b", kronecker)
    assert str(combo) == "1/2 a - b"
    assert str(parse_element("a;b", a3)) == "a;b"


def test_non_composable_word_is_rejected(a3):
    with pytest.raises(ParseError, match="do not compose"):
        parse_element("a;a", a3)


def test_unknown_arrow_is_rejected(a2):
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_element("q", a2)


def test_matrix_grammar(kronecker):
    m = parse_matrix("a, b | 0, e_1", kronecker, 1)
    assert [len(row) for row in m] == [2, 2]
    assert str(m[0][1]) == "b"
    assert m[1][0].is_zero()


def test_ragged_matrix_is_rejected(kronecker):
    with pytest.raises(ParseError, match="different lengths"):
        parse_matrix("a, b | 0", kronecker, 3)


def test_collection_file_blocks_and_shorthands(a2):
    parsed = parse_collection_file(
        "complex C {\n"
        "  deg -1: P2;\n"
        "  deg 0: P1;\n"
        "  d -1: a;\n"
        "}\n"
        "silting ex = [proj(1), C[1]]\n"
        "smc partner = [res(simple 1), res(simple 2)]\n",
        a2,
    )
    assert list(parsed.complexes) == ["C"]
    ex = parsed.silting["ex"]
    assert ex[0].summands == {0: ("1",)}
    assert ex[1].summands == {-2: ("2",), -1: ("1",)}
    partner = parsed.smc["partner"]
    assert partner[0].summands == {-1: ("2",), 0: ("1",)}
    assert partner[1].summands == {0: ("2",)}


def test_negative_shift_shorthand(a2):
    parsed = parse_collection_file("silting s = [proj(2)[-1], proj(1)]", a2)
    assert parsed.silting["s"][0].summands == {1: ("2",)}


def test_unknown_member_name_is_located(a2):
    with pytest.raises(ParseError, match="unknown complex 'mystery'"):
        parse_collection_file("silting s = [mystery]", a2)


def test_unknown_projective_vertex_in_a_block(a2):
    with pytest.raises(UnknownVertex):
        parse_collection_file("complex C {\n  deg 0: P9;\n}", a2)


def test_differential_shape_mismatch_is_located(a2):
    with pytest.raises(ParseError, match="should be 0 x 1"):
        parse_collection_file("complex C {\n  deg 0: P1;\n  d 0: a;\n}", a2)


def test_unterminated_collection_list(a2):
    with pytest.raises(ParseError, match="cannot parse"):
        parse_collection_file("silting s = [proj(1)", a2)


def test_sole_requires_exactly_one_declaration(a2):
    parsed = parse_collection_file("smc t = [res(simple 1), res(simple 2)]", a2)
    assert len(parsed.sole("smc")) == 2
    with pytest.raises(ParseError, match="found 0"):
        parsed.sole("silting")
    doubled = parse_collection_file(
        "silting a = [proj(1)]\nsilting b = [proj(2)]", a2
    )
    with pytest.raises(ParseError, match="found 2"):
        doubled.sole("silting")
