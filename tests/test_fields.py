"""Field arithmetic: rationals, prime fields, and characteristic dispatch."""

import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import siltkit
from siltkit.fields import QQ, FpElement, PrimeField, field_of_characteristic

F5 = PrimeField(5)
F2 = PrimeField(2)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**4
)
f5_elements = st.integers(min_value=0, max_value=4).map(F5.coerce)


def test_characteristic_dispatch():
    assert field_of_characteristic(0) is QQ
    assert field_of_characteristic(5).characteristic == 5
    assert field_of_characteristic(2).characteristic == 2


def test_characteristic_rejects_composites():
    with pytest.raises(ValueError):
        field_of_characteristic(4)
    with pytest.raises(ValueError):
        field_of_characteristic(-3)
    with pytest.raises(ValueError):
        field_of_characteristic(1)


def test_rational_basics():
    assert (QQ.zero, QQ.one) == (0, 1)
    assert type(QQ.zero) is type(QQ.one) is int
    assert QQ.coerce("2/3") == Fraction(2, 3)
    assert type(QQ.coerce("4/2")) is type(QQ.coerce(Fraction(3))) is int
    assert QQ.characteristic == 0


def test_prime_field_basics():
    three = F5.coerce(3)
    assert three + three == F5.coerce(1)
    assert three * three == F5.coerce(4)
    assert -three == F5.coerce(2)
    assert (F5.one / three) * three == F5.one
    assert F5.coerce("7") == F5.coerce(2)


def test_prime_field_coerces_fractions():
    # 1/2 = 3 mod 5 since 2 * 3 = 1
    assert F5.coerce(Fraction(1, 2)) == F5.coerce(3)
    with pytest.raises(ZeroDivisionError):
        F5.coerce(Fraction(1, 5))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F5.one / F5.zero
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)


def test_scalars_are_divided_only_through_the_field():
    """``/`` on two ints gives a float, and an integral rational scalar is
    an int, so no module but ``fields.py`` may divide with ``/``."""
    root = pathlib.Path(siltkit.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_fp_element_repr_is_the_value():
    assert repr(F5.coerce(3)) == "3"


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero == a
    assert a * QQ.one == a


@given(f5_elements, f5_elements, f5_elements)
def test_prime_field_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + F5.zero == a
    assert a * F5.one == a
    assert a + (-a) == F5.zero


@given(f5_elements)
def test_prime_field_inverses(a):
    if a != F5.zero:
        assert a * (F5.one / a) == F5.one


def test_distinct_primes_do_not_mix():
    assert F5.coerce(3) != F2.coerce(1)


@given(rationals, rationals.filter(bool))
def test_rational_division_is_an_int_exactly_when_integral(a, b):
    for x, y in [(a, b), (QQ.coerce(a), QQ.coerce(b))]:
        q = QQ.div(x, y)
        assert q == a / b
        assert type(q) is (int if (a / b).denominator == 1 else Fraction)


@given(f5_elements, f5_elements.filter(bool))
def test_prime_field_division(a, b):
    assert F5.div(a, b) * b == a
