"""Exact coefficient fields.

Two fields are supported: the rationals (the default) and prime fields F_p.
A rational scalar is a plain ``int`` when it is integral and a
:class:`fractions.Fraction` otherwise; prime-field scalars are
:class:`FpElement` wrappers.  Both support ``+ - *``, equality, hashing, and
are falsy exactly at zero.  Scalars are divided only through ``field.div``,
since ``/`` on two ints gives a float; that is all the linear algebra layer
relies on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class FpElement:
    """An element of F_p.  Immutable; arithmetic returns new elements.

    Mixed arithmetic with ``int`` is allowed and reduces the integer mod p.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other) -> "FpElement | None":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


Rational = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rational(value: Fraction) -> Rational:
    """``value`` as an int when it is integral."""
    return value.numerator if value.denominator == 1 else value


class RationalField:
    """The field of exact rationals.

    Integral scalars are plain ints, so the 0 and +-1 that make up almost
    every structure constant cost int arithmetic; only a true fraction is a
    :class:`Fraction`.  ``coerce`` and ``div`` are the only places that
    normalise: a ``Fraction(n, 1)`` that arithmetic leaves behind is still
    exact, and compares, hashes and prints like ``n``.
    """

    characteristic = 0
    zero = 0
    one = 1

    def coerce(self, value) -> Rational:
        """Turn an int, Fraction, or literal string like ``-3/4`` into a scalar."""
        if isinstance(value, int):
            return value
        if isinstance(value, (Fraction, str)):
            return _rational(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into the rational field")

    def div(self, a: Rational, b: Rational) -> Rational:
        """The exact quotient a / b: an int when it is integral."""
        if isinstance(a, int) and isinstance(b, int):
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _rational(a / b)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError(f"element of F_{value.p} used in F_{self.p}")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, (str, Fraction)):
            frac = Fraction(value)
            if frac.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"literal {value} has denominator divisible by {self.p}"
                )
            num = FpElement(frac.numerator, self.p)
            den = FpElement(frac.denominator, self.p)
            return num / den
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def div(self, a: FpElement, b: FpElement) -> FpElement:
        """The quotient a / b in F_p."""
        return a / b

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

Field = Union[RationalField, PrimeField]


def field_of_characteristic(char: int) -> Field:
    """The coefficient field with the given characteristic (0 or a prime)."""
    if char == 0:
        return QQ
    return PrimeField(char)
