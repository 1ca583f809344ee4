"""Coefficient fields: exact rationals (default) and prime fields GF(p), p >= 5.

Polynomials never fix a field type; any value supporting +, -, *, /, ==
against its own kind and against Python ints, and ** with an int exponent,
works as a coefficient.
`fractions.Fraction` is the default.  Characteristics 2 and 3 are rejected
because divided-power arithmetic in those characteristics is outside the
supported scope.

The exact kernels (`linalg.MonomialSpan`, `poly.dp_substitute`,
`apolar.is_apolar` and the contraction tables of `apolar`) compute with
Python ints; field scalars exist only at their boundary, and the one rule
for crossing it lives here.  `characteristic` takes the field from the
values together: a `PrimeFieldElement` anywhere fixes GF(p), otherwise the
values are rationals.  Each computation reads it once from its inputs and
names it to the spans it builds.  `to_integers` then writes the values as
ints over one denominator: over GF(p) residues in [0, p) over 1, an int or
a `Fraction` coerced by `PrimeFieldElement._coerce`, as `PrimeField` does
(a denominator divisible by p raises `ZeroDivisionError`); over the
rationals numerators over the least common denominator.  `from_integers`
turns ints over a denominator back into field scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Rationals:
    """The rational field; elements are `fractions.Fraction` values."""

    name = "QQ"
    characteristic = 0

    def __call__(self, value) -> Fraction:
        if isinstance(value, float):
            raise TypeError("floating-point input rejected; use Fraction or int")
        return Fraction(value)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    def __repr__(self) -> str:
        return "QQ"


RATIONALS = Rationals()


def one_like(x):
    """The one of the field that the scalar x (zero included) belongs to;
    its zero is `one - one`."""
    return x ** 0


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeFieldElement:
    """Element of GF(p), stored reduced to [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields GF({self.p}) and GF({other.p})")
            return other.value
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            den = other.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return other.numerator * pow(den, self.p - 2, self.p)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return PrimeFieldElement(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return PrimeFieldElement(v * pow(self.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __pow__(self, exponent: int):
        if exponent < 0 and self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return PrimeFieldElement(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fraction):
            return other.denominator == 1 and self.value == other.numerator % self.p
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the int or Fraction in [0, p) that it equals
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"GF({self.p})({self.value})"


class PrimeField:
    """GF(p) for a prime p >= 5; callable to coerce ints and Fractions."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in (2, 3):
            raise ValueError("characteristics 2 and 3 are not supported")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p

    def __call__(self, value) -> PrimeFieldElement:
        if isinstance(value, float):
            raise TypeError("floating-point input rejected; use Fraction or int")
        if isinstance(value, PrimeFieldElement) and value.p != self.p:
            raise ValueError(f"element of GF({value.p}) given to GF({self.p})")
        return self.zero + value  # coerced by `PrimeFieldElement._coerce`

    @property
    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(0, self.p)

    def __repr__(self) -> str:
        return self.name


def characteristic(*groups) -> int:
    """p when a `PrimeFieldElement` of GF(p) is among the values of the
    iterables `groups` (the first one found), else 0, the rationals."""
    for values in groups:
        for c in values:
            if isinstance(c, PrimeFieldElement):
                return c.p
    return 0


def to_integers(values, p: int) -> tuple:
    """(ints, den): the list of ints w with values[k] = w[k] / den in the
    field of characteristic p.  Over GF(p) den = 1 and w holds residues;
    over the rationals a GF(q) value raises `ValueError`."""
    if p:
        coerce = PrimeFieldElement(0, p)._coerce
        return [coerce(c) % p for c in values], 1
    values = list(values)
    den = 1
    try:
        for c in values:
            if (d := c.denominator) != 1:
                den = lcm(den, d)
    except AttributeError:
        if q := characteristic(values):
            raise ValueError(f"an element of GF({q}) given to a computation over QQ") from None
        raise
    if den == 1:
        return [c.numerator for c in values], 1
    return [c.numerator * (den // c.denominator) for c in values], den


def from_integers(ints, den: int, p: int) -> list:
    """The field scalars ints[k] / den in the field of characteristic p;
    den is 1 over GF(p), as `to_integers` gives it."""
    if p:
        return [PrimeFieldElement(c, p) for c in ints]
    if den == 1:
        return [Fraction(c) for c in ints]
    return [Fraction(c, den) for c in ints]
