"""Coefficient fields: exact rationals (default) and prime fields GF(p), p >= 5.

Polynomials never fix a field type; any value supporting +, -, *, /, ==
against its own kind and against Python ints, and ** with an int exponent,
works as a coefficient.
`fractions.Fraction` is the default.  Characteristics 2 and 3 are rejected
because divided-power arithmetic in those characteristics is outside the
supported scope.
"""

from __future__ import annotations

from fractions import Fraction


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
        if isinstance(value, PrimeFieldElement):
            if value.p != self.p:
                raise ValueError(f"element of GF({value.p}) given to GF({self.p})")
            return value
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return PrimeFieldElement(value.numerator * pow(den, self.p - 2, self.p), self.p)
        return PrimeFieldElement(int(value), self.p)

    @property
    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(0, self.p)

    def __repr__(self) -> str:
        return self.name
