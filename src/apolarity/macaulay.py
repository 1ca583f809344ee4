"""Binomial expansions, the Macaulay growth bound, and O-sequence tests."""

from __future__ import annotations

from math import comb

from ._record import Record, setfield


class BinomialExpansion(Record):
    """Greedy i-binomial expansion: value = sum C(m_k, k), m_i > ... > m_j >= j >= 1."""

    __match_args__ = ("i", "terms")

    def __init__(self, i: int, terms: tuple):
        # terms: pairs (m_k, k), k descending from i
        setfield(self, "i", i)
        setfield(self, "terms", terms)

    def value(self) -> int:
        return sum(comb(m, k) for m, k in self.terms)


def binomial_expansion(value: int, i: int) -> BinomialExpansion:
    """The unique greedy i-binomial expansion of a nonnegative integer."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    if value != int(value):
        raise ValueError("value must be an integer")
    if i < 1:
        raise ValueError("i must be positive")
    terms = []
    remaining = value
    k = i
    while remaining > 0 and k >= 1:
        m = k
        while comb(m + 1, k) <= remaining:
            m += 1
        terms.append((m, k))
        remaining -= comb(m, k)
        k -= 1
    if remaining != 0:
        raise AssertionError("greedy expansion failed to terminate")
    return BinomialExpansion(i=i, terms=tuple(terms))


# (value, i) -> macaulay_bound(value, i), keyed by ints.  The enumerator
# asks for value < length and i < length, so this stays small.
_BOUNDS: dict = {}


def macaulay_bound(value: int, i: int) -> int:
    """Largest admissible next value after `value` in degree i.

    Shifts every term of the i-binomial expansion: sum C(m_k + 1, k + 1).
    The answer is memoized; invalid arguments raise on every call, since
    only successful computations are stored.  An integral value equal to
    a stored int (8.0 and 8) hashes alike and shares its entry.
    """
    bound = _BOUNDS.get((value, i))
    if bound is None:
        expansion = binomial_expansion(value, i)
        bound = _BOUNDS[int(value), int(i)] = sum(
            comb(m + 1, k + 1) for m, k in expansion.terms)
    return bound


def _step(prev: int, value: int, p: int) -> bool:
    """One Macaulay growth step: `value` at position p >= 2 after `prev`.

    A zero may follow anything; a positive value needs a positive `prev`,
    since growth from zero forces zero, and at most its Macaulay bound.
    """
    return value == 0 or (value > 0 and prev > 0 and value <= macaulay_bound(prev, p - 1))


def is_o_sequence(values, strictly_positive: bool = False) -> bool:
    """Whether a sequence satisfies H(0) = 1 and the Macaulay growth condition.

    Growth from a zero value forces zero, so internal zeros followed by
    nonzero values are rejected in either mode.  With `strictly_positive`,
    zero values are rejected outright (the socle-degree Hilbert-function
    mode); without it, zero tails are allowed (partial-sum mode).
    """
    values = tuple(values)
    return (values[:1] == (1,)
            and (len(values) < 2 or values[1] >= 0)
            and all(_step(values[p - 1], values[p], p) for p in range(2, len(values)))
            and not (strictly_positive and 0 in values))
