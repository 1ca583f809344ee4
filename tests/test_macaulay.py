"""Binomial expansions and Macaulay growth, cross-checked against oracles."""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest

from apolarity.macaulay import binomial_expansion, is_o_sequence, macaulay_bound


def all_expansions(value: int, i: int, cap: int = 60):
    """Every decreasing expansion value = sum C(m_k, k), m_i > ... > m_j >= j >= 1."""
    results = []

    def descend(remaining, k, upper, terms):
        if remaining == 0:
            results.append(tuple(terms))
            return
        if k < 1:
            return
        for m in range(k, upper):
            c = comb(m, k)
            if c > remaining:
                break
            terms.append((m, k))
            descend(remaining - c, k - 1, m, terms)
            terms.pop()

    descend(value, i, cap, [])
    return results


class TestBinomialExpansion:
    def test_small_example(self):
        assert binomial_expansion(5, 2).terms == ((3, 2), (2, 1))

    def test_zero(self):
        assert binomial_expansion(0, 3).terms == ()

    def test_exact_binomial(self):
        assert binomial_expansion(comb(10, 4), 4).terms == ((10, 4),)

    def test_unique_expansion_oracle(self):
        # for every value <= 50 the decreasing expansion exists and is unique
        for i in (1, 2, 3, 4):
            for value in range(0, 51):
                expansions = all_expansions(value, i)
                if value == 0:
                    assert expansions == [()]
                    continue
                assert len(expansions) == 1, (value, i, expansions)
                assert binomial_expansion(value, i).terms == expansions[0]

    def test_reconstruction(self):
        rng = random.Random(11)
        for i in range(1, 11):
            for value in itertools.chain(range(0, 400), (rng.randrange(10 ** 6) for _ in range(40))):
                assert binomial_expansion(value, i).value() == value

    def test_strictly_decreasing_m(self):
        for i in range(1, 8):
            for value in range(0, 200):
                terms = binomial_expansion(value, i).terms
                ms = [m for m, _ in terms]
                ks = [k for _, k in terms]
                assert all(a > b for a, b in zip(ms, ms[1:]))
                assert ks == list(range(i, i - len(ks), -1))
                if terms:
                    assert terms[-1][0] >= terms[-1][1] >= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial_expansion(-1, 2)
        with pytest.raises(ValueError):
            binomial_expansion(3, 0)


def lex_growth_oracle(value: int, i: int) -> int:
    """Max next value via the extremal lex-segment monomial algebra.

    Take the `value` lex-smallest degree-i monomials in the fewest
    variables accommodating them; count the degree-(i+1) monomials all of
    whose degree-i divisors lie in that set.
    """
    m = 1
    while comb(m + i - 1, i) < value:
        m += 1
    monomials = sorted(_monomials(m, i), reverse=True)
    allowed = set(monomials[len(monomials) - value:])
    count = 0
    for candidate in _monomials(m, i + 1):
        ok = True
        for index in range(m):
            if candidate[index]:
                divisor = list(candidate)
                divisor[index] -= 1
                if tuple(divisor) not in allowed:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def _monomials(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for rest in _monomials(nvars - 1, degree - head):
            yield (head,) + rest


class TestMacaulayBound:
    def test_worked_values(self):
        assert macaulay_bound(8, 1) == 36
        assert macaulay_bound(5, 2) == 7
        assert macaulay_bound(0, 3) == 0

    def test_monotone_in_value(self):
        for i in (1, 2, 3, 4):
            previous = -1
            for value in range(0, 200):
                bound = macaulay_bound(value, i)
                assert bound >= previous
                previous = bound

    def test_against_lex_segment_oracle(self):
        cases = [(v, 1) for v in range(1, 31)]
        cases += [(v, 2) for v in range(1, 31)]
        cases += [(v, 3) for v in range(1, 31)]
        for value, i in cases:
            assert macaulay_bound(value, i) == lex_growth_oracle(value, i), (value, i)


class TestIsOSequence:
    def test_worked_lists(self):
        assert is_o_sequence((1, 8, 7, 1))
        assert not is_o_sequence((1, 2, 4))
        assert is_o_sequence((1,))

    def test_zero_handling(self):
        assert is_o_sequence((1, 2, 0, 0))
        assert not is_o_sequence((1, 2, 0, 0), strictly_positive=True)
        assert not is_o_sequence((1, 0, 1))
        assert not is_o_sequence((0, 1))
        assert not is_o_sequence((1, -1))

    def test_first_step_unconstrained(self):
        assert is_o_sequence((1, 9, 45))
        assert not is_o_sequence((1, 9, 46))

    def test_agrees_with_stepwise_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            length = rng.randint(1, 5)
            seq = [1] + [rng.randint(0, 12) for _ in range(length)]
            expected = True
            for i in range(1, len(seq)):
                if seq[i] == 0:
                    if any(seq[i:]):
                        expected = False
                    break
                if i >= 2 and seq[i] > macaulay_bound(seq[i - 1], i - 1):
                    expected = False
                    break
            assert is_o_sequence(seq) == expected, seq


class TestMacaulayBoundMemo:
    def test_invalid_arguments_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                macaulay_bound(-1, 2)
            with pytest.raises(ValueError):
                macaulay_bound(3, 0)
            assert macaulay_bound(3, 2) == 4

    def test_repeated_calls_match_oracle(self):
        cases = [(v, i) for i in (1, 2, 3) for v in range(1, 16)]
        for _ in range(2):
            for value, i in cases:
                assert macaulay_bound(value, i) == lex_growth_oracle(value, i), (value, i)

    def test_non_int_arguments_are_not_answered_from_the_memo(self):
        from apolarity import macaulay

        assert macaulay_bound(1001.0, 5) == macaulay_bound(1001, 5)
        assert macaulay_bound(8, 1) == 36
        assert macaulay_bound(8.0, 1) == 36
        assert all(type(v) is int and type(i) is int for v, i in macaulay._BOUNDS)

    def test_stays_a_plain_function_bound_by_the_enumerator(self):
        # profilers and tracers that wrap module-level functions rely on both
        import inspect

        import apolarity.enumeration
        import apolarity.macaulay

        assert inspect.isfunction(apolarity.macaulay.macaulay_bound)
        assert apolarity.enumeration.macaulay_bound is apolarity.macaulay.macaulay_bound


class TestNonIntegralValues:
    def test_binomial_expansion_rejects_them(self):
        from fractions import Fraction

        for value in (2.5, Fraction(7, 2), 0.5):
            with pytest.raises(ValueError, match="must be an integer"):
                binomial_expansion(value, 2)

    def test_macaulay_bound_and_is_o_sequence_reject_them(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="must be an integer"):
                macaulay_bound(2.5, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            is_o_sequence((1, 2.5, 3))

    def test_integral_floats_still_answered(self):
        assert macaulay_bound(8.0, 1) == 36
        assert binomial_expansion(5.0, 2).terms == ((3, 2), (2, 1))
