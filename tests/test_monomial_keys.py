"""Contraction tables on additive int monomial keys.

`poly._contraction_table` keys a monomial m of degree <= top in n variables
by K(m) = |m| B^n + sum m_i B^(n-1-i), B = top + 1.  These tests guard the
two ways a key could go wrong: two monomials sharing a key (a carry between
digits, from too small a base or from a monomial keyed above the table's
degree), and a key order that is not grlex.  The work counts pin what the
keys replaced: no grlex sort of a table and one table per call.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from apolarity import apolar, hilbert, poly, witness
from apolarity.apolar import (annihilator_generators, diff_space, is_apolar, local_scheme,
                              representative_operator)
from apolarity.poly import (DUAL, PRIMAL, Polynomial, _contract_terms, _contraction_table,
                            monomials_of_degree, monomials_up_to, parse)

from conftest import random_polynomial


def seeded_forms():
    """Seeded sparse forms, each with the pure powers x_i^d of its degree d
    added: a pure power has the largest exponent the table's base holds."""
    rng = random.Random(33)
    out = []
    for nvars in (1, 2, 3, 4):
        for degree in (1, 2, 3, 5, 8):
            f = random_polynomial(rng, nvars, degree, max_terms=4)
            d = int(f.degree())
            powers = {tuple(d if j == i else 0 for j in range(nvars)): Fraction(i + 2)
                      for i in range(nvars)}
            out.append(Polynomial(nvars, {**f.terms, **powers}))
    return out


FORMS = seeded_forms()


class TestKeys:
    @pytest.mark.parametrize("f", FORMS, ids=str)
    def test_every_keyed_image_decodes_to_the_scanned_image(self, f):
        d = int(f.degree())
        for max_degree in (None, 0, d // 2, d - 1, d, d + 2):
            if max_degree is not None and max_degree < 0:
                continue
            keys, table = _contraction_table(f.nvars, f.terms, max_degree)
            bound = d if max_degree is None else max_degree
            assert keys.top == max(d, bound)
            name = keys.monomial
            decoded = {name(alpha): {name(m): c for m, c in image.items()}
                       for alpha, image in table.items()}
            # no two alphas and no two terms of an image share a key
            assert len(decoded) == len(table)
            assert all(len(decoded[name(alpha)]) == len(image) for alpha, image in table.items())
            for alpha in monomials_up_to(f.nvars, bound):
                assert keys.key(alpha) // keys.unit == sum(alpha)
                expected = _contract_terms(f.terms, alpha)
                # same terms, same coefficients, in the order of the scan
                assert list(decoded.get(alpha, {}).items()) == list(expected.items()), alpha
            assert set(decoded) <= set(monomials_up_to(f.nvars, bound))

    @pytest.mark.parametrize("nvars,top", [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2)])
    def test_keys_rise_along_grlex_and_decode(self, nvars, top):
        keys = _contraction_table(nvars, {(top,) + (0,) * (nvars - 1): 1})[0]
        monomials = list(monomials_up_to(nvars, top))
        ranks = [keys.key(m) for m in monomials]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))
        assert [keys.monomial(k) for k in ranks] == monomials
        # contraction subtracts keys
        for beta in monomials:
            for alpha in monomials:
                if all(a <= b for a, b in zip(alpha, beta)):
                    shift = tuple(b - a for a, b in zip(alpha, beta))
                    assert keys.key(beta) - keys.key(alpha) == keys.key(shift)

    def test_terms_above_the_table_have_no_key(self):
        keys = _contraction_table(2, {(2, 0): 1, (0, 2): 1})[0]
        terms = {(3, 0): 1, (0, 3): 2, (1, 1): 3, (2, 0): 4}
        assert keys.keyed(terms) == {keys.key((1, 1)): 3, keys.key((2, 0)): 4}


class TestTargetsOutsideTheTable:
    """A target with a monomial above deg f, or with an exponent at or above
    the base, is on no contraction of f."""

    @pytest.mark.parametrize("f_text,target", [
        ("x1^2", "x1^3"),
        ("x1^2", "x1^2*x2"),
        ("x1^2 + x2^2", "x1^3"),
        ("x1^2 + x2^2", "1 + x2^3"),
        ("x1^3 + x2^3", "x1^4*x2"),
        ("x1^2*x2 + x2^3", "x2^5"),
    ])
    def test_contains_and_representative_operator(self, f_text, target):
        f, g = parse(f_text, 2), parse(target, 2)
        assert not diff_space(f).contains(g)
        for min_order in (0, 1):
            assert representative_operator(f, g, min_order) is None
        # what is below the degree of f still is found
        assert diff_space(f).contains(parse("1", 2))
        psi = representative_operator(f, parse("1", 2))
        assert psi is not None and poly.contract(psi, f) == parse("1", 2)

    def test_a_form_of_degree_zero(self):
        f = parse("3", 2)
        assert diff_space(f).contains(parse("1/2", 2))
        assert not diff_space(f).contains(parse("x1", 2))
        assert representative_operator(f, parse("x2", 2)) is None

    def test_is_apolar_with_terms_above_the_form_and_a_zero_form(self):
        F = parse("x0^3 + x0*x1^2", 2, base=0)

        def dual(text):
            return parse(text, 2, side=DUAL, base=0)

        assert is_apolar([dual("y0^4"), dual("y0^2*y1^2 - y1^4"), dual("y1^5")], F)
        assert is_apolar([dual("y0*y1^2 - y0^3 + y1^3")], F)
        assert not is_apolar([dual("y0*y1^2 - 2*y0^3 + y1^3")], F)
        assert not is_apolar([dual("y1^4"), dual("y1^2")], F)
        zero = Polynomial.zero(2)
        assert is_apolar([dual("y0"), dual("y1^7")], zero)
        with pytest.raises(ValueError):
            is_apolar([dual("y0 + y1^2")], zero)

    def test_exotic_extend_with_operator_terms_above_f(self):
        f = parse("x1^3 + x2^2", 2)
        # y1^4 is above deg f; it contracts f to 0 in every power
        phi = parse("y1^2 + y1^4", 2, side=DUAL)
        extended = witness.exotic_extend(f, [phi])
        assert extended == witness.exotic_extend(f, [parse("y1^2", 2, side=DUAL)])
        assert extended == parse("x1^3 + x2^2 + x1*x3", 3)


def cubic_in_nine() -> Polynomial:
    """A fixed dense cubic form in x0..x8, some coefficients fractional."""
    terms = {m: Fraction((7 * k) % 11 - 5, 1 + k % 3)
             for k, m in enumerate(monomials_of_degree(9, 3))}
    return Polynomial(9, terms, PRIMAL)


class TestWorkCounts:
    """Deterministic counts of the work the keys removed: no grlex sort and
    one contraction table per call."""

    @staticmethod
    def grlex_calls(monkeypatch) -> list:
        calls = [0]
        original = poly.grlex_key

        def counting(exponents):
            calls[0] += 1
            return original(exponents)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "apolarity" and hasattr(module, "grlex_key"):
                monkeypatch.setattr(module, "grlex_key", counting)
        return calls

    @staticmethod
    def tables(monkeypatch) -> list:
        built = []
        for module in (apolar, witness):
            original = module._contraction_table

            def counting(nvars, terms, max_degree=None, _original=original):
                built.append(max_degree)
                return _original(nvars, terms, max_degree)

            monkeypatch.setattr(module, "_contraction_table", counting)
        return built

    def test_no_grlex_key_call(self, monkeypatch):
        calls = self.grlex_calls(monkeypatch)
        f = parse("x1^200 + x2^200", 2)
        space = diff_space(f)
        # x1^k and x2^k are y1^(200 - k) f and y2^(200 - k) f
        assert len(space.orders) == 400
        assert all(o + g == 200 for o, g in zip(space.orders, space.degrees))
        assert calls[0] == 0
        decomposition = hilbert.symmetric_decomposition(f)
        assert tuple(decomposition.hilbert()) == (1,) + (2,) * 199 + (1,)
        assert calls[0] == 0
        scheme = local_scheme(cubic_in_nine(), parse("x0 + x1 - x8", 9, base=0))
        assert scheme.apolarity_checked and scheme.length == 18
        assert calls[0] == 0

    def test_one_table_per_call(self, monkeypatch):
        built = self.tables(monkeypatch)
        f = parse("x1^3*x2 + x2^4 + x1*x2", 2)
        space = diff_space(f)
        assert built == [None] and space.dim == 9
        space.orders, space.rows, space.linear_partials(0)
        assert space.contains(f) and not space.contains(parse("x1^5", 2))
        assert built == [None]
        annihilator_generators(f, 5)
        assert built == [None, 5]
        F = parse("x0^3 + x1^3 + x0*x1*x2", 3, base=0)
        assert is_apolar([parse("y2^2", 3, side=DUAL, base=0),
                          parse("y0^4", 3, side=DUAL, base=0)], F)
        assert len(built) == 3
