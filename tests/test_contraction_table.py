"""The divisor-indexed contraction table and the paths that read it.

`poly._contraction_table(n, terms, k)` tabulates every nonzero contraction of
a term dict by a dual monomial of degree <= k, keyed by the monomials' int
keys.  Decoded, it is checked against a scan of all terms per dual monomial,
the way each alpha was contracted before the table.
`is_apolar` sums each generator's image from one table of F; it is checked
against contracting F by every generator.  `contract`, which scans f once per
term of its operator instead, is checked against the same scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from apolarity import apolar
from apolarity.apolar import annihilator_generators, is_apolar
from apolarity.poly import (
    DUAL,
    Polynomial,
    _contraction_table,
    contract,
    homogenize,
    monomials_up_to,
    parse,
)
from apolarity.scalars import PrimeField

from conftest import random_coefficient, random_polynomial

GF = PrimeField(32003)


def scan(terms: dict, alpha: tuple) -> dict:
    """y^alpha applied to a term dict by visiting every term."""
    out = {}
    for beta, coeff in terms.items():
        if all(b >= a for b, a in zip(beta, alpha)):
            out[tuple(b - a for b, a in zip(beta, alpha))] = coeff
    return out


def random_terms(rng: random.Random, nvars: int, field) -> dict:
    """A term dict of up to 12 terms of degree <= 6 with nonzero coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 12)):
        exponents = [0] * nvars
        for _ in range(rng.randint(0, 6) if nvars else 0):
            exponents[rng.randrange(nvars)] += 1
        value = field(random_coefficient(rng))
        if value != 0:
            terms[tuple(exponents)] = value
    return terms


def decoded(nvars: int, terms: dict, k=None) -> dict:
    """The contraction table of the terms up to k, keyed by exponent tuples."""
    keys, table = _contraction_table(nvars, terms, k)
    name = keys.monomial
    return {name(alpha): {name(m): c for m, c in image.items()} for alpha, image in table.items()}


def bounds_for(terms: dict, rng: random.Random):
    top = max((sum(beta) for beta in terms), default=0)
    return (None, 0, 1, rng.randint(0, top + 1), top)


class TestTableAgainstScan:
    @pytest.mark.parametrize("field", [Fraction, GF], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("nvars", range(5))
    def test_every_alpha_up_to_the_bound(self, rng, field, nvars):
        for _ in range(15):
            terms = random_terms(rng, nvars, field)
            top = max((sum(beta) for beta in terms), default=0)
            for k in bounds_for(terms, rng):
                table = decoded(nvars, terms, k)
                bound = top if k is None else k
                assert all(sum(alpha) <= bound for alpha in table)
                # one past the highest degree: every alpha there scans to 0
                for alpha in monomials_up_to(nvars, max(bound, top) + 1):
                    expected = scan(terms, alpha) if sum(alpha) <= bound else {}
                    if alpha in table:
                        # same terms, same coefficients, in the order of the scan
                        assert list(table[alpha].items()) == list(expected.items())
                    else:
                        assert expected == {}, (terms, k, alpha)

    def test_empty_terms_and_negative_bound(self):
        assert decoded(2, {}) == {}
        assert decoded(0, {(): Fraction(3)}) == {(): {(): Fraction(3)}}
        assert decoded(0, {(): Fraction(3)}, -1) == {}
        assert decoded(2, {(2, 1): Fraction(1)}, -1) == {}

    def test_worked_table(self):
        f = parse("x1^2*x2 + x2^2", 2)
        assert decoded(2, f.terms, 1) == {
            (0, 0): f.terms,
            (1, 0): {(1, 1): 1},
            (0, 1): {(2, 0): 1, (0, 1): 1},
        }


def random_operator(rng: random.Random, nvars: int, field, top: int) -> Polynomial:
    """A dual polynomial of up to 4 terms with at least one of degree above top."""
    terms = {alpha: field(random_coefficient(rng)) for alpha in
             (tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 3)))}
    high = [0] * nvars
    for _ in range(top + 1):
        high[rng.randrange(nvars)] += 1
    terms[tuple(high)] = field(rng.randint(1, 4))
    return Polynomial(nvars, terms, DUAL)


def scan_apply(psi: Polynomial, terms: dict) -> dict:
    """psi applied to a term dict by scanning it once per term of psi."""
    out: dict = {}
    for alpha, c in psi.terms.items():
        for beta, e in scan(terms, alpha).items():
            out[beta] = out.get(beta, 0) + c * e
    return {beta: c for beta, c in out.items() if c != 0}


def typed(terms: dict) -> dict:
    return {m: (type(c).__name__, c) for m, c in terms.items()}


class TestContractAgainstScan:
    """`contract` scans f once per term of psi, with no table."""

    @pytest.mark.parametrize("field", [Fraction, GF], ids=["QQ", "GF32003"])
    def test_random_operators(self, rng, field):
        for _ in range(40):
            nvars = rng.randint(1, 4)
            f = Polynomial(nvars, random_terms(rng, nvars, field))
            top = max((sum(beta) for beta in f.terms), default=0)
            for psi in (Polynomial.zero(nvars, DUAL),
                        Polynomial.constant(nvars, field(rng.randint(1, 4)), DUAL),
                        random_operator(rng, nvars, field, top)):
                assert typed(contract(psi, f).terms) == typed(scan_apply(psi, f.terms))


def homogeneous_duals(rng: random.Random, nvars: int, count: int, max_degree: int) -> list:
    return [random_polynomial(rng, nvars, rng.randint(1, max_degree), max_terms=3,
                              side=DUAL, homogeneous=True) for _ in range(count)]


def per_generator(generators, F) -> bool:
    return all(g.is_zero() or contract(g, F).is_zero() for g in generators)


def modular(p: Polynomial) -> Polynomial:
    return Polynomial(p.nvars, {e: GF(c) for e, c in p.terms.items()}, p.side)


class TestIsApolarEquivalence:
    def test_random_generator_lists(self, rng):
        outcomes = []
        for _ in range(60):
            nvars = rng.randint(1, 4)
            d = rng.randint(1, 4)
            F = random_polynomial(rng, nvars, d, max_terms=6, homogeneous=True)
            # degrees up to d + 1, so some generators are above deg F
            generators = homogeneous_duals(rng, nvars, rng.randint(0, 4), d + 1)
            if rng.random() < 0.3:
                generators.append(Polynomial.zero(nvars, DUAL))
            for field_F, field_gens in ((F, generators),
                                        (modular(F), [modular(g) for g in generators])):
                expected = per_generator(field_gens, field_F)
                assert is_apolar(field_gens, field_F) == expected, (field_F, field_gens)
                outcomes.append(expected)
        assert outcomes.count(True) > 10 and outcomes.count(False) > 10

    def test_annihilator_with_one_generator_that_does_not_kill(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 3, 3)
            F = homogenize(f, int(f.degree()))
            generators = [homogenize(g, int(g.degree()))
                          for g in annihilator_generators(f, int(f.degree()) + 1)]
            assert is_apolar(generators, F)
            # y^alpha for a term x^alpha of F contracts F to a nonzero constant
            spoiler = Polynomial.monomial(next(iter(F.terms)), Fraction(1), DUAL)
            for position in (0, len(generators) // 2, len(generators)):
                spoiled = generators[:position] + [spoiler] + generators[position:]
                assert not is_apolar(spoiled, F)
                assert not per_generator(spoiled, F)

    def test_zero_generators(self):
        F = parse("x0^3 + x1^3", 2, base=0)
        zero = Polynomial.zero(2, DUAL)
        assert is_apolar([zero, zero], F)
        assert not is_apolar([zero, parse("y0^3", 2, side=DUAL, base=0)], F)

    def test_generators_above_the_degree_of_F(self):
        F = parse("x0^3 + 2*x0*x1^2", 2, base=0)
        high = [parse("y0^4", 2, side=DUAL, base=0),
                parse("y0^2*y1^2 - y1^4", 2, side=DUAL, base=0)]
        assert is_apolar(high, F)
        assert not is_apolar(high + [parse("y1^2", 2, side=DUAL, base=0)], F)

    def test_empty_list(self):
        assert is_apolar([], parse("x0^3", 2, base=0))
        assert is_apolar([], Polynomial.zero(2))
        assert is_apolar(iter(()), parse("x0^2*x1", 2, base=0))


class TestOneTablePerCall:
    """Each call contracts its form once, through one table."""

    @staticmethod
    def counted(monkeypatch, module):
        built = []
        original = module._contraction_table

        def counting(nvars, terms, max_degree=None):
            built.append(max_degree)
            return original(nvars, terms, max_degree)

        monkeypatch.setattr(module, "_contraction_table", counting)
        return built

    def test_annihilator_generators(self, monkeypatch):
        built = self.counted(monkeypatch, apolar)
        f = parse("x1^3 + 2*x1*x2*x3 - x3^2 + x2", 3)
        generators = annihilator_generators(f, 4)
        assert built == [4]
        assert all(contract(g, f).is_zero() for g in generators)

    def test_is_apolar(self, monkeypatch):
        built = self.counted(monkeypatch, apolar)
        F = parse("x0^3 + x1^3 + x2^3 + 5*x0*x1*x2", 3, base=0)
        generators = [parse(text, 3, side=DUAL, base=0)
                      for text in ("y0*y1 - 5*y2^2", "y1*y2 - 5*y0^2", "y0*y2 - 5*y1^2",
                                   "y0^3 - y1^3", "y2^4")]
        assert is_apolar(generators, F)
        assert len(built) == 1
        assert not is_apolar(generators + [parse("y0", 3, side=DUAL, base=0)], F)
        assert len(built) == 2

    def test_exotic_extend(self, monkeypatch):
        from apolarity import witness

        built = self.counted(monkeypatch, witness)
        f = parse("x1^6 + x1^3*x2", 2)
        witness.exotic_extend(f, [parse("y1^2", 2, side=DUAL), parse("y1*y2", 2, side=DUAL)])
        assert len(built) == 1
