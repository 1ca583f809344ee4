"""Polynomial core: parsing, contraction, (de)homogenization."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from apolarity.poly import (
    DUAL,
    PRIMAL,
    NEG_INFINITY,
    ParseError,
    Polynomial,
    _contract_terms,
    _contraction_table,
    _drop_first,
    contract,
    dehomogenize,
    dp_substitute,
    grlex_key,
    homogenize,
    monomials_of_degree,
    monomials_up_to,
    parse,
    poly_str,
)
from apolarity.scalars import RATIONALS, PrimeField, PrimeFieldElement

from conftest import _invert_matrix, dense_substitution_oracle, random_polynomial, terms_of_degree


class TestParse:
    def test_direct_transcription(self):
        f = parse("x1^2*x2 + x2^2", 2)
        assert f.terms == {(2, 1): 1, (0, 2): 1}

    def test_zero(self):
        assert parse("0", 3).is_zero()
        assert parse("0", 3).degree() == NEG_INFINITY

    def test_worked_sextic(self):
        f = parse("x1^6 + x1^3*x2", 2)
        assert f.terms == {(6, 0): 1, (3, 1): 1}

    def test_rational_coefficients_and_signs(self):
        f = parse("3/2*x1^2 - x2 + 5", 2)
        assert f.terms == {(2, 0): Fraction(3, 2), (0, 1): -1, (0, 0): 5}
        assert parse("x1 +x2 -3", 2).terms == {(1, 0): 1, (0, 1): 1, (0, 0): -3}

    def test_repeated_factors_add_exponents(self):
        assert parse("x1*x1*x2", 2) == parse("x1^2*x2", 2)

    def test_zero_base_indexing(self):
        f = parse("x0^3 + x0*x1^2", 2, base=0)
        assert f.terms == {(3, 0): 1, (1, 2): 1}

    def test_round_trip_with_printer(self, rng):
        for _ in range(50):
            f = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5))
            assert parse(poly_str(f), f.nvars) == f

    def test_dual_round_trip(self):
        psi = parse("-y2 + y1^3", 2, side=DUAL)
        assert parse(poly_str(psi), 2, side=DUAL) == psi

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse("x1 + * x2", 2)
        assert "position" in str(info.value)

    @pytest.mark.parametrize("text,message", [
        ("x1*", "expected a coefficient or a variable"),
        ("x1*+x2", "expected a coefficient or a variable"),
        ("2*3", "unexpected number"),
        ("x1*2", "unexpected number"),
    ])
    def test_misplaced_factor(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse(text, 2)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse("x3", 2)
        with pytest.raises(ParseError):
            parse("x0", 2)  # base 1: x0 not allowed

    def test_division_by_zero_literal(self):
        with pytest.raises(ParseError):
            parse("1/0*x1", 2)

    def test_wrong_side_letter(self):
        with pytest.raises(ParseError):
            parse("y1", 2, side=PRIMAL)


class TestContract:
    def test_quadric_partial(self):
        f = parse("x1^2*x2 + x2^2", 2)
        assert contract(parse("y2", 2, side=DUAL), f) == parse("x1^2 + x2", 2)

    def test_identity_operator(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 3, 4)
            one = Polynomial.constant(3, Fraction(1), DUAL)
            assert contract(one, f) == f

    def test_order_one_operator_extracts_hidden_variable(self):
        f = parse("x1^6 + x1^3*x2", 2)
        psi = parse("-y2 + y1^3", 2, side=DUAL)
        assert contract(psi, f) == parse("x2", 2)

    def test_no_multinomial_coefficients(self):
        # y1(x1^2) = x1 with coefficient 1 in the divided-power convention
        assert contract(parse("y1", 1, side=DUAL), parse("x1^2", 1)) == parse("x1", 1)

    def test_module_action(self, rng):
        for _ in range(20):
            f = random_polynomial(rng, 3, 5)
            a = random_polynomial(rng, 3, 2, side=DUAL)
            b = random_polynomial(rng, 3, 2, side=DUAL)
            assert contract(a * b, f) == contract(a, contract(b, f))

    def test_bilinearity(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 2, 4)
            g = random_polynomial(rng, 2, 4)
            a = random_polynomial(rng, 2, 2, side=DUAL)
            b = random_polynomial(rng, 2, 2, side=DUAL)
            assert contract(a + b, f + g) == (
                contract(a, f) + contract(a, g) + contract(b, f) + contract(b, g)
            )

    def test_degree_drop(self, rng):
        for _ in range(20):
            f = random_polynomial(rng, 3, 5)
            psi = random_polynomial(rng, 3, 3, side=DUAL)
            image = contract(psi, f)
            if not image.is_zero():
                assert image.degree() <= f.degree() - psi.order()

    def test_side_and_arity_errors(self):
        f = parse("x1", 1)
        with pytest.raises(ValueError):
            contract(f, f)
        with pytest.raises(ValueError):
            contract(parse("y1", 2, side=DUAL), f)


def decoded(nvars: int, terms: dict, k=None) -> dict:
    """The contraction table of the terms up to k, keyed by exponent tuples."""
    keys, table = _contraction_table(nvars, terms, k)
    name = keys.monomial
    return {name(alpha): {name(m): c for m, c in image.items()} for alpha, image in table.items()}


class TestContractionsUnderABudget:
    """`_contraction_table` with max_degree below a term's degree keeps only
    the divisors within the budget, and makes no other."""

    @pytest.mark.parametrize("nvars,degree", [(1, 7), (2, 9), (3, 5), (4, 4), (6, 3)])
    def test_binding_budgets_against_contract_terms(self, nvars, degree):
        # a dense polynomial of every degree <= degree, cut below its degree
        rng = random.Random(nvars * 100 + degree)
        terms = {m: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
                 for m in reversed(list(monomials_up_to(nvars, degree)))}
        for k in range(degree):
            table = decoded(nvars, terms, k)
            expected = {alpha: _contract_terms(terms, alpha)
                        for alpha in monomials_up_to(nvars, k)}
            assert list(table) != [] and set(table) == set(expected)
            for alpha, image in table.items():
                # the same terms, in the order of `terms`
                assert list(image.items()) == list(expected[alpha].items()), (k, alpha)

    @pytest.mark.parametrize("nvars", [12, 16])
    def test_wide_squarefree_term_makes_only_the_divisors_within(self, nvars):
        tracemalloc.start()
        try:
            keys, table = _contraction_table(nvars, {(1,) * nvars: 7}, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 1 + nvars + nvars * (nvars - 1) // 2
        assert all(alpha // keys.unit <= 2 for alpha in table)
        # a table of the 2^nvars divisors of the whole term, 4,096 and more,
        # takes megabytes; the budget's hundred or so take tens of kilobytes
        assert peak < 400_000, peak


def monomials_by_brute_force(nvars: int, degree: int) -> list:
    """Exponent vectors of the degree, lexicographically descending, from
    all vectors with entries <= degree (the last entry is the degree left)."""
    if nvars == 0:
        return [()] if degree == 0 else []
    found = [head + (degree - sum(head),)
             for head in itertools.product(range(degree + 1), repeat=nvars - 1)
             if sum(head) <= degree]
    return sorted(found, reverse=True)


class TestMonomials:
    @pytest.mark.parametrize("nvars", range(10))
    def test_of_degree_against_brute_force(self, nvars):
        for degree in range(6):
            assert list(monomials_of_degree(nvars, degree)) == \
                monomials_by_brute_force(nvars, degree), (nvars, degree)

    @pytest.mark.parametrize("nvars", range(7))
    def test_up_to_is_each_degree_sorted(self, nvars):
        # the annihilator's generators come in this order, so the digests
        # that pin them depend on it
        for degree in range(7):
            expected = [m for d in range(degree + 1) for m in sorted(monomials_of_degree(nvars, d))]
            assert list(monomials_up_to(nvars, degree)) == expected
            assert expected == sorted(expected, key=grlex_key)


class TestPolynomialClass:
    def test_constructors(self):
        assert Polynomial.variable(2, 1) == parse("x2", 2)
        assert Polynomial.monomial((1, 2)) == parse("x1*x2^2", 2)
        with pytest.raises(ValueError):
            Polynomial.variable(2, 2)

    def test_equality_compares_terms_ring_and_side(self):
        assert parse("x1", 2) != parse("x2", 2)
        assert parse("x1", 1) != parse("x1", 2)
        assert parse("x1", 2) != parse("y1", 2, side=DUAL)

    def test_pad_and_restrict(self):
        f = parse("x1^2*x2", 2)
        assert f.restrict(2) == f
        assert f.pad(3).restrict(2) == f
        with pytest.raises(ValueError):
            f.restrict(3)
        with pytest.raises(ValueError):
            f.restrict(1)  # x2 occurs
        with pytest.raises(ValueError):
            f.pad(1)

    def test_no_scalar_or_difference_operators(self):
        # scaling, negation and subtraction are not part of the ring API
        f, g = parse("x1^2 + x2", 2), parse("x1", 2)
        with pytest.raises(TypeError):
            f * 2
        with pytest.raises(TypeError):
            2 * f
        with pytest.raises(TypeError):
            f - g
        with pytest.raises(TypeError):
            -f

    def test_sum_with_a_non_polynomial_is_a_type_error(self):
        f = parse("x1", 1)
        with pytest.raises(TypeError):
            f + 2
        with pytest.raises(TypeError):
            2 + f
        with pytest.raises(TypeError):
            f + "x1"

    @pytest.mark.parametrize("f", [
        parse("x1^2 + 3*x2", 2),
        parse("y1*y2 - 1/2*y1^3", 2, side=DUAL),
        parse("x1^2 + 3*x2", 2, field=PrimeField(7)),
        Polynomial.zero(3),
    ], ids=("QQ", "dual", "GF(7)", "zero"))
    def test_copy_and_pickle_round_trips(self, f):
        # __slots__ state used to be restored through the refusing __setattr__
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and g is not f
            assert [type(c) for c in g.terms.values()] == [type(c) for c in f.terms.values()]
            with pytest.raises(AttributeError, match="immutable"):
                g.nvars = 1

    def test_products_stay_on_their_side(self):
        assert parse("x1", 2) * parse("x1*x2", 2) == parse("2*x1^2*x2", 2)
        assert parse("y1", 2, side=DUAL) * parse("y1*y2", 2, side=DUAL) == parse("y1^2*y2", 2, side=DUAL)
        with pytest.raises(ValueError):
            parse("x1", 2) * parse("y1", 2, side=DUAL)
        with pytest.raises(ValueError):
            parse("x1", 2) + parse("x1", 3)


class TestHomogenize:
    def test_inverse_of_dehomogenize_example(self):
        g = parse("1 + x1^2", 1)
        G = homogenize(g, 3)
        assert G == parse("x0^3 + x0*x1^2", 2, base=0)

    def test_zero(self):
        assert homogenize(Polynomial.zero(3), 5).is_zero()

    def test_exact_degree(self, rng):
        g = random_polynomial(rng, 2, 4)
        G = homogenize(g, int(g.degree()))
        assert G.is_homogeneous() and G.degree() == g.degree()
        # leading component keeps zero exponent on the new variable
        top = terms_of_degree(g, lambda k: k == g.degree())
        for exponents, coeff in top.terms.items():
            assert G.terms[(0,) + exponents] == coeff

    def test_below_degree_rejected(self):
        with pytest.raises(ValueError):
            homogenize(parse("x1^3", 1), 2)

    def test_round_trip(self, rng):
        for _ in range(20):
            g = random_polynomial(rng, 3, 4)
            d = int(g.degree()) + rng.randint(0, 2)
            G = homogenize(g, d)
            x0 = Polynomial.variable(4, 0)
            back, _ = dehomogenize(G, x0)
            assert back == g


class TestDehomogenize:
    def test_coordinate_substitution(self):
        F = parse("x0^3 + x0*x1^2", 2, base=0)
        f, _ = dehomogenize(F, Polynomial.variable(2, 0))
        assert f == parse("1 + x1^2", 1)

    def test_monomial(self):
        F = parse("x0^2*x1", 2, base=0)
        f, _ = dehomogenize(F, Polynomial.variable(2, 0))
        assert f == parse("x1", 1)

    def test_general_linear_form_against_dense_oracle(self, rng):
        for _ in range(15):
            n = rng.randint(2, 4)
            F = random_polynomial(rng, n, 3, homogeneous=True)
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            l = Polynomial(
                n,
                {
                    tuple(1 if j == i else 0 for j in range(n)): c
                    for i, c in enumerate(coeffs)
                    if c != 0
                },
                PRIMAL,
            )
            f, record = dehomogenize(F, l)
            oracle = dense_substitution_oracle(F, record.old_to_new)
            dropped = {}
            for exponents, coeff in oracle.terms.items():
                dropped[exponents[1:]] = dropped.get(exponents[1:], 0) + coeff
            assert f == Polynomial(n - 1, dropped, PRIMAL)

    def test_injectivity_round_trip(self, rng):
        # degree-d forms inject onto polynomials of degree <= d
        for _ in range(10):
            n = rng.randint(2, 3)
            F = random_polynomial(rng, n, 3, homogeneous=True)
            l = parse("x0 + x1", n, base=0)
            f, record = dehomogenize(F, l)
            assert f.degree() <= F.degree()
            rebuilt = record.unapply(homogenize(f, int(F.degree())))
            assert rebuilt == F

    def test_first_coordinate_gives_the_identity_record(self, rng):
        # l = x0 takes the general path: the identity inverts to itself
        for n in (1, 2, 3):
            F = random_polynomial(rng, n, 3, homogeneous=True)
            if F.is_zero():
                continue
            f, record = dehomogenize(F, Polynomial.variable(n, 0))
            identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            assert record.old_to_new == record.new_to_old == identity
            assert record.dropped == 0
            assert homogenize(f, int(F.degree())) == F

    def test_homogenized_image_is_the_substituted_form(self, rng):
        # F is homogeneous, so dropping the first variable merges no terms
        for _ in range(10):
            n = rng.randint(2, 4)
            F = random_polynomial(rng, n, 3, homogeneous=True)
            if F.is_zero():
                continue
            l = parse(" + ".join(f"{rng.randint(1, 3)}*x{i}" for i in range(n)), n, base=0)
            f, record = dehomogenize(F, l)
            assert homogenize(f, int(F.degree())) == dp_substitute(F, record.old_to_new)

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(32003)], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("support", ["2*x0 - x1 + 3*x3", "3*x1 - x2 + 2*x3", "-2*x3"],
                             ids=["pivot-first", "pivot-middle", "pivot-last"])
    def test_record_is_an_inverse_pair_at_every_pivot(self, field, support):
        F = parse("x0^3 + 2*x0*x1*x2 - x1^2*x3 + 3*x2^3 + x0*x3^2", 4, base=0, field=field)
        f, record = dehomogenize(F, parse(support, 4, base=0, field=field))

        def typed(matrix):
            return [[(type(c), c) for c in row] for row in matrix]

        assert typed(record.old_to_new) == typed(_invert_matrix(record.new_to_old))
        assert record.unapply(homogenize(f, int(F.degree()))) == F

    def test_divisible_case_loses_top_degree(self):
        # x0 + x1 divides x0^3 + x1^3, so the cubic part of the image vanishes
        F = parse("x0^3 + x1^3", 2, base=0)
        f, _ = dehomogenize(F, parse("x0 + x1", 2, base=0))
        assert f == parse("1 - x1 + x1^2", 1)

    def test_generic_case_keeps_top_degree(self):
        F = parse("x0^3 + x0*x1^2", 2, base=0)
        f, _ = dehomogenize(F, parse("x0 + x1", 2, base=0))
        assert f.degree() == 3

    def test_errors(self):
        F = parse("x0^2", 1, base=0)
        with pytest.raises(ValueError):
            dehomogenize(F, Polynomial.zero(1))
        with pytest.raises(ValueError):
            dehomogenize(F, parse("x0^2", 1, base=0))
        with pytest.raises(ValueError):
            dehomogenize(parse("x0^2 + x0", 1, base=0), Polynomial.variable(1, 0))
        with pytest.raises(ValueError):
            dehomogenize(F, parse("y0", 1, side=DUAL, base=0))


class TestTailLemma:
    def test_tail_equality(self, rng):
        # degree-(deg F - deg Psi) tails of the two contraction routes agree
        for _ in range(40):
            n = rng.randint(2, 4)
            F = random_polynomial(rng, n, rng.randint(1, 4), homogeneous=True)
            Psi = random_polynomial(
                rng, n, rng.randint(0, int(F.degree())), side=DUAL, homogeneous=True
            )
            f = _pi(F)
            psi = _drop_first(Psi)
            cutoff = int(F.degree() - Psi.degree())
            if cutoff < 0:
                continue
            lhs = terms_of_degree(_pi(contract(Psi, F)), lambda k: k <= cutoff)
            rhs = terms_of_degree(contract(psi, f), lambda k: k <= cutoff)
            assert lhs == rhs

    def test_divisible_case_is_exact(self, rng):
        # when x0^(deg Psi) divides F the two routes agree on the nose
        for _ in range(20):
            n = rng.randint(2, 3)
            g = random_polynomial(rng, n - 1, 3)
            b = rng.randint(0, 2)
            F = homogenize(g, int(g.degree()) + b)
            Psi = random_polynomial(rng, n, b, side=DUAL, homogeneous=True) if b else None
            if Psi is None:
                continue
            assert _pi(contract(Psi, F)) == contract(_drop_first(Psi), _pi(F))

    def test_local_zero_lifts_to_global_zero(self, rng):
        from apolarity.apolar import annihilator_generators

        for _ in range(10):
            f = random_polynomial(rng, 2, 4)
            for psi in annihilator_generators(f, int(f.degree()) + 1):
                for extra in (0, 1):
                    Psi = homogenize(psi, int(psi.degree()) + extra)
                    F = homogenize(f, int(f.degree()) + extra)
                    assert contract(Psi, F).is_zero()


def _in_field(f: Polynomial, field) -> Polynomial:
    return Polynomial(f.nvars, {e: field(c) for e, c in f.terms.items()}, f.side)


def _pi(F: Polynomial) -> Polynomial:
    terms = {}
    for exponents, coeff in F.terms.items():
        key = exponents[1:]
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(F.nvars - 1, terms, PRIMAL)


class TestPrimeField:
    def test_contraction_matches_rationals_on_integer_input(self):
        gf = PrimeField(7)
        f = parse("x1^2*x2 + x2^2", 2, field=gf)
        image = contract(parse("y2", 2, side=DUAL, field=gf), f)
        assert image == parse("x1^2 + x2", 2, field=gf)

    def test_char_2_and_3_rejected(self):
        for p in (2, 3, 4, 9):
            with pytest.raises(ValueError):
                PrimeField(p)

    def test_float_inputs_rejected(self):
        from apolarity.scalars import RATIONALS

        with pytest.raises(TypeError):
            RATIONALS(0.5)
        with pytest.raises(TypeError):
            PrimeField(5)(0.5)

    def test_arithmetic(self):
        gf = PrimeField(5)
        a = gf(7)
        assert a == 2
        assert a + 4 == 1
        assert a * 3 == 1
        assert (a / gf(3)) * gf(3) == a
        assert a ** 3 == 3
        assert a ** -1 * a == 1

    def test_hash_agrees_with_the_equal_int_and_fraction(self):
        gf = PrimeField(7)
        assert hash(gf(10)) == hash(3) == hash(Fraction(3))
        assert {((1, 0), gf(1))} == {((1, 0), Fraction(1))}

    def test_dehomogenize_round_trip_over_prime_field(self):
        gf = PrimeField(7)
        F = parse("x0^3 + 2*x0*x1^2 + x1^3", 2, base=0, field=gf)
        l = parse("x0 + 3*x1", 2, base=0, field=gf)
        f, record = dehomogenize(F, l)
        assert record.unapply(homogenize(f, 3)) == F


class TestDpSubstitute:
    def test_against_dense_oracle(self, rng):
        for _ in range(15):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            f = random_polynomial(rng, n, 4)
            images = [
                [Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)
            ]
            assert dp_substitute(f, images) == dense_substitution_oracle(f, images)
        # images with denominators, f up to degree 6 and mostly not
        # homogeneous (terms below the top degree are scaled up by the
        # images' denominator), and the GF(32003) twin against the oracle
        # reduced mod p
        gf = PrimeField(32003)
        homogeneous = 0
        for _ in range(15):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            f = random_polynomial(rng, n, 6)
            homogeneous += f.is_homogeneous()
            images = [
                [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5])) for _ in range(m)]
                for _ in range(n)
            ]
            expected = dense_substitution_oracle(f, images)
            assert dp_substitute(f, images) == expected
            modular = [[gf(c) for c in row] for row in images]
            assert dp_substitute(_in_field(f, gf), modular) == _in_field(expected, gf)
        assert homogeneous < 5

    def test_ragged_images_are_rejected(self):
        f = parse("x1*x2 + x2^2", 2)
        for images in ([[1, 0], [1]], [[1], [1, 2]]):
            with pytest.raises(ValueError, match="equal length"):
                dp_substitute(f, images)

    def test_mixed_fields_give_the_prime_field(self):
        gf = PrimeField(7)
        f = parse("x1*x2 + x2^2", 2)
        image = dp_substitute(f, [[gf(1), Fraction(1, 2)], [1, 0]])
        # x1 -> x1 + 4*x2 (1/2 = 4 in GF(7)), x2 -> x1
        assert image == parse("3*x1^2 + 4*x1*x2", 2, field=gf)
        assert all(type(c) is PrimeFieldElement for c in image.terms.values())

    def test_identity(self, rng):
        f = random_polynomial(rng, 3, 4)
        identity = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert dp_substitute(f, identity) == f
        constant = Polynomial.constant(0, Fraction(3))
        assert dp_substitute(constant, []) == constant


class TestCoefficientTypes:
    def test_int_coefficients_become_fractions(self):
        f = Polynomial(2, {(2, 1): 1, (0, 3): 3, (1, 0): 0})
        assert f.terms == {(2, 1): Fraction(1), (0, 3): Fraction(3)}
        assert all(type(c) is Fraction for c in f.terms.values())

    def test_float_coefficient_is_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(2, {(2, 1): 1.0})
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): 0.0}, DUAL)
