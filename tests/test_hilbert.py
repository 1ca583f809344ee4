"""Hilbert functions, symmetric decompositions, and coordinate adaptation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from apolarity.apolar import annihilator_generators, diff_space, local_scheme
from apolarity.hilbert import (
    HilbertFunction,
    SymmetricDecomposition,
    adapt_coordinates,
    embedding_dims,
    hilbert_function,
    symmetric_decomposition,
)
from apolarity.macaulay import is_o_sequence
from apolarity.poly import (
    PRIMAL,
    ChangeOfBasis,
    Polynomial,
    dehomogenize,
    homogenize,
    parse,
    poly_str,
)
from apolarity.scalars import PrimeField, one_like

from conftest import _invert_matrix, random_polynomial, terms_of_degree


class TestHilbertFunction:
    def test_worked_tables(self):
        assert hilbert_function(parse("x1^6 + x1^3*x2", 2)).values == (1, 2, 1, 1, 1, 1, 1)
        assert hilbert_function(parse("x1^7 + x2^6 + x1^2*x2^2", 2)).values == (
            1, 2, 3, 2, 2, 2, 1, 1,
        )
        assert hilbert_function(parse("x1^2*x2 + x2^2", 2)).values == (1, 2, 2, 1)

    def test_type_invariants(self, rng):
        for _ in range(15):
            f = random_polynomial(rng, 3, 5)
            h = hilbert_function(f)
            assert h.values[0] == 1 and h.values[-1] == 1
            assert all(v >= 1 for v in h.values)
            assert h.length == diff_space(f).dim
            assert h.socle_degree == f.degree()

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HilbertFunction((2, 1))
        with pytest.raises(ValueError):
            HilbertFunction((1, 0, 1))
        with pytest.raises(ValueError):
            HilbertFunction((1, 3, 2))
        with pytest.raises(ValueError, match="integers"):
            HilbertFunction((1, 2.7, 1))  # not truncated to (1, 2, 1)
        accepted = HilbertFunction([1, 2.0, Fraction(2), 1])
        assert accepted.values == (1, 2, 2, 1)
        assert all(type(v) is int for v in accepted.values)

    def test_indexing_and_text(self):
        h = HilbertFunction((1, 2, 1))
        # H is 0 outside 0..d
        assert [h[i] for i in range(-1, 5)] == [0, 1, 2, 1, 0, 0]
        assert str(h) == "(1,2,1)"


class TestSymmetricDecomposition:
    def test_sextic_table(self):
        dec = symmetric_decomposition(parse("x1^6 + x1^3*x2", 2))
        assert dec.rows[0] == (1, 1, 1, 1, 1, 1, 1)
        assert dec.rows[4] == (0, 1, 0, 0, 0, 0, 0)
        assert all(not any(dec.rows[a]) for a in (1, 2, 3))

    def test_septic_table(self):
        dec = symmetric_decomposition(parse("x1^7 + x2^6 + x1^2*x2^2", 2))
        assert dec.rows[0] == (1, 1, 1, 1, 1, 1, 1, 1)
        assert dec.rows[1] == (0, 1, 1, 1, 1, 1, 0, 0)
        assert dec.rows[2] == (0,) * 8
        assert dec.rows[3] == (0, 0, 1, 0, 0, 0, 0, 0)

    def test_single_variable_chain(self):
        dec = symmetric_decomposition(parse("x1^5", 1))
        assert dec.rows[0] == (1,) * 6
        assert all(not any(row) for row in dec.rows[1:])

    def test_degenerate_degrees(self):
        constant = symmetric_decomposition(Polynomial.constant(2, 1))
        assert constant.rows == ((1,),)
        linear = symmetric_decomposition(parse("x1", 2))
        assert linear.rows == ((1, 1),)
        quadric = symmetric_decomposition(parse("x1^2 + x1*x2", 2))
        assert len(quadric.rows) == 1
        assert quadric.rows[0] == tuple(hilbert_function(parse("x1^2 + x1*x2", 2)))

    def test_rows_sum_to_hilbert_function(self, rng):
        for _ in range(25):
            f = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5))
            dec = symmetric_decomposition(f)
            assert tuple(dec.hilbert()) == hilbert_function(f).values

    def test_prime_field_matches_rationals_on_integer_input(self):
        from apolarity.scalars import PrimeField

        gf = PrimeField(7)
        for text in ("x1^6 + x1^3*x2", "x1^2*x2 + x2^2"):
            rational = symmetric_decomposition(parse(text, 2))
            modular = symmetric_decomposition(parse(text, 2, field=gf))
            assert modular.rows == rational.rows

    def test_characteristic_independence_random(self, rng):
        # over a large prime no rank can drop for these coefficient sizes,
        # so the decomposition matches the rational one exactly
        from apolarity.poly import Polynomial
        from apolarity.scalars import PrimeField

        gf = PrimeField(10007)
        for _ in range(10):
            f = random_polynomial(rng, rng.randint(1, 3), rng.randint(1, 5))
            integral = Polynomial(
                f.nvars,
                {e: c.numerator for e, c in f.terms.items()},
                f.side,
            )
            modular = Polynomial(
                f.nvars,
                {e: gf(c.numerator) for e, c in f.terms.items()},
                f.side,
            )
            if integral.is_zero():
                continue
            assert symmetric_decomposition(modular).rows == (
                symmetric_decomposition(integral).rows
            )

    def test_symmetry(self, rng):
        for _ in range(25):
            f = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5))
            dec = symmetric_decomposition(f)
            d = dec.d
            for a, row in enumerate(dec.rows):
                for i in range(d + 1):
                    mirror = d - a - i
                    expected = row[mirror] if 0 <= mirror <= d else 0
                    assert row[i] == expected

    def test_partial_sums_satisfy_growth(self, rng):
        for _ in range(25):
            f = random_polynomial(rng, rng.randint(2, 4), rng.randint(2, 5))
            dec = symmetric_decomposition(f)
            running = [0] * (dec.d + 1)
            for row in dec.rows:
                running = [r + v for r, v in zip(running, row)]
                assert is_o_sequence(running)

    def test_top_summands_dominate(self, rng):
        # H_f(i) never exceeds the Hilbert function of the truncation of f
        # to its top homogeneous summands down to degree d - alpha
        for _ in range(20):
            f = random_polynomial(rng, 3, 5)
            dec = symmetric_decomposition(f)
            alpha = max((a for a, row in enumerate(dec.rows) if any(row)), default=0)
            d = dec.d
            top = Polynomial.zero(3)
            for k in range(d - alpha, d + 1):
                top = top + terms_of_degree(f, lambda e: e == k)
            if top.is_zero():
                continue
            h_f = hilbert_function(f)
            h_top = hilbert_function(top)
            for i in range(d + 1):
                assert h_f[i] <= h_top[i]

    def test_validation(self):
        with pytest.raises(ValueError):
            SymmetricDecomposition(d=3, rows=((1, 2, 1, 1), (0, 0, 0, 0)))  # asymmetric
        with pytest.raises(ValueError):
            SymmetricDecomposition(d=3, rows=((1, 1, 1, 1), (1, 0, 0, 0)))  # a>=1 at 0
        with pytest.raises(ValueError, match="integers"):
            # not truncated to the symmetric row (1, 2, 2, 1)
            SymmetricDecomposition(d=3, rows=((1, 2.9, 2, 1), (0, 0, 0, 0)))
        accepted = SymmetricDecomposition(d=3, rows=([1, 2.0, Fraction(2), 1], (0, 0, 0, 0)))
        assert accepted.rows == ((1, 2, 2, 1), (0, 0, 0, 0))
        # checked first, so min() never sees the empty row
        with pytest.raises(ValueError, match="socle degree -1 is negative"):
            SymmetricDecomposition(d=-1, rows=((),))

    def test_validation_messages(self):
        row0 = (1, 1, 1, 1, 1)
        for rows, message in (
            ((row0, (0, 1, 1, 0, 2), (0,) * 5), "row 1 has support beyond index 3"),
            ((row0, (0, 1, 2, 0, 2), (0,) * 5), r"row 1 is not symmetric about 1\.5"),
            ((row0, (0, 1, 1, 0, 0), (0, -1, 0, 0, 0)), "negative entry"),
            ((row0, (0, 1, 1, 0), (0,) * 5), "d\\+1 entries"),
            ((row0, (0,) * 5), "expected 3 rows"),
            (((1, 1, 1, 1, 0), (0,) * 5, (0,) * 5), r"row 0 is not symmetric about 2\.0"),
        ):
            with pytest.raises(ValueError, match=message):
                SymmetricDecomposition(d=4, rows=rows)
        accepted = SymmetricDecomposition(
            d=4, rows=(row0, (0, Fraction(1), 1, 0, 0), (0, 2, 0, 0, 0)))
        assert accepted.rows[1] == (0, 1, 1, 0, 0)
        assert all(type(v) is int for row in accepted.rows for v in row)

    def test_rows_past_the_first_vanish_at_index_0(self):
        # (1, 0, 1) is symmetric about 1, so only the index-0 rule rejects it
        with pytest.raises(ValueError, match="vanish at index 0"):
            SymmetricDecomposition(d=3, rows=((1, 1, 1, 1), (1, 0, 1, 0)))

    def test_entry_is_zero_outside_the_table(self):
        dec = SymmetricDecomposition(d=3, rows=((1, 2, 2, 1), (0, 1, 0, 0)))
        assert [dec.entry(0, 0), dec.entry(0, 3), dec.entry(1, 1)] == [1, 1, 1]
        assert [dec.entry(a, i) for a, i in ((-1, 0), (2, 0), (0, -1), (0, 4))] == [0, 0, 0, 0]

    def test_arrow_format(self):
        dec = SymmetricDecomposition(
            d=6,
            rows=((1, 1, 1, 1, 1, 1, 1), (0,) * 7, (0, 3, 4, 3, 0, 0, 0), (0,) * 7, (0,) * 7),
        )
        assert dec.arrow_str() == "(1,4,5,4,1,1,1) -> (1,1,1,1,1,1,1),(0,3,4,3,0)"


def delta_by_m_table(space, a: int, i: int) -> int:
    """Delta_a(i) from four m_table lookups, as the decomposition once read it."""
    j = space.socle_degree - a - i
    upper = space.m_table(i, j) - space.m_table(i, j + 1)
    lower = space.m_table(i - 1, j) - space.m_table(i - 1, j + 1)
    return upper - lower


class TestDecompositionAgainstMTableLookups:
    def test_rows_equal_per_entry_lookups(self, rng):
        texts = [("1", 1), ("x1", 1), ("x1^2 + x2", 2), ("x1^6 + x1^3*x2", 2),
                 ("x1^12 + x2^11 + x3^10 + x1^3*x2^3*x3^2", 3)]
        # the filtration benchmark's shapes at small socle degree
        texts += [(f"x1^{e} + x2^{e}", 2) for e in (2, 3, 6, 12, 18, 24, 30)]
        texts += [(f"x1^{e} + x1^{e // 2}*x2 + x2^{e // 3}", 2) for e in (6, 12, 18, 24, 30)]
        inputs = [parse(text, n) for text, n in texts]
        inputs += [random_polynomial(rng, rng.randint(1, 3), rng.randint(1, 6)) for _ in range(12)]
        gf = PrimeField(32003)
        inputs += [Polynomial(f.nvars, {e: gf(c) for e, c in f.terms.items()}) for f in inputs]
        for f in inputs:
            space = diff_space(f)
            d = space.socle_degree
            expected = tuple(tuple(delta_by_m_table(space, a, i) for i in range(d + 1))
                             for a in range(max(d - 1, 1)))
            assert symmetric_decomposition(f).rows == expected, str(f)


class TestEmbeddingDims:
    def test_worked_example(self):
        dec = SymmetricDecomposition(
            d=6,
            rows=((1, 1, 1, 1, 1, 1, 1), (0,) * 7, (0, 3, 4, 3, 0, 0, 0), (0,) * 7, (0,) * 7),
        )
        assert embedding_dims(dec) == (1, 1, 4, 4, 4)

    def test_single_row(self):
        dec = SymmetricDecomposition(d=3, rows=((1, 6, 6, 1), (0, 0, 0, 0)))
        assert embedding_dims(dec) == (6, 6)

    def test_socle_degrees_one_and_two(self):
        # one row, so one partial sum
        assert embedding_dims(SymmetricDecomposition(d=1, rows=((1, 1),))) == (1,)
        assert embedding_dims(SymmetricDecomposition(d=2, rows=((1, 2, 1),))) == (2,)

    def test_sextic(self):
        dec = symmetric_decomposition(parse("x1^6 + x1^3*x2", 2))
        assert embedding_dims(dec) == (1, 1, 1, 1, 2)

    def test_nondecreasing_and_ends_at_h1(self, rng):
        for _ in range(20):
            f = random_polynomial(rng, 3, 5)
            dec = symmetric_decomposition(f)
            dims = embedding_dims(dec)
            assert all(a <= b for a, b in zip(dims, dims[1:]))
            if dec.d >= 2:
                assert dims[-1] == hilbert_function(f)[1]


class TestAdaptCoordinates:
    def test_fixed_point(self):
        f = parse("x1^6 + x1^3*x2", 2)
        adapted, change = adapt_coordinates(f)
        assert adapted == f and change.dropped == 0

    def test_swapped_variables(self):
        adapted, _ = adapt_coordinates(parse("x2^6 + x2^3*x1", 2))
        assert adapted == parse("x1^6 + x1^3*x2", 2)

    def test_drops_unused_directions(self):
        # f involves only the direction x1 + x2
        f = parse("x1^2 + x1*x2 + x2^2", 2)  # = (x1+x2)^[2] in divided powers
        adapted, change = adapt_coordinates(f)
        assert change.dropped == 1
        assert adapted.nvars == 1 and adapted == parse("x1^2", 1)

    def test_a_constant_drops_every_variable(self):
        adapted, change = adapt_coordinates(parse("3", 2))
        assert change.dropped == 2 and adapted.nvars == 0

    def test_no_variables(self):
        f = parse("3", 0)
        assert adapt_coordinates(f) == (f, ChangeOfBasis((), (), 0))

    def test_unit_rows_complete_the_flag_in_variable_order(self):
        # the flag row x2 + x4 has its pivot at x2, so unit rows follow for
        # x1, x3 and x4 only, in that order
        adapted, change = adapt_coordinates(parse("2*x2 + 2*x4", 4))
        assert adapted == parse("2*x1", 1) and change.dropped == 3
        assert change.new_to_old == ((0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_keeps_hidden_variables(self):
        # x3 enters only through a hidden-variable summand; no linear change
        # removes it, so it must survive adaptation
        f = parse("4*x1*x2 - 7*x3", 3)
        adapted, change = adapt_coordinates(f)
        assert change.dropped == 0
        assert adapted.nvars == 3
        assert hilbert_function(adapted).values == hilbert_function(f).values

    def test_flag_is_standard_after_adaptation(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 3, 5)
            adapted, _ = adapt_coordinates(f)
            space = diff_space(adapted)
            d = space.socle_degree
            dec = symmetric_decomposition(adapted)
            dims = embedding_dims(dec)
            for a in range(max(d - 1, 1)):
                rows = space.linear_partials(d - 1 - a)
                spanned = {vec.index(next(c for c in vec if c != 0)) for vec in rows}
                # echelon pivots of the level-a linear partials are exactly
                # the first n_a variables
                assert spanned == set(range(dims[min(a, len(dims) - 1)]))

    def test_leading_summand_variable_bound(self, rng):
        # leading summands of partials of degree d-i and order j involve
        # only the first n_{i-j} variables
        for _ in range(10):
            f = random_polynomial(rng, 3, 4, max_terms=3)
            adapted, _ = adapt_coordinates(f)
            space = diff_space(adapted)
            d = space.socle_degree
            dims = embedding_dims(symmetric_decomposition(adapted))
            for row, degree, order in zip(space.rows, space.degrees, space.orders):
                i = d - degree
                level = i - order
                if not 0 <= level <= d - 2:
                    continue
                allowed = dims[level]
                leading = terms_of_degree(row, lambda k: k == degree)
                for exponents in leading.terms:
                    assert all(e == 0 for e in exponents[allowed:]), (
                        poly_str(adapted), poly_str(row), degree, order, dims,
                    )


def dense_flag(f: Polynomial) -> list:
    """new_to_old as adapt_coordinates built it with a dense flag reduction."""
    space = diff_space(f)
    d = space.socle_degree
    n = f.nvars
    chosen: list = []

    def reduce_row(vec):
        out = list(vec)
        for row in chosen:
            pivot = next(i for i, c in enumerate(row) if c != 0)
            if out[pivot] != 0:
                factor = out[pivot]
                out = [x - factor * y for x, y in zip(out, row)]
        return out

    for a in range(max(d - 1, 1)):
        for vec in space.linear_partials(d - 1 - a):
            rem = reduce_row(vec)
            if any(c != 0 for c in rem):
                pivot = next(i for i, c in enumerate(rem) if c != 0)
                inv = rem[pivot]
                chosen.append([c / inv for c in rem])
    used_pivots = {next(i for i, c in enumerate(row) if c != 0) for row in chosen}
    coeff = next(iter(f.terms.values()))
    one = coeff / coeff  # completion units over the field of f
    for i in range(n):
        if i not in used_pivots and len(chosen) < n:
            unit = [one - one] * n
            unit[i] = one
            rem = reduce_row(unit)
            if any(c != 0 for c in rem):
                pivot = next(k for k, c in enumerate(rem) if c != 0)
                inv = rem[pivot]
                chosen.append([c / inv for c in rem])
    return chosen


def typed(matrix) -> list:
    return [[(type(c), c) for c in row] for row in matrix]


class TestAdaptCoordinatesDenseOracle:
    def check(self, f):
        _, change = adapt_coordinates(f)
        new_to_old = dense_flag(f)
        assert typed(change.new_to_old) == typed(new_to_old)
        assert typed(change.old_to_new) == typed(_invert_matrix(new_to_old))

    def test_worked_inputs(self):
        from apolarity.scalars import PrimeField

        gf = PrimeField(32003)
        # L^[4] + x2^2 with L = 2x1 + 3x2 has the flag row x1 + 3/2 x2: its
        # denominator must come back out of the inverse elimination
        for text, n in (("x2^6 + x2^3*x1", 2), ("x1^2 + x1*x2 + x2^2", 2),
                        ("4*x1*x2 - 7*x3", 3), ("x1^3 + x2^2*x3 + x1*x3^2", 4),
                        ("16*x1^4 + 24*x1^3*x2 + 36*x1^2*x2^2 + 54*x1*x2^3 + 81*x2^4 + x2^2", 2)):
            self.check(parse(text, n))
            self.check(parse(text, n, field=gf))

    def test_random_inputs_over_both_fields(self, rng):
        from apolarity.scalars import PrimeField

        gf = PrimeField(32003)
        for _ in range(15):
            f = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5))
            self.check(f)
            modular = Polynomial(f.nvars, {e: gf(c) for e, c in f.terms.items()}, f.side)
            if not modular.is_zero():
                self.check(modular)

    def test_high_socle_degree_inputs_over_both_fields(self):
        # at these socle degrees most levels hold no degree-1 partial
        gf = PrimeField(32003)
        inputs = [(f"x1^{e} + x2^{e}", 2) for e in range(1, 31)]
        inputs += [(f"x1^{e} + x1^{e // 2}*x2 + x2^{e // 3}", 2) for e in range(1, 31)]
        inputs.append(("x1^12 + x2^11 + x3^10 + x1^3*x2^3*x3^2", 3))
        # (x1 + x2)^[e] + x2^[3]: the flag starts at x1 + x2, not at a variable,
        # so its levels must be walked from the top
        inputs += [(" + ".join(f"x1^{a}*x2^{e - a}" for a in range(e + 1)) + " + x2^3", 2)
                   for e in (6, 12, 30)]
        for text, n in inputs:
            self.check(parse(text, n))
            self.check(parse(text, n, field=gf))


class TestIntInputStaysExact:
    """Python int coefficients are reduced over QQ, never in floating point."""

    def test_diff_space_and_adapted_coordinates_hold_only_fractions(self):
        f = Polynomial(2, {(2, 1): 1, (0, 3): 3})
        space = diff_space(f)
        assert all(type(c) is Fraction for row in space.rows for c in row.terms.values())
        assert space.rows == diff_space(parse("x1^2*x2 + 3*x2^3", 2)).rows
        _, change = adapt_coordinates(f)
        for matrix in (change.new_to_old, change.old_to_new):
            assert all(type(c) is Fraction for row in matrix for c in row)


def _dehomogenized_and_scheme(f: Polynomial):
    """`dehomogenize`'s f and the `local_scheme` of the homogenization of f,
    at the linear form with coefficients 2, 3, ... (not a variable, so the
    substitution images have denominators)."""
    F = homogenize(f, int(f.degree()))
    one = one_like(next(iter(f.terms.values())))
    l = Polynomial(F.nvars, {tuple(int(i == k) for i in range(F.nvars)): (k + 2) * one
                             for k in range(F.nvars)}, PRIMAL)
    return dehomogenize(F, l)[0], local_scheme(F, l)


class TestPrimeFieldStaysPrime:
    """Over GF(p), kernels and coordinate changes hold only field elements."""

    @staticmethod
    def assert_prime(values):
        from apolarity.scalars import PrimeFieldElement

        values = list(values)
        assert values and all(type(c) is PrimeFieldElement for c in values)

    def check(self, f):
        kernel = annihilator_generators(f, int(f.degree()) + 1)
        self.assert_prime(c for g in kernel for c in g.terms.values())
        _, change = adapt_coordinates(f)
        for matrix in (change.new_to_old, change.old_to_new):
            self.assert_prime(c for row in matrix for c in row)
        dehomogenized, scheme = _dehomogenized_and_scheme(f)
        self.assert_prime(dehomogenized.terms.values())
        self.assert_prime(scheme.defining.terms.values())
        self.assert_prime(c for g in scheme.annihilator for c in g.terms.values())

    def test_worked_inputs(self):
        from apolarity.scalars import PrimeField

        gf = PrimeField(32003)
        self.check(parse("x1^2*x2 + 3*x2^3", 2, field=gf))
        self.check(parse("x1^3 + x2^2", 3, field=gf))

    def test_random_inputs(self, rng):
        from apolarity.scalars import PrimeField

        gf = PrimeField(32003)
        for _ in range(15):
            f = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5))
            modular = Polynomial(f.nvars, {e: gf(c) for e, c in f.terms.items()}, f.side)
            if not modular.is_zero():
                self.check(modular)

    def test_linear_partials(self):
        from apolarity.scalars import PrimeField

        gf = PrimeField(32003)
        space = diff_space(parse("x1^3 + x1*x2 + x3^2", 3, field=gf))
        rows = space.linear_partials(0)
        assert rows == [[1, 0, 0], [0, 0, 1]]
        self.assert_prime(c for j in range(space.socle_degree + 2)
                          for row in space.linear_partials(j) for c in row)

    def test_dehomogenize_and_local_scheme(self):
        from apolarity.apolar import local_scheme
        from apolarity.poly import dehomogenize
        from apolarity.scalars import PrimeField

        gf = PrimeField(32003)
        for F_text, l_text, nvars in (
            ("x0^3 + 2*x0*x1^2 + x1^3", "2*x0 + 3*x1", 2),
            ("x0^3 + 2*x0*x1^2 + x1^3", "x0", 2),
            ("x0^3 + x1^3 + x2^3 + 5*x0*x1*x2", "x0 + x1", 3),
            ("x0^3 + x1^3 + x2^3 + 5*x0*x1*x2", "x1 + 4*x2", 3),
        ):
            F = parse(F_text, nvars, base=0, field=gf)
            l = parse(l_text, nvars, base=0, field=gf)
            f, change = dehomogenize(F, l)
            self.assert_prime(f.terms.values())
            for matrix in (change.new_to_old, change.old_to_new):
                self.assert_prime(c for row in matrix for c in row)
            scheme = local_scheme(F, l)
            assert scheme.apolarity_checked
            self.assert_prime(c for g in scheme.annihilator for c in g.terms.values())
            for matrix in (scheme.change.new_to_old, scheme.change.old_to_new):
                self.assert_prime(c for row in matrix for c in row)

    def test_exotic_extend(self):
        from apolarity.poly import DUAL
        from apolarity.scalars import PrimeField
        from apolarity.witness import exotic_extend

        gf = PrimeField(32003)
        f = parse("x1^6 + x1^3*x2", 2, field=gf)
        extended = exotic_extend(f, [parse("y1^2", 2, side=DUAL, field=gf)])
        self.assert_prime(extended.terms.values())
        assert extended == parse(
            "x1^6 + x1^4*x3 + x1^3*x2 + x1^2*x3^2 + x1*x2*x3 + x3^3", 3, field=gf)

    def test_cusp_witness(self):
        from apolarity.scalars import PrimeField
        from apolarity.witness import cusp_witness

        gf = PrimeField(32003)
        report = cusp_witness(parse("x0^3 + x1^3 + x2^3 + 5*x0*x1*x2", 3, base=0, field=gf))
        assert report.length_g <= 7 and report.apolar_ok
        for g in (report.cubic, report.form, report.quartic):
            self.assert_prime(g.terms.values())


class TestRationalsStayFractions:
    """Over QQ, rows, kernels and coordinate changes hold only `Fraction`
    values, never a bare int: the benchmark digests encode an int 1 as `1`
    and `Fraction(1)` as `"1"`."""

    @staticmethod
    def assert_fractions(values):
        values = list(values)
        assert values and all(type(c) is Fraction for c in values)

    def check(self, f):
        from apolarity.apolar import representative_operator

        space = diff_space(f)
        self.assert_fractions(c for row in space.rows for c in row.terms.values())
        self.assert_fractions(c for j in range(space.socle_degree + 2)
                              for row in space.linear_partials(j) for c in row)
        kernel = annihilator_generators(f, int(f.degree()) + 1)
        self.assert_fractions(c for g in kernel for c in g.terms.values())
        for row in space.rows:
            psi = representative_operator(f, row)
            self.assert_fractions(psi.terms.values())
        _, change = adapt_coordinates(f)
        for matrix in (change.new_to_old, change.old_to_new):
            self.assert_fractions(c for row in matrix for c in row)
        dehomogenized, scheme = _dehomogenized_and_scheme(f)
        self.assert_fractions(dehomogenized.terms.values())
        self.assert_fractions(scheme.defining.terms.values())
        self.assert_fractions(c for g in scheme.annihilator for c in g.terms.values())

    def test_worked_inputs(self):
        self.check(parse("x1^2*x2 + 3*x2^3", 2))
        self.check(parse("x1^3 + x2^2", 3))
        self.check(parse("x1^3 + x1*x2 + x3^2", 3))

    def test_random_inputs(self, rng):
        for _ in range(15):
            f = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5))
            if f.degree() >= 1:
                self.check(f)
