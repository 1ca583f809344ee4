"""Spaces of partials, annihilators, apolarity, and local schemes."""

from __future__ import annotations

from fractions import Fraction

import pytest

from apolarity import apolar
from apolarity.apolar import (
    _annihilator,
    _kernel_and_length,
    _scheme,
    annihilator_generators,
    annihilator_stabilized,
    apolar_length,
    diff_space,
    is_apolar,
    local_scheme,
    representative_operator,
)
from apolarity.linalg import MonomialSpan
from apolarity.poly import (
    DUAL,
    PRIMAL,
    Polynomial,
    contract,
    dehomogenize,
    grlex_key,
    homogenize,
    monomials_up_to,
    parse,
)
from apolarity.scalars import RATIONALS, PrimeField, PrimeFieldElement

from conftest import BackSubstitutingSpan, random_polynomial


class TestDiffSpace:
    def test_worked_basis_dimension(self):
        space = diff_space(parse("x1^2*x2 + x2^2", 2))
        assert space.dim == 6
        assert space.hilbert_values() == (1, 2, 2, 1)
        # the published basis spans the same space
        for text in ("x1^2*x2 + x2^2", "x1^2 + x2", "x1*x2", "x1", "x2", "1"):
            assert space.contains(parse(text, 2))

    def test_quartic_with_smaller_space(self):
        assert diff_space(parse("x1^4 + x1^2*x2 + x2^2", 2)).dim == 5

    def test_power_chain(self):
        space = diff_space(parse("x1^7", 1))
        assert space.dim == 8
        assert space.degrees == tuple(range(7, -1, -1))
        assert space.orders == tuple(range(0, 8))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            diff_space(Polynomial.zero(2))

    def test_contains_only_primal_polynomials_in_its_variables(self):
        space = diff_space(parse("x1^2*x2 + x2^2", 2))
        assert space.contains(parse("x1", 2))
        # the same terms on the dual side, or in three variables, are not partials of f
        assert not space.contains(Polynomial(2, {(1, 0): Fraction(1)}, DUAL))
        assert not space.contains(Polynomial(3, {(1, 0, 0): Fraction(1)}, PRIMAL))

    def test_a_prime_field_target_in_a_rational_space_is_rejected(self):
        space = diff_space(parse("x1^3 + x1*x2", 2))
        with pytest.raises(ValueError, match=r"GF\(32003\)"):
            space.contains(parse("x1", 2, field=PrimeField(32003)))

    def test_contraction_closed(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 3, 4)
            space = diff_space(f)
            for row in space.rows:
                for var in range(3):
                    image = contract(Polynomial.variable(3, var, DUAL), row)
                    if not image.is_zero():
                        assert space.contains(image)

    def test_rows_are_reduced_echelon(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 3, 4)
            rows = diff_space(f).rows
            pivots = []
            for index, row in enumerate(rows):
                lead, coeff = row.sorted_terms()[0]
                assert coeff == 1
                pivots.append(lead)
                # pivot monomials vanish in all other rows
                for j, other in enumerate(rows):
                    if j != index:
                        assert other.coefficient(lead) == 0
            assert len(set(pivots)) == len(pivots)

    def test_unit_and_f_in_span(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 2, 5)
            space = diff_space(f)
            assert space.contains(f)
            assert space.contains(Polynomial.constant(2, Fraction(1)))

    def test_order_definitional_property(self, rng):
        # a row has order >= j iff it lies in the span of contractions of f
        # by dual monomials of degree >= j
        for _ in range(6):
            f = random_polynomial(rng, 2, 5, max_terms=3)
            space = diff_space(f)
            top = int(f.degree())
            for j in range(top + 1):
                level = BackSubstitutingSpan()
                for alpha in monomials_up_to(2, top):
                    if sum(alpha) >= j:
                        image = contract(Polynomial.monomial(alpha, Fraction(1), DUAL), f)
                        if not image.is_zero():
                            level.insert(dict(image.terms))
                for row, order in zip(space.rows, space.orders):
                    assert (order >= j) == level.contains(dict(row.terms))


class TestApolarLength:
    def test_worked_values(self):
        assert apolar_length(parse("x1^2*x2 + x2^2", 2)) == 6
        assert apolar_length(parse("x1^6 + x1^3*x2", 2)) == 8
        assert apolar_length(Polynomial.constant(3, Fraction(1))) == 1
        assert apolar_length(Polynomial.zero(3)) == 0

    def test_homogenization_round_trip_preserves_length(self, rng):
        for _ in range(10):
            g = random_polynomial(rng, 2, 4)
            d = int(g.degree()) + rng.randint(0, 2)
            G = homogenize(g, d)
            back, _ = dehomogenize(G, Polynomial.variable(3, 0))
            assert apolar_length(back) == apolar_length(g)

    def test_one_untagged_elimination(self, monkeypatch, rng):
        # the rank of f's table, from one span with nothing tagged: the
        # dimension of the tagged FilteredSpace
        cases = []
        for _ in range(8):
            drawn = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5), max_terms=8)
            cases += [(f, diff_space(f).dim) for f in over_fields(drawn)]
        built = counted_spans(monkeypatch)
        tagged = []
        insert_tagged = MonomialSpan.insert_tagged

        def recording(self, vec, tag):
            tagged.append(tag)
            return insert_tagged(self, vec, tag)

        monkeypatch.setattr(MonomialSpan, "insert_tagged", recording)
        for f, dim in cases:
            assert apolar_length(f) == dim, str(f)
            assert len(built) == 1 and tagged == [], str(f)
            built.clear()
        with pytest.raises(ValueError, match="expects a primal polynomial"):
            apolar_length(parse("y1^2", 1, side=DUAL))
        assert built == []


class TestAnnihilator:
    def test_trivial_kernel_below_stabilization(self):
        assert annihilator_generators(parse("x1^2*x2 + x2^2", 2), 2) == []

    def test_cubic_kernel_contents(self):
        f = parse("x1^2*x2 + x2^2", 2)
        generators = annihilator_generators(f, 3)
        assert len(generators) == 4
        expected = [
            parse(text, 2, side=DUAL)
            for text in ("y1^3", "y1*y2^2", "y2^3", "y1^2*y2 - y2^2")
        ]
        assert set_of(generators) == set_of(expected)
        for psi in generators:
            assert contract(psi, f).is_zero()

    def test_matches_dense_kernel_oracle(self, rng):
        # compare kernel dimension with a rank count over the full
        # contraction matrix, monomial by monomial
        for _ in range(8):
            f = random_polynomial(rng, 2, 4)
            bound = int(f.degree()) + 1
            generators = annihilator_generators(f, bound)
            span = BackSubstitutingSpan()
            total = 0
            for alpha in monomials_up_to(2, bound):
                total += 1
                image = contract(Polynomial.monomial(alpha, Fraction(1), DUAL), f)
                if not image.is_zero():
                    span.insert(dict(image.terms))
            assert len(generators) == total - span.dim
            for psi in generators:
                assert contract(psi, f).is_zero()

    def test_sextic_has_quadric_annihilator_only(self):
        generators = annihilator_generators(parse("x1^6 + x1^3*x2", 2), 2)
        assert [str(g) for g in generators] == ["y2^2"]

    def test_stabilization_flag(self):
        f = parse("x1^6 + x1^3*x2", 2)
        assert not annihilator_stabilized(f, 2)
        assert annihilator_stabilized(f, 7)

    def test_stabilization_counts_every_dual_monomial(self):
        # the count of dual monomials of degree <= max_degree, by enumeration
        for nvars in range(6):
            f = Polynomial.constant(nvars, Fraction(1))
            for max_degree in range(7):
                total = sum(1 for _ in monomials_up_to(nvars, max_degree))
                for kernel in range(3):
                    generators = [None] * kernel
                    assert annihilator_stabilized(f, max_degree, generators, total - kernel)
                    assert not annihilator_stabilized(f, max_degree, generators, total - kernel + 1)
                    assert not annihilator_stabilized(f, max_degree, generators, total - kernel - 1)

    def test_ideal_containment_under_extra_contraction(self, rng):
        # if F is a partial of G, annihilators of G kill F as well
        for _ in range(10):
            G = random_polynomial(rng, 3, 4, homogeneous=True)
            F = contract(Polynomial.variable(3, 0, DUAL), G)
            if F.is_zero():
                continue
            for psi in annihilator_generators(G, int(G.degree())):
                assert contract(psi, F).is_zero()


def set_of(polys):
    return {tuple(sorted(p.terms.items())) for p in polys}


class TestRepresentativeOperator:
    def test_reaches_each_basis_row_at_its_order(self, rng):
        forms = [random_polynomial(rng, 2, 4, max_terms=3) for _ in range(6)]
        # the contraction table holds den * f, den = 2 for the first form
        # below, so a solution not multiplied back by den misses every row
        forms.append(parse("1/2*x1^3 + 3/2*x1*x2^2 - 5/2*x2^2", 2))
        forms.append(parse("1/2*x1^4 + 3*x1*x2^2 - 5*x2^3", 2, field=PrimeField(32003)))
        for f in forms:
            space = diff_space(f)
            for row, order in zip(space.rows, space.orders):
                psi = representative_operator(f, row, min_order=order)
                assert psi is not None
                assert psi.order() >= order
                assert contract(psi, f) == row

    def test_unreachable_target(self):
        f = parse("x1^2", 1)
        target = parse("x1^2 + x1", 1)
        assert representative_operator(f, target, min_order=1) is None

    def test_mixed_fields_give_the_prime_field(self):
        # f and the target fix one field together, as in is_apolar; y2 is
        # found before y1^2, which contracts f to x1 too
        gf = PrimeField(32003)
        text = "x1^3 + x1*x2"
        for f, target in ((parse(text, 2), parse("x1", 2, field=gf)),
                          (parse(text, 2, field=gf), parse("x1", 2))):
            psi = representative_operator(f, target)
            assert [(m, type(c), c) for m, c in psi.terms.items()] == \
                [((0, 1), PrimeFieldElement, gf(1))]


class TestIsApolar:
    def test_variable_annihilates_power_of_other(self):
        F = parse("x0^3", 2, base=0)
        assert is_apolar([parse("y1", 2, side=DUAL, base=0)], F)
        assert not is_apolar([parse("y0", 2, side=DUAL, base=0)], F)

    def test_rejects_inhomogeneous_generator(self):
        with pytest.raises(ValueError):
            is_apolar([parse("y1 + y1^2", 2, side=DUAL)], parse("x0^3", 2, base=0))

    def test_homogenized_annihilator_is_apolar(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 2, 3)
            F = homogenize(f, int(f.degree()))
            generators = annihilator_generators(f, int(f.degree()) + 1)
            homogenized = [homogenize(g, int(g.degree())) for g in generators]
            assert is_apolar(homogenized, F)

    @staticmethod
    def brute_force_is_apolar(generators, F):
        """Every dual-monomial multiple m*g with deg(m*g) <= deg F must kill F."""
        d = int(F.degree())
        for g in generators:
            if g.is_zero():
                continue
            for m in monomials_up_to(F.nvars, max(d - int(g.degree()), 0)):
                product = Polynomial.monomial(m, Fraction(1), DUAL) * g
                if not contract(product, F).is_zero():
                    return False
        return True

    @classmethod
    def check_agreement(cls, rng, field):
        """The generator check against all multiples, over `field`."""
        def to_field(p):
            return Polynomial(p.nvars, {e: field(c) for e, c in p.terms.items()}, p.side)

        outcomes = []
        for _ in range(12):
            f = to_field(random_polynomial(rng, rng.randint(2, 3), 3))
            F = homogenize(f, int(f.degree()))
            generators = annihilator_generators(f, int(f.degree()) + 1)
            homogenized = [homogenize(g, int(g.degree())) for g in generators]
            expected = cls.brute_force_is_apolar(homogenized, F)
            assert expected
            assert is_apolar(homogenized, F) == expected
            outcomes.append(expected)
        for _ in range(40):
            nvars = rng.randint(2, 4)
            F = to_field(random_polynomial(rng, nvars, rng.randint(1, 4), homogeneous=True))
            duals = [
                to_field(random_polynomial(rng, nvars, rng.randint(1, 3), max_terms=3,
                                           side=DUAL, homogeneous=True))
                for _ in range(rng.randint(1, 3))
            ]
            expected = cls.brute_force_is_apolar(duals, F)
            assert is_apolar(duals, F) == expected, (F, duals)
            outcomes.append(expected)
        assert True in outcomes and outcomes.count(False) > 20

    def test_generator_check_agrees_with_all_multiples(self, rng):
        self.check_agreement(rng, RATIONALS)

    def test_generator_check_agrees_with_all_multiples_over_gf(self, rng):
        gf = PrimeField(32003)
        self.check_agreement(rng, gf)
        # images that vanish mod p only: 32003 from a QQ generator, and
        # 1 + 32002 from the residues of 1 and -1
        F = parse("x0^3 + x1^3", 2, base=0, field=gf)
        assert is_apolar([parse("y0*y1 + 32003*y0^2", 2, side=DUAL, base=0)], F)
        assert is_apolar([parse("y0^2 - y1^2", 2, side=DUAL, base=0, field=gf)],
                         parse("x0^2 + x1^2", 2, base=0, field=gf))

    def test_mixed_fields(self):
        gf7 = PrimeField(7)
        F_text, g_text = "x0^3 + x1^3", "y0*y1 + 7*y0^2"
        F_qq, F_gf = parse(F_text, 2, base=0), parse(F_text, 2, base=0, field=gf7)
        g_qq = parse(g_text, 2, side=DUAL, base=0)
        g_gf = parse(g_text, 2, side=DUAL, base=0, field=gf7)
        assert is_apolar([g_qq], F_gf)
        assert is_apolar([g_gf], F_qq)
        assert is_apolar([g_qq], Polynomial.zero(2))
        assert not is_apolar([g_qq], F_qq)
        with pytest.raises(ZeroDivisionError):
            is_apolar([parse("y0*y1 + 1/7*y0^2", 2, side=DUAL, base=0)], F_gf)


class TestLocalScheme:
    def test_point(self):
        scheme = local_scheme(parse("x0^3", 1, base=0), Polynomial.variable(1, 0))
        assert scheme.length == 1 and scheme.hilbert == (1,)
        assert scheme.apolarity_checked

    def test_degree_two(self):
        scheme = local_scheme(parse("x0^2*x1", 2, base=0), Polynomial.variable(2, 0))
        assert scheme.length == 2 and scheme.hilbert == (1, 1)
        assert scheme.apolarity_checked and scheme.stabilized

    def test_cubic_surface_length_eight(self, rng):
        # a random cubic in 4 variables with generic signature has length 8
        from apolarity.witness import random_general_cubic

        found = 0
        for _ in range(5):
            f = random_general_cubic(rng)
            F = f.pad(4) + Polynomial(
                4, {(0, 2, 0, 1): Fraction(1), (1, 0, 0, 2): Fraction(1)}, PRIMAL
            )
            scheme = local_scheme(F, Polynomial.variable(4, 0))
            if scheme.hilbert == (1, 3, 3, 1):
                found += 1
                assert scheme.length == 8
            assert scheme.apolarity_checked
        assert found > 0

    def test_general_support_against_coordinate_support(self, rng):
        # lengths agree with a direct dehomogenization when l is a variable
        for _ in range(5):
            F = random_polynomial(rng, 3, 3, homogeneous=True)
            scheme = local_scheme(F, Polynomial.variable(3, 1))
            f, _ = dehomogenize(F, Polynomial.variable(3, 1))
            assert scheme.length == apolar_length(f)
            assert scheme.apolarity_checked

    def test_json_schema_keys(self):
        scheme = local_scheme(parse("x0^2*x1", 2, base=0), Polynomial.variable(2, 0))
        data = scheme.as_dict()
        assert set(data) >= {"length", "hilbert", "annihilator", "apolarity_checked"}
        assert data["length"] == 2 and data["hilbert"] == [1, 1]
        assert all(isinstance(s, str) for s in data["annihilator"])


class TestIsApolarValidation:
    def test_zero_form_still_validates_generators(self):
        bad = parse("x1 + x1^2", 2)
        with pytest.raises(ValueError, match="generators must be dual polynomials"):
            is_apolar([bad], Polynomial.zero(2))
        with pytest.raises(ValueError, match="generators must be dual polynomials"):
            is_apolar([bad], parse("x1^3", 2))
        assert is_apolar([parse("y1", 2, side=DUAL)], Polynomial.zero(2))

    def test_every_generator_validated_before_contracting(self):
        F = parse("x0^3", 2, base=0)
        non_killing = parse("y0", 2, side=DUAL, base=0)
        assert not is_apolar([non_killing], F)
        with pytest.raises(ValueError, match="generators must be dual polynomials"):
            is_apolar([non_killing, parse("x1", 2, base=0)], F)
        with pytest.raises(ValueError, match="not homogeneous"):
            is_apolar([non_killing, parse("y1 + y1^2", 2, side=DUAL, base=0)], F)
        with pytest.raises(ValueError, match="variable count mismatch"):
            is_apolar([non_killing, parse("y1", 3, side=DUAL, base=0)], F)


class TestLabelledSpanValidation:
    def test_annihilator_rejects_a_dual_f(self):
        with pytest.raises(ValueError, match="expects a primal polynomial"):
            annihilator_generators(parse("y1^2", 2, side=DUAL), 2)

    def test_representative_operator_rejects_a_dual_f(self):
        with pytest.raises(ValueError, match="expects a primal polynomial"):
            representative_operator(parse("y1^2", 2, side=DUAL), parse("1", 2))

    def test_representative_operator_rejects_a_dual_target(self):
        with pytest.raises(ValueError, match="target must be a primal polynomial"):
            representative_operator(parse("x1^3 + x1*x2", 2), parse("y1", 2, side=DUAL))

    def test_representative_operator_rejects_a_target_in_other_variables(self):
        with pytest.raises(ValueError, match="target must be a primal polynomial"):
            representative_operator(parse("x1^3 + x1*x2", 2), parse("x1", 3))


# -- the labelled echelon span as it was before it was folded into
# MonomialSpan, kept verbatim as an oracle for the folded kernel ------------

class WitnessSpan:
    """Row-echelon span that remembers how each row combines the generators.

    Inserting labelled generators g_L keeps, for every stored row r,
    a combination dict with r = sum combo[L] * g_L.  Reduction reports the
    combination expressing vec - remainder, which yields kernel vectors
    (remainder 0 at insert) and preimages under the generator map.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self.combos: list[dict] = []
        self.pivots: list[tuple] = []
        self.by_pivot: dict[tuple, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, combo: dict | None = None):
        out = dict(vec)
        used: dict = dict(combo) if combo else {}
        while True:
            lead = None
            for m in out:
                if m in self.by_pivot and (lead is None or grlex_key(m) > grlex_key(lead)):
                    lead = m
            if lead is None:
                return out, used
            i = self.by_pivot[lead]
            factor = out[lead]
            for m, c in self.rows[i].items():
                new = out.get(m, 0) - factor * c
                if new == 0:
                    out.pop(m, None)
                else:
                    out[m] = new
            for label, c in self.combos[i].items():
                new = used.get(label, 0) - factor * c
                if new == 0:
                    used.pop(label, None)
                else:
                    used[label] = new
        # unreachable

    def insert(self, vec: dict, label):
        """Insert generator `vec` named `label`.

        Returns (index, None) when independent, or (None, relation) where
        relation maps labels to coefficients of a vanishing combination
        including the new label with coefficient 1.

        reduce maintains vec = rem - sum(used[L] * g_L), so a zero remainder
        gives the relation g_label + sum(used[L] * g_L) = 0.
        """
        rem, used = self.reduce(vec)
        if not rem:
            relation = dict(used)
            relation[label] = relation.get(label, 0) + 1
            return None, {k: c for k, c in relation.items() if c != 0}
        lead = max(rem, key=grlex_key)
        inv = rem[lead]
        row = {m: c / inv for m, c in rem.items()}
        combo = {k: c / inv for k, c in used.items()}
        combo[label] = combo.get(label, 0) + 1 / inv
        combo = {k: c for k, c in combo.items() if c != 0}
        for i, other in enumerate(self.rows):
            if lead in other:
                factor = other[lead]
                for m, c in row.items():
                    new = other.get(m, 0) - factor * c
                    if new == 0:
                        other.pop(m, None)
                    else:
                        other[m] = new
                for k, c in combo.items():
                    new = self.combos[i].get(k, 0) - factor * c
                    if new == 0:
                        self.combos[i].pop(k, None)
                    else:
                        self.combos[i][k] = new
        index = len(self.rows)
        self.rows.append(row)
        self.combos.append(combo)
        self.pivots.append(lead)
        self.by_pivot[lead] = index
        return index, None

    def solve(self, vec: dict):
        """Express vec in the span; returns the label combination or None."""
        rem, used = self.reduce(vec)
        if rem:
            return None
        return {k: -c for k, c in used.items()}


def contract_by_monomial(terms: dict, alpha: tuple) -> dict:
    out = {}
    for beta, coeff in terms.items():
        if all(b >= a for b, a in zip(beta, alpha)):
            out[tuple(b - a for b, a in zip(beta, alpha))] = coeff
    return out


def oracle_annihilator(f: Polynomial, max_degree: int) -> list:
    span = WitnessSpan()
    kernel = []
    coeff = next(iter(f.terms.values()))
    for alpha in monomials_up_to(f.nvars, max_degree):
        image = contract_by_monomial(f.terms, alpha)
        if not image:
            kernel.append({alpha: coeff / coeff})
            continue
        _, relation = span.insert(image, alpha)
        if relation is not None:
            kernel.append(relation)
    return [Polynomial(f.nvars, vec, DUAL) for vec in kernel]


def oracle_representative(f: Polynomial, target: Polynomial, min_order: int):
    span = WitnessSpan()
    for alpha in monomials_up_to(f.nvars, int(f.degree())):
        if sum(alpha) >= min_order:
            image = contract_by_monomial(f.terms, alpha)
            if image:
                span.insert(image, alpha)
    combo = span.solve(dict(target.terms))
    return None if combo is None else Polynomial(f.nvars, combo, DUAL)


def over_fields(f: Polynomial):
    """f over QQ and, coefficients reduced, over GF(32003)."""
    from apolarity.scalars import PrimeField

    gf = PrimeField(32003)
    yield f
    modular = Polynomial(f.nvars, {e: gf(c) for e, c in f.terms.items()}, f.side)
    if not modular.is_zero():
        yield modular


class TestLabelledSpanOracle:
    def test_annihilator_matches_witness_span(self, rng):
        for _ in range(12):
            for f in over_fields(random_polynomial(rng, rng.randint(1, 3), 4)):
                bound = int(f.degree()) + 1
                generators = annihilator_generators(f, bound)
                expected = oracle_annihilator(f, bound)
                assert set_of(generators) == set_of(expected)
                assert [g.terms for g in generators] == [g.terms for g in expected]

    def test_representative_operator_matches_witness_span(self, rng):
        for _ in range(8):
            for f in over_fields(random_polynomial(rng, rng.randint(1, 3), 4, max_terms=3)):
                space = diff_space(f)
                targets = list(zip(space.rows, space.orders))
                targets.append((random_polynomial(rng, f.nvars, 3), rng.randint(0, 2)))
                for target, order in targets:
                    for min_order in (0, order, order + 1):
                        got = representative_operator(f, target, min_order=min_order)
                        assert got == oracle_representative(f, target, min_order)


# -- diff_space, annihilator_generators and representative_operator against
# kernels that back-substituted on every insert (a closure of f under the
# dual variables for diff_space, the labelled calls on WitnessSpan above) -----
#
# Neither the echelon-only kernel nor the way Diff(f) is reached can change
# them: a full reduction's remainder is unique (two remainders differ by a
# span vector with no entry at any pivot, which is 0), so every independence
# decision agrees; a relation's coefficients over the independent labels are
# unique, so the kernel and `solve` agree; and the reduced echelon form of a
# space is unique, so the rows of diff_space, which inserts f's contraction
# table in grlex-descending order and reduces once, agree with the closure's.

def oracle_diff_rows(f: Polynomial) -> list:
    span = BackSubstitutingSpan()
    units = [tuple(int(i == k) for i in range(f.nvars)) for k in range(f.nvars)]
    queue = [dict(f.terms)]
    span.insert(queue[0])
    for current in queue:
        for unit in units:
            image = contract_by_monomial(current, unit)
            if image:
                index = span.insert(image)
                if index is not None:
                    queue.append(dict(span.rows[index]))
    order = sorted(range(span.dim), key=lambda i: grlex_key(span.pivots[i]), reverse=True)
    return [Polynomial(f.nvars, span.rows[i], PRIMAL) for i in order]


def typed_terms(p: Polynomial) -> list:
    return [(m, type(c).__name__, str(c)) for m, c in p.sorted_terms()]


def seeded_inputs(rng):
    """Sparse and dense polynomials in 1-4 variables, over QQ and GF(32003)."""
    for nvars, degree in ((1, 8), (2, 6), (3, 4), (4, 3)):
        sparse = random_polynomial(rng, nvars, degree)
        dense = Polynomial(nvars, {m: Fraction(rng.randint(1, 5) * rng.choice((1, -1)))
                                   for m in monomials_up_to(nvars, degree)})
        for f in (sparse, dense):
            yield from over_fields(f)


# the filtration benchmark's shapes: high socle degree, few terms
FILTRATION_SHAPED = (("x1^40 + x2^40", 2), ("x1^40 + x1^20*x2 + x2^13", 2),
                     ("x1^12 + x2^11 + x3^10 + x1^3*x2^3*x3^2", 3))


class TestEchelonOnlyKernelOracle:
    def test_diff_space_rows(self, rng):
        shaped = [f for text, nvars in FILTRATION_SHAPED for f in over_fields(parse(text, nvars))]
        for f in [*seeded_inputs(rng), *shaped]:
            rows_first, orders_first = diff_space(f), diff_space(f)
            rows, orders = rows_first.rows, orders_first.orders
            assert [typed_terms(r) for r in rows] == [typed_terms(r) for r in oracle_diff_rows(f)]
            # the reduced basis is built on first read, by either property
            assert [typed_terms(r) for r in orders_first.rows] == [typed_terms(r) for r in rows]
            assert rows_first.orders == orders

    def test_annihilator_generators(self, rng):
        for f in seeded_inputs(rng):
            bound = int(f.degree()) + 1
            got = annihilator_generators(f, bound)
            expected = oracle_annihilator(f, bound)
            assert [g.terms for g in got] == [g.terms for g in expected]
            assert [str(g) for g in got] == [str(g) for g in expected]

    def test_representative_operator(self, rng):
        for f in seeded_inputs(rng):
            space = diff_space(f)
            for target, order in zip(space.rows, space.orders):
                for min_order in (0, order, order + 1):
                    got = representative_operator(f, target, min_order=min_order)
                    assert got == oracle_representative(f, target, min_order)


class TestTaggedBasisReadPaths:
    """`FilteredSpace` eliminates f's table once, into a level-tagged basis
    that is never back-substituted; `contains` reads it directly.  Checked
    against the BFS closure `oracle_diff_rows`."""

    def test_contains(self, rng):
        shaped = [f for text, nvars in FILTRATION_SHAPED for f in over_fields(parse(text, nvars))]
        for f in [*seeded_inputs(rng), *shaped]:
            space = diff_space(f)
            oracle = oracle_diff_rows(f)
            zero = 0 * next(iter(f.terms.values()))
            degree = int(f.degree())
            for alpha in monomials_up_to(f.nvars, degree):
                image = contract_by_monomial(f.terms, alpha)
                if image:
                    assert space.contains(Polynomial(f.nvars, image, PRIMAL)), (str(f), alpha)
            pivots = {max(row.terms, key=grlex_key) for row in oracle}
            # a monomial that is no pivot of the space's echelon basis lies
            # outside it, and so does its sum with any vector of the space
            outside = [m for m in monomials_up_to(f.nvars, degree) if m not in pivots]
            for _ in range(6):
                combination: dict = {}
                for row in rng.sample(oracle, min(len(oracle), rng.randint(1, 4))):
                    c = rng.choice((-3, -2, -1, 1, 2, 3)) + zero
                    for m, v in row.terms.items():
                        combination[m] = combination.get(m, zero) + c * v
                combination = {m: v for m, v in combination.items() if v != 0}
                assert space.contains(Polynomial(f.nvars, combination, PRIMAL)), str(f)
                if outside:
                    m = rng.choice(outside)
                    shifted = dict(combination)
                    shifted[m] = shifted.get(m, zero) + 1
                    assert not space.contains(Polynomial(f.nvars, shifted, PRIMAL)), (str(f), m)


def counted_spans(monkeypatch) -> list:
    """Record every `MonomialSpan` built from now on: one per elimination."""
    built = []
    original = MonomialSpan.__init__

    def counted(self, p):
        built.append(p)
        original(self, p)

    monkeypatch.setattr(MonomialSpan, "__init__", counted)
    return built


class TestLocalSchemeBuildsDiffOnce:
    def test_one_elimination_per_scheme(self, monkeypatch, capsys):
        # length and H come from the annihilator's span: f's table is
        # eliminated once per scheme, and a cusp witness adds f_l's space
        from apolarity.cli import run
        from apolarity.witness import cusp_witness

        built = counted_spans(monkeypatch)
        F = parse("x0^3 + x1^3 + x2^3", 3, base=0)
        scheme = local_scheme(F, Polynomial.variable(3, 0))
        assert len(built) == 1
        assert scheme.stabilized
        assert scheme.stabilized == annihilator_stabilized(scheme.defining, 4)
        built.clear()
        assert cusp_witness(F).apolar_ok
        assert len(built) == 2
        built.clear()
        assert run(["annihilator", "--f", "x1^2*x2 + x2^2", "--nvars", "2"]) == 0
        assert len(built) == 1
        assert "stabilized = True" in capsys.readouterr().out.splitlines()

    def test_one_substitution_per_scheme(self, monkeypatch):
        # dehomogenize substitutes once; the form that apolarity is checked
        # against is f homogenized, not a second substitution of F
        from apolarity import poly

        calls = []
        original = poly.dp_substitute

        def counted(f, images):
            calls.append(f)
            return original(f, images)

        monkeypatch.setattr(poly, "dp_substitute", counted)
        F = parse("x0^3 + x1^3 + x2^3 + 5*x0*x1*x2", 3, base=0)
        scheme = local_scheme(F, parse("x0 + x1", 3, base=0))
        assert len(calls) == 1
        assert scheme.apolarity_checked

    def test_dead_relations_are_not_homogenized(self, monkeypatch):
        # a kernel element above deg F kills the form term by term, so it
        # never reaches `_kills`; every one at or below deg F does
        seen = []
        original = apolar._kills

        def recording(form, operators, p):
            seen.extend(operators)
            return original(form, seen, p)

        monkeypatch.setattr(apolar, "_kills", recording)
        F = parse("x0^3 + 2*x1^3 - x2^3 + 3*x0*x1*x2 + x1^2*x3 + x3^3", 4, base=0)
        support = parse("x0 + x1 - x2", 4, base=0)
        kernel, _, _ = _annihilator(dehomogenize(F, support)[0], 4)
        assert local_scheme(F, support).apolarity_checked
        tops = sorted(max(map(sum, w)) for w, _ in kernel)
        assert tops.count(4) > 0
        assert sorted(sum(next(iter(g))) for g in seen) == [t for t in tops if t <= 3]


class TestAnnihilatorSpanIsDiff:
    """From max_degree = deg f on, the annihilator's labelled span is Diff(f),
    so `_scheme` reads the length and H from it; checked against the tagged
    elimination of `FilteredSpace`."""

    def test_length_and_hilbert_match_the_filtered_space(self, rng):
        for _ in range(16):
            drawn = random_polynomial(rng, rng.randint(1, 4), rng.randint(1, 5), max_terms=8)
            for f in over_fields(drawn):
                space = diff_space(f)
                top = int(f.degree())
                for max_degree in {max(top, 1), top + 1}:
                    assert _annihilator(f, max_degree)[1].dim == space.dim, str(f)
                    _, length, hilbert, apolar_ok = _scheme(f, max_degree, homogenize(f, top))
                    assert (length, hilbert, apolar_ok) == (space.dim, space.hilbert_values(), True)

    @pytest.mark.parametrize("text,nvars,expected", [("x1^3", 1, False), ("x1^2 + x2", 2, True)])
    def test_below_deg_f_the_command_reports_the_length_check(self, capsys, text, nvars, expected):
        # the span up to max_degree < deg f need not be Diff(f), so the
        # command compares with apolar_length, and the check can fail
        from apolarity.cli import run

        assert annihilator_stabilized(parse(text, nvars), 1) is expected
        assert run(["annihilator", "--f", text, "--nvars", str(nvars), "--max-degree", "1"]) == 0
        assert f"stabilized = {expected}" in capsys.readouterr().out.splitlines()


class TestStabilizedEliminatesOnce:
    """`annihilator_stabilized` and the `annihilator` command take the kernel
    up to max_degree and the length from one elimination up to max(max_degree,
    deg f), checked against the two eliminations they replace."""

    def test_one_span_per_call(self, monkeypatch, capsys):
        from apolarity.cli import run

        f = parse("x1^3*x2 + x2^4 + x1*x2", 2)
        built = counted_spans(monkeypatch)
        for max_degree, expected in ((5, True), (2, False), (4, True)):
            assert annihilator_stabilized(f, max_degree) is expected
            assert len(built) == 1, max_degree
            built.clear()
        assert run(["annihilator", "--f", "x1^3*x2 + x2^4 + x1*x2", "--nvars", "2",
                    "--max-degree", "2"]) == 0
        assert len(built) == 1
        assert "stabilized = False" in capsys.readouterr().out.splitlines()

    def test_kernel_up_to_max_degree_is_the_short_run(self, rng):
        for _ in range(12):
            drawn = random_polynomial(rng, rng.randint(1, 3), rng.randint(1, 5), max_terms=6)
            for f in over_fields(drawn):
                top = int(f.degree())
                for max_degree in range(1, top + 2):
                    kernel, length = _kernel_and_length(f, max_degree)
                    assert kernel == _annihilator(f, max_degree)[0], (str(f), max_degree)
                    assert length == apolar_length(f)
                    total = len(list(monomials_up_to(f.nvars, max_degree)))
                    expected = total - len(kernel) == length
                    assert annihilator_stabilized(f, max_degree) is expected
                    # either one given, the other is computed
                    assert annihilator_stabilized(f, max_degree, generators=kernel) is expected
                    assert annihilator_stabilized(f, max_degree, length=length) is expected


class TestIntApolarityCheckCanFail:
    """The apolarity check reads every kernel element: one perturbed
    coefficient makes a local scheme and a cusp witness report False."""

    @staticmethod
    def perturb(monkeypatch):
        original = apolar._annihilator

        def perturbed(f, max_degree):
            kernel, span, columns = original(f, max_degree)
            # the first relation's lead has a nonzero image on f, so one more
            # of it (den more in the int relation w, the element being w / den)
            # takes the relation out of the kernel
            index = next(i for i, (w, _) in enumerate(kernel) if len(w) > 1)
            w, den = kernel[index]
            w = dict(w)
            lead = max(w, key=grlex_key)
            w[lead] += den
            kernel[index] = w, den
            return kernel, span, columns

        monkeypatch.setattr(apolar, "_annihilator", perturbed)

    @pytest.mark.parametrize("text", ["x0^3 + 2*x1^3 - x2^3 + 3*x0*x1*x2 + x1^2*x2",
                                      "x0^2*x1 - 1/2*x1^3 + 5*x2^3 + x0*x2^2"])
    def test_a_perturbed_kernel_element_is_caught(self, monkeypatch, text):
        from apolarity.witness import cusp_witness

        for f in over_fields(parse(text, 3, base=0)):
            support = parse("x0 + x1 - x2", 3, base=0)
            assert local_scheme(f, support).apolarity_checked
            assert cusp_witness(f).apolar_ok
            with monkeypatch.context() as patch:
                self.perturb(patch)
                assert not local_scheme(f, support).apolarity_checked, str(f)
                assert not cusp_witness(f).apolar_ok, str(f)
