"""Ints into the elimination layer.

A `linalg.MonomialSpan` reads int vectors on int columns as they are: the
contraction tables of `apolar`, ranked once, and stored `int_row`s, with no
conversion.  It must give what `conftest.BackSubstitutingSpan`, an
elimination that shares no code with it, gives for the same vectors as
field scalars on monomials, over QQ and GF(32003).  The apolarity check
converts no operator that cannot contract the form."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from apolarity import apolar, linalg, poly
from apolarity.apolar import _int_terms, _kills, _ranked, diff_space, is_apolar, local_scheme
from apolarity.linalg import MonomialSpan
from apolarity.poly import (DUAL, PRIMAL, Polynomial, _contractions, grlex_key,
                            monomials_of_degree, parse)
from apolarity.scalars import PrimeField, characteristic, from_integers

from conftest import BackSubstitutingSpan, field_relation

GF = PrimeField(32003)


def on_fields(f: Polynomial):
    """f over QQ and, coefficients reduced, over GF(32003)."""
    yield f
    yield Polynomial(f.nvars, {e: GF(c) for e, c in f.terms.items()}, f.side)


def cubic_in_nine() -> Polynomial:
    """A fixed dense cubic form in x0..x8, some coefficients fractional."""
    terms = {m: Fraction((7 * k) % 11 - 5, 1 + k % 3)
             for k, m in enumerate(monomials_of_degree(9, 3))}
    return Polynomial(9, terms, PRIMAL)


ORACLE_FORMS = (
    parse("1/2*x1^3 - 2/3*x1*x2^2 + 5/7*x2*x3 + x3^2 - 3/4*x1 + 1/5", 3),
    parse("x1^4 + 3*x1^2*x2^2 - x2^4 + 2*x1*x2 + x2", 2),
    parse("x1^2*x2*x3 + 1/3*x2^3 - x3^3 + 7*x1*x3", 3),
)


def field_of(w: dict, p: int) -> dict:
    """The int dict w with its entries as field scalars."""
    return dict(zip(w, from_integers(w.values(), 1, p)))


def in_field(vec, p: int) -> bool:
    """Whether every entry of the dict vec is a scalar of the field of
    characteristic p; the oracle leaves some as ints."""
    kind = type(from_integers([1], 1, p)[0])
    return vec is None or all(type(c) is kind for c in vec.values())


class TestIntEntryOracle:
    """Table images given to a span as ints on ranked columns and to the
    oracle as field scalars on monomials give the same spans, and no dict
    given changes."""

    @pytest.mark.parametrize("f", [g for f in ORACLE_FORMS for g in on_fields(f)], ids=str)
    def test_same_spans_as_field_scalars(self, f):
        p = characteristic(f.terms.values())
        table = _contractions(_int_terms(f.terms, p)[0])
        columns, rank, ranked = _ranked(table)
        # a monomial above deg f is on no image; grlex-greater than every
        # column, it takes the next one
        outside = next(monomials_of_degree(f.nvars, 1 + int(f.degree())))
        columns.append(outside)
        rank[outside] = len(rank)

        def keyed(w):
            return {columns[column]: c for column, c in w.items()}

        alphas = sorted(table, key=grlex_key, reverse=True)
        pairs = {kind: (MonomialSpan(p), BackSubstitutingSpan())
                 for kind in ("plain", "relation", "tagged")}
        # a tag's generator is its row as appended, with leading coefficient
        # 1, which is what this oracle is given under the tag
        appended = BackSubstitutingSpan()
        for alpha in alphas:
            image = ranked[alpha]
            given = dict(image)
            field = field_of(table[alpha], p)
            ints, oracle = pairs["plain"]
            index = ints.insert(image)
            assert index == oracle.insert(field)
            # the same relation as ints w over den, w without zeros
            ints, oracle = pairs["relation"]
            got = ints.insert_relation(image, alpha)
            if got[1] is not None:
                w, den = got[1]
                assert all(w.values()) and den == (1 if p else w[alpha])
            got = field_relation(got, p)
            assert got == oracle.insert_labelled(field, alpha) and in_field(got[1], p)
            ints, oracle = pairs["tagged"]
            assert ints.insert_tagged(image, alpha) == oracle.insert_tagged(field, alpha)
            if index is not None:
                appended.insert_labelled(keyed(ints.rows[index]), alpha)
            for ints, oracle in pairs.values():
                if index is not None:  # the new row is the normalised remainder
                    assert keyed(ints.rows[-1]) == oracle.rows[-1], alpha
                    assert in_field(ints.rows[-1], p)
            assert image == given, alpha

        rng = random.Random(5)
        for kind, (ints, oracle) in pairs.items():
            assert ints.dim == oracle.dim > 0
            assert [columns[pivot] for pivot in ints.pivots] == oracle.pivots, kind
            # the oracle back-substitutes every untagged insert
            if kind != "tagged":
                ints.back_substitute()
            assert [keyed(row) for row in ints.rows] == oracle.rows, kind
            for index in range(ints.dim if kind != "plain" else 0):
                row = ints.int_row(index)
                held = dict(row)
                used: dict = {}
                oracle.reduce(keyed(ints.rows[index]), used)
                tags = ints.labels(row)
                assert tags == {label for label, c in used.items() if c != 0} and tags
                assert ints.int_row(index) is row and row == held

            # an int combination of images, and the same with one entry moved
            # off the span: solve and contains agree on both
            for _ in range(4):
                target: dict = {}
                for alpha in rng.sample(alphas, min(3, len(alphas))):
                    c = rng.choice((-2, -1, 1, 3))
                    for m, v in table[alpha].items():
                        target[m] = target.get(m, 0) + c * v
                target = {m: v % p if p else v for m, v in target.items()}
                target = {m: v for m, v in target.items() if v}
                for monomials in (target, {**target, outside: 1}):
                    vec = {rank[m]: c for m, c in monomials.items()}
                    given = dict(vec)
                    field = field_of(monomials, p)
                    if kind != "plain":
                        got = ints.solve(vec)
                        solver = appended if kind == "tagged" else oracle
                        assert got == solver.solve(field) and in_field(got, p), kind
                        assert (got is None) == (monomials is not target)
                    assert ints.contains(vec) == oracle.contains(field) == (monomials is target)
                    assert vec == given

    def test_the_tagged_basis_holds_no_given_dict(self):
        # the span copies what it is given; a table image stays the caller's
        f = ORACLE_FORMS[0]
        _, _, table = _ranked(_contractions(_int_terms(f.terms, 0)[0]))
        span = MonomialSpan(0)
        for alpha in sorted(table, key=grlex_key, reverse=True):
            span.insert_tagged(table[alpha], alpha)
        held = {id(image) for image in table.values()}
        assert not any(id(span.int_row(i)) in held for i in range(span.dim))


def counted(monkeypatch, module, name) -> list:
    """A one-element list counting the calls of module.name from now on."""
    calls = [0]
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def recorded_spans(monkeypatch) -> list:
    spans = []
    original = MonomialSpan.__init__

    def recording(self, p):
        original(self, p)
        spans.append(self)

    monkeypatch.setattr(MonomialSpan, "__init__", recording)
    return spans


def watched_elimination(monkeypatch) -> dict:
    """Counts, from now on, of the monomial-order work the elimination
    layer does: `grlex_key` calls made from `linalg`, heap entries that are
    not ints, and all heap entries."""
    seen = dict.fromkeys(("grlex_key", "not_int", "entries"), 0)
    original = poly.grlex_key

    def key(exponents):
        if sys._getframe(1).f_globals["__name__"] == linalg.__name__:
            seen["grlex_key"] += 1
        return original(exponents)

    monkeypatch.setattr(poly, "grlex_key", key)
    monkeypatch.setattr(linalg, "grlex_key", key, raising=False)

    def entries(items):
        items = list(items)
        seen["entries"] += len(items)
        seen["not_int"] += sum(type(item) is not int for item in items)

    heapify, heappush = linalg.heapify, linalg.heappush

    def watched_heapify(heap):
        entries(heap)
        heapify(heap)

    def watched_heappush(heap, item):
        entries((item,))
        heappush(heap, item)

    monkeypatch.setattr(linalg, "heapify", watched_heapify)
    monkeypatch.setattr(linalg, "heappush", watched_heappush)
    return seen


def assert_int_columns(seen: dict):
    """The elimination ordered its work by int columns alone: no
    `grlex_key` call, no per-pivot key, and it did eliminate."""
    assert seen["grlex_key"] == 0
    assert seen["not_int"] == 0 and seen["entries"] > 0


class TestNoPerVectorConversion:
    """Per-vector work the elimination layer no longer does: no field
    conversion of a table image or stored row, and no monomial order: its
    heap holds the int columns themselves and no `grlex_key` is called."""

    @pytest.mark.parametrize("F", list(on_fields(cubic_in_nine())), ids=("QQ", "GF"))
    def test_local_scheme(self, monkeypatch, F):
        conversions = counted(monkeypatch, apolar, "to_integers")
        seen = watched_elimination(monkeypatch)
        spans = recorded_spans(monkeypatch)
        scheme = local_scheme(F, parse("x0 + x1 - x8", 9, base=0))
        assert scheme.apolarity_checked and scheme.length == 18  # 2n + 2, n = 8
        # f's table and the form's table only: the kernel leaves the span as
        # int relations, 147 of degree <= 3 and 330 dual monomials of degree 4
        low = [g for g in scheme.annihilator if g.degree() <= 3]
        assert len(low) == 147 and len(scheme.annihilator) - len(low) == 330
        assert conversions[0] == 2
        assert len(spans) == 1
        assert_int_columns(seen)

    @pytest.mark.parametrize("f", list(on_fields(parse("x0^3 + 2*x1^3 - x2^3 + x0*x1*x2", 3,
                                                        base=0))), ids=("QQ", "GF"))
    def test_cusp_witness_builds_no_kernel_polynomial(self, monkeypatch, f):
        from apolarity.witness import cusp_witness

        trusted = counted(monkeypatch, Polynomial, "_trusted")
        scalars = counted(monkeypatch, apolar, "from_integers")
        duals = []
        build = Polynomial.__init__

        def recording(self, nvars, terms, side=PRIMAL):
            build(self, nvars, terms, side)
            if side == DUAL:
                duals.append(self)

        monkeypatch.setattr(Polynomial, "__init__", recording)
        report = cusp_witness(f)
        assert report.apolar_ok and report.length_g <= 7
        # the kernel of g stays int relations: no field scalar and no
        # polynomial is made of it; the one dual polynomial is y0, which
        # checks y0(G) = F
        assert (trusted[0], scalars[0]) == (0, 0)
        assert [str(g) for g in duals] == ["y1"]
        # while a local scheme builds each generator it returns, once
        scheme = local_scheme(f, parse("x0 + x1", 3, base=0))
        assert trusted[0] == len(scheme.annihilator) and scalars[0] == trusted[0]
        assert len(duals) == 1

    @pytest.mark.parametrize("F", list(on_fields(cubic_in_nine())), ids=("QQ", "GF"))
    def test_orders_and_linear_partials(self, monkeypatch, F):
        conversions = counted(monkeypatch, apolar, "to_integers")
        seen = watched_elimination(monkeypatch)
        spans = recorded_spans(monkeypatch)
        space = diff_space(F)
        assert space.orders == (0,) + (1,) * 9 + (2,) * 9 + (3,)
        assert len(space.linear_partials(0)) == 9
        assert conversions[0] == 1  # F's table
        assert len(spans) == 2 and spans[0].dim == space.dim == 20
        assert_int_columns(seen)


class TestKillsDegreeSkip:
    """`_kills` skips operators whose every term is above the form's degree:
    their image is 0.  A generator of the form's degree is still applied."""

    FORM = "x0^3 + 2*x1^3 + x0*x1*x2"
    ABOVE = ("y0^4", "y0^2*y1^2 - 5*y2^4", "y1^3*y2")

    @pytest.mark.parametrize("F", list(on_fields(parse(FORM, 3, base=0))), ids=("QQ", "GF"))
    def test_a_perturbed_generator_of_the_forms_degree_is_caught(self, F):
        field = GF if characteristic(F.terms.values()) else None

        def dual(text):
            return parse(text, 3, side=DUAL, base=0, **({"field": field} if field else {}))

        above = [dual(text) for text in self.ABOVE]
        kills, perturbed = dual("2*y0^3 - y1^3"), dual("3*y0^3 - y1^3")
        assert is_apolar([kills, *above], F)
        assert is_apolar(above, F)
        assert not is_apolar([perturbed, *above], F)
        assert not is_apolar([*above, perturbed], F)
        assert not is_apolar([*above, dual("y0*y1*y2")], F)  # degree 3, image 1

    def test_an_operator_with_a_low_term_is_applied(self):
        F = parse(self.FORM, 3, base=0)
        # y0^4 + y0^3 is above deg F in one term only; its image is 1
        assert not _kills(F.terms, [{(4, 0, 0): 1, (3, 0, 0): 1}], 0)
        assert _kills(F.terms, [{(4, 0, 0): 1, (0, 4, 0): -1}], 0)
        assert _kills({}, [{(1, 0, 0): 1}, {(0, 0, 0): 1}], 0)
        assert is_apolar([parse("y1", 3, side=DUAL, base=0)], Polynomial.zero(3))

    def test_operators_above_the_form_are_not_converted(self, monkeypatch):
        F = parse(self.FORM, 3, base=0)
        conversions = counted(monkeypatch, apolar, "to_integers")
        above = [{m: Fraction(1, 2)} for m in monomials_of_degree(3, 4)]
        assert _kills(F.terms, above, 0)
        assert conversions[0] == 1  # the form only

    def test_is_apolar_converts_no_generator_above_the_form(self, monkeypatch):
        F = parse(self.FORM, 3, base=0)
        conversions = counted(monkeypatch, apolar, "to_integers")
        above = [parse(text, 3, side=DUAL, base=0) for text in self.ABOVE]
        assert is_apolar([*above, Polynomial.zero(3, DUAL)], F)
        assert conversions[0] == 1  # the form only
        assert not is_apolar([*above, parse("y0*y1*y2", 3, side=DUAL, base=0)], F)
        assert conversions[0] == 3  # the form and the generator of its degree


class TestReturnedGenerators:
    """The generators built from the kernel's int relations, unvalidated,
    are what the validating constructor makes of the same terms."""

    @pytest.mark.parametrize("f", [g for f in ORACLE_FORMS for g in on_fields(f)], ids=str)
    def test_as_validated_polynomials(self, f):
        from apolarity.apolar import annihilator_generators

        kind = type(next(iter(f.terms.values())))
        for max_degree in (int(f.degree()), int(f.degree()) + 1):
            generators = annihilator_generators(f, max_degree)
            assert len(generators) > 1
            for g in generators:
                assert g == Polynomial(f.nvars, g.terms, DUAL) and g.side == DUAL
                assert all(type(c) is kind and c != 0 for c in g.terms.values())
                assert all(len(m) == f.nvars for m in g.terms)
                assert g.terms[max(g.terms, key=grlex_key)] == 1
