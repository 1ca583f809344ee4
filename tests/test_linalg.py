"""The sparse elimination kernel: an echelon basis with one reduction pass.

A span reads int vectors on int columns; here random vectors on monomials
enter it through `conftest.Columns`, as `apolar` ranks a table, and its
rows, relations and solutions are compared with dense Gauss-Jordan
elimination and with `conftest.BackSubstitutingSpan` on the monomials."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from apolarity.apolar import _annihilator, _kills, annihilator_generators, apolar_length, diff_space
from apolarity.linalg import MonomialSpan
from apolarity.poly import PRIMAL, Polynomial, _contractions, grlex_key, monomials_up_to
from apolarity.scalars import RATIONALS, PrimeField

from conftest import BackSubstitutingSpan, Columns, field_relation

GF = PrimeField(32003)
SMALL = Columns(monomials_up_to(3, 3))  # the monomials of `random_vectors`


def random_vectors(rng: random.Random, coerce, count: int, monomials=None) -> list:
    """Sparse vectors over a few monomials (those of degree <= 3 in 3
    variables unless given), about a third of them dependent."""
    monomials = SMALL.monomials if monomials is None else monomials
    out = []
    while len(out) < count:
        if out and rng.random() < 0.35:
            vec = {}
            for other in rng.sample(out, min(len(out), 3)):
                c = coerce(rng.randint(-3, 3))
                for m, v in other.items():
                    vec[m] = vec.get(m, 0) + c * v
        else:
            vec = {m: coerce(rng.randint(-4, 4)) for m in rng.sample(monomials, rng.randint(1, 5))}
        vec = {m: v for m, v in vec.items() if v != 0}
        if vec:
            out.append(vec)
    return out


def entered(columns: Columns, vectors: list, p: int) -> list:
    """(w, g) for each vector: the int vector a span is given and the same
    generator as field scalars on monomials, for an oracle."""
    out = []
    for vec in vectors:
        w = columns.ints(vec, p)
        out.append((w, columns.field(w, p)))
    return out


def gauss_jordan(vectors: list) -> dict:
    """Reduced row echelon form by dense elimination, as {pivot: row}."""
    columns = sorted({m for vec in vectors for m in vec}, key=grlex_key, reverse=True)
    matrix = [[vec.get(m, 0) for m in columns] for vec in vectors]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col]
        # zeros are skipped, not divided or multiplied: the dense 2-variable
        # closure below is mostly zeros
        matrix[rank] = [x / inv if x else x for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y if y else x for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    out = {}
    for row in matrix[:rank]:
        terms = {m: x for m, x in zip(columns, row) if x != 0}
        out[max(terms, key=grlex_key)] = terms
    return out


def typed(row: dict) -> list:
    return sorted((grlex_key(m), type(c).__name__, str(c)) for m, c in row.items())


def labelled_typed(combination: dict | None):
    if combination is None:
        return None
    return sorted((label, type(c).__name__, str(c)) for label, c in combination.items())


def fractional(n: int) -> Fraction:
    """n over a denominator of 1 to 4, so vectors need a common denominator."""
    return Fraction(n, 1 + abs(n) % 4)


def dense_binary(degree: int) -> Polynomial:
    """Every monomial of degree <= `degree` in 2 variables, coefficients +-1..5."""
    rng = random.Random(5)
    return Polynomial(2, {m: Fraction(rng.randint(1, 5) * rng.choice((1, -1)))
                          for m in monomials_up_to(2, degree)}, PRIMAL)


class TestBackSubstitute:
    def test_random_order_matches_dense_gauss_jordan(self):
        rng = random.Random(7)
        for field in (RATIONALS, GF):
            for _ in range(25):
                vectors = random_vectors(rng, field, rng.randint(1, 14))
                rng.shuffle(vectors)
                span = MonomialSpan(field.characteristic)
                for vec in vectors:
                    span.insert(SMALL.ints(vec, field.characteristic))
                span.back_substitute()
                expected = gauss_jordan(vectors)
                pivots = [SMALL.monomials[pivot] for pivot in span.pivots]
                assert sorted(pivots, key=grlex_key) == sorted(expected, key=grlex_key)
                for row, pivot in zip(span.rows, pivots):
                    assert typed(SMALL.keyed(row)) == typed(expected[pivot])

    def test_fractional_entries_match_dense_gauss_jordan(self):
        rng = random.Random(11)
        for _ in range(25):
            vectors = random_vectors(rng, fractional, rng.randint(1, 14))
            span = MonomialSpan(0)
            for vec in vectors:
                span.insert(SMALL.ints(vec, 0))
            span.back_substitute()
            expected = gauss_jordan(vectors)
            assert {SMALL.monomials[p]: typed(SMALL.keyed(row))
                    for p, row in zip(span.pivots, span.rows)} == \
                {p: typed(row) for p, row in expected.items()}

    def test_dense_closure_with_wide_entries_matches_gauss_jordan(self):
        f = dense_binary(16)
        expected = gauss_jordan(list(_contractions(f.terms).values()))
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for row in expected.values() for c in row.values())
        assert bits > 64  # past any machine word
        rows = diff_space(f).rows
        assert len(rows) == len(expected)
        for row in rows:
            terms = dict(row.terms)
            assert typed(terms) == typed(expected[max(terms, key=grlex_key)])

    def test_one_pass_on_a_reduced_span_changes_nothing(self):
        rng = random.Random(8)
        vectors = random_vectors(rng, Fraction, 12)
        span = MonomialSpan(0)
        for vec in vectors:
            span.insert(SMALL.ints(vec, 0))
        span.back_substitute()
        reduced = [dict(row) for row in span.rows]
        span.back_substitute()
        assert span.rows == reduced

    def test_int_rows_are_primitive_with_a_positive_lead(self):
        # over QQ a row that `int_row` hands to another span is the field
        # row times a positive int with no factor common to its entries,
        # as appended and after back-substitution; an unlabelled and a
        # tagged span normalise the row alone
        def assert_primitive(span):
            for index in range(span.dim):
                row = span.int_row(index)
                assert row[span.pivots[index]] > 0
                assert gcd(*row.values()) == 1

        rng = random.Random(15)
        for _ in range(20):
            vectors = [{m: rng.choice((-6, -2, 3, 4)) * c for m, c in vec.items()}
                       for vec in random_vectors(rng, fractional, 12)]
            plain, tagged = MonomialSpan(0), MonomialSpan(0)
            for tag, vec in enumerate(vectors):
                w = SMALL.ints(vec, 0)
                plain.insert(w)
                tagged.insert_tagged(w, tag)
            assert_primitive(tagged)
            assert_primitive(plain)
            plain.back_substitute()
            assert_primitive(plain)


class TestContentStep:
    def test_integers_stay_small_on_a_dense_rational_form(self, monkeypatch):
        # the reduction takes out the factor common to its scale, vector and
        # combination; without it the integers it hands back on this input
        # reach about 7,000 bits, with it about 760
        peak = [0]
        reduce = MonomialSpan._reduce

        def tracked(self, w, combo):
            scale = reduce(self, w, combo)
            held = (scale, *w.values(), *(combo.values() if combo is not None else ()))
            peak[0] = max(peak[0], *(abs(v).bit_length() for v in held))
            return scale

        monkeypatch.setattr(MonomialSpan, "_reduce", tracked)
        annihilator_generators(dense_binary(24), 25)
        assert 0 < peak[0] <= 1500

    def test_relations_stay_exact_through_the_content_step(self):
        # the factor divided out of a labelled reduction is common to its
        # combination too, so every relation still kills f; the unlabelled
        # elimination of the same table takes the step without a combination
        f = dense_binary(24)
        kernel, span, _ = _annihilator(f, 25)
        assert _kills(f.terms, [w for w, _ in kernel], 0)
        assert len(kernel) == 182 and span.dim == apolar_length(f) == 169


class TestAgainstBackSubstitutingKernel:
    """Inserts, remainders and relations equal those of the kernel that
    back-substituted on every insert, although stored rows now stay as
    they were appended."""

    def test_unlabelled_decisions_and_remainders(self):
        rng = random.Random(9)
        for field in (RATIONALS, GF):
            p = field.characteristic
            for _ in range(20):
                span, oracle = MonomialSpan(p), BackSubstitutingSpan()
                for w, vec in entered(SMALL, random_vectors(rng, field, 12), p):
                    probe = SMALL.ints(random_vectors(rng, field, 1)[0], p)
                    assert span.contains(probe) == oracle.contains(SMALL.field(probe, p))
                    index = span.insert(w)
                    assert index == oracle.insert(vec)
                    if index is not None:
                        # the new row is the normalised unique remainder
                        assert typed(SMALL.keyed(span.rows[index])) == typed(oracle.rows[index])

    def test_labelled_relations_and_solutions(self):
        rng = random.Random(10)
        for field in (RATIONALS, GF):
            p = field.characteristic
            for _ in range(20):
                span, oracle = MonomialSpan(p), BackSubstitutingSpan()
                for label, (w, vec) in enumerate(entered(SMALL, random_vectors(rng, field, 12), p)):
                    got = field_relation(span.insert_relation(w, label), p)
                    assert got == oracle.insert_labelled(vec, label)
                for w, vec in entered(SMALL, random_vectors(rng, field, 6), p):
                    assert span.solve(w) == oracle.solve(vec)

    def test_tagged_labels_and_solutions(self):
        # a tag's generator is its row as appended, with leading coefficient
        # 1: the generator a labelled span is given for that row
        rng = random.Random(14)
        for characteristic, coerce in ((0, RATIONALS), (0, fractional), (GF.p, GF)):
            for _ in range(20):
                span, oracle = MonomialSpan(characteristic), BackSubstitutingSpan()
                appended = BackSubstitutingSpan()
                vectors = entered(SMALL, random_vectors(rng, coerce, 12), characteristic)
                for tag, (w, vec) in enumerate(vectors):
                    index = span.insert_tagged(w, tag)
                    assert index == oracle.insert_tagged(vec, tag)
                    if index is not None:
                        appended.insert_labelled(SMALL.keyed(span.rows[index]), tag)
                for w, vec in entered(SMALL, random_vectors(rng, coerce, 6), characteristic):
                    assert span.solve(w) == appended.solve(vec)
                    used: dict = {}
                    oracle.reduce(vec, used)
                    assert span.labels(w) == {tag for tag, c in used.items() if c != 0}

    def test_back_substitute_keeps_each_rows_combination(self):
        # back-substituting halfway moves no relation, solution or label set,
        # and a tag still names its row as appended
        def assert_same(span, oracle, probes):
            span.back_substitute()
            assert {SMALL.monomials[p]: typed(SMALL.keyed(r)) for p, r in zip(span.pivots, span.rows)} == \
                {p: typed(r) for p, r in zip(oracle.pivots, oracle.rows)}
            for w, vec in probes:
                assert span.solve(w) == oracle.solve(vec)
                used: dict = {}
                oracle.reduce(vec, used)
                assert span.labels(w) == {label for label, c in used.items() if c != 0}

        rng = random.Random(16)
        for characteristic, coerce in ((0, RATIONALS), (0, fractional), (GF.p, GF)):
            for _ in range(20):
                vectors = entered(SMALL, random_vectors(rng, coerce, 12), characteristic)
                probes = entered(SMALL, random_vectors(rng, coerce, 6), characteristic)
                labelled, tagged = MonomialSpan(characteristic), MonomialSpan(characteristic)
                labelled_oracle, appended = BackSubstitutingSpan(), BackSubstitutingSpan()
                for label, (w, vec) in enumerate(vectors):
                    if label == len(vectors) // 2:
                        assert_same(labelled, labelled_oracle, probes)
                        assert_same(tagged, appended, probes)
                    got = field_relation(labelled.insert_relation(w, label), characteristic)
                    assert got == labelled_oracle.insert_labelled(vec, label)
                    if (index := tagged.insert_tagged(w, label)) is not None:
                        appended.insert_labelled(SMALL.keyed(tagged.rows[index]), label)
                assert_same(labelled, labelled_oracle, probes)
                assert_same(tagged, appended, probes)

    def test_fractional_entries(self):
        # a vector enters as ints over its common denominator: the decisions
        # and rows are those of the fractions, and a relation is one among
        # the int generators
        rng = random.Random(12)
        for _ in range(20):
            vectors = random_vectors(rng, fractional, 12)
            span, oracle = MonomialSpan(0), BackSubstitutingSpan()
            labelled, labelled_oracle = MonomialSpan(0), BackSubstitutingSpan()
            for label, vec in enumerate(vectors):
                w = SMALL.ints(vec, 0)
                probe = random_vectors(rng, fractional, 1)[0]
                assert span.contains(SMALL.ints(probe, 0)) == oracle.contains(probe)
                index = span.insert(w)
                assert index == oracle.insert(vec)
                if index is not None:
                    assert typed(SMALL.keyed(span.rows[index])) == typed(oracle.rows[index])
                got = field_relation(labelled.insert_relation(w, label), 0)
                assert got == labelled_oracle.insert_labelled(SMALL.field(w, 0), label)
            for w, vec in entered(SMALL, random_vectors(rng, fractional, 6), 0):
                assert labelled.solve(w) == labelled_oracle.solve(vec)

    def test_prime_field_coerces_ints_and_fractions(self):
        # over GF(p) an int or a Fraction enters a span as the residue of
        # the element of GF(p) it names, as `PrimeFieldElement` coerces it
        rng = random.Random(13)
        element = type(GF(1))
        for coerce in (int, fractional):
            for _ in range(10):
                span, oracle = MonomialSpan(GF.p), BackSubstitutingSpan()
                for label, vec in enumerate(random_vectors(rng, coerce, 12)):
                    field_vec = {m: GF(c) for m, c in vec.items()}
                    w = SMALL.ints(vec, GF.p)
                    assert w == SMALL.ints(field_vec, GF.p)
                    got = field_relation(span.insert_relation(w, label), GF.p)
                    assert got == oracle.insert_labelled(field_vec, label)
                    assert all(type(c) is element for c in (got[1] or {}).values())
                for vec in random_vectors(rng, coerce, 6):
                    field_vec = {m: GF(c) for m, c in vec.items()}
                    w = SMALL.ints(vec, GF.p)
                    assert span.solve(w) == oracle.solve(field_vec)
                    assert span.contains(w) == oracle.contains(field_vec)
                span.back_substitute()
                assert [typed(SMALL.keyed(r)) for r in span.rows] == [typed(r) for r in oracle.rows]

    def test_a_denominator_divisible_by_p_raises(self):
        # such a value names no element of GF(p), so no vector holding it
        # has an int vector to enter a span with
        for vec in ({(0, 0, 0): Fraction(1, 32003)},
                    {(1, 0, 0): GF(1), (0, 0, 0): Fraction(2, 3 * 32003)}):
            with pytest.raises(ZeroDivisionError):
                SMALL.ints(vec, GF.p)

    def test_a_prime_field_value_in_a_rational_span_raises(self):
        for vec in ({(1, 0, 0): GF(1)}, {(1, 0, 0): Fraction(1, 2), (0, 0, 0): GF(1)}):
            with pytest.raises(ValueError, match=r"GF\(32003\)"):
                SMALL.ints(vec, 0)

    def test_relation_coefficients_stay_in_the_field(self):
        x = SMALL.rank[(1, 0, 0)]
        span = MonomialSpan(GF.p)
        span.insert_relation({x: 2}, "a")
        # residues over 1, the new label's entry 1
        assert span.insert_relation({x: 4}, "b") == (None, ({"b": 1, "a": GF.p - 2}, 1))
        relation = field_relation(span.insert_relation({x: 4}, "b"), GF.p)[1]
        assert relation == {"a": GF(-2), "b": GF(1)}
        assert all(type(c) is type(GF(1)) for c in relation.values())
        # over QQ the relation -2 a + b = 0 among 2x and 4x, in ints
        span = MonomialSpan(0)
        span.insert_relation({x: 2}, "a")
        assert span.insert_relation({x: 4}, "b") == (None, ({"b": 1, "a": -2}, 1))
        # an empty generator is a relation by itself, with the field's one
        assert labelled_typed(field_relation(span.insert_relation({}, "c"), 0)[1]) == \
            labelled_typed({"c": Fraction(1)})
        assert labelled_typed(field_relation(MonomialSpan(GF.p).insert_relation({}, "c"), GF.p)[1]) \
            == labelled_typed({"c": GF(1)})


def wide_monomials(rng: random.Random, nvars: int, count: int) -> list:
    """At least `count` distinct monomials in nvars variables with exponents
    up to past 2^16, each with a permutation of itself, which has its degree
    but not its place in lex order."""
    exponents = (0, 1, 2, 255, 256, 257, 65535, 65536, 65537)
    pool = set()
    while len(pool) < count:
        m = [0] * nvars
        for i in rng.sample(range(nvars), rng.randint(1, min(3, nvars))):
            m[i] = rng.choice(exponents)
        pool.add(tuple(m))
        pool.add(tuple(rng.sample(m, nvars)))
    return sorted(pool)


class TestColumnMap:
    """Monomials with exponents past 2^16, in up to 12 variables, ranked as
    int columns: a span decides, reduces and relates on them as the oracle
    does on the monomials themselves."""

    @pytest.mark.parametrize("field", [RATIONALS, GF], ids=("QQ", "GF"))
    @pytest.mark.parametrize("nvars", [2, 3, 12])
    def test_wide_spans_match_the_back_substituting_kernel(self, field, nvars):
        rng = random.Random(20 + nvars)
        p = field.characteristic
        widest = 0
        for _ in range(8):
            monomials = wide_monomials(rng, nvars, 10)
            widest = max(widest, *map(max, monomials))
            columns = Columns(monomials)
            span, oracle = MonomialSpan(p), BackSubstitutingSpan()
            labelled, labelled_oracle = MonomialSpan(p), BackSubstitutingSpan()
            for label, (w, vec) in enumerate(entered(columns, random_vectors(rng, field, 12, monomials), p)):
                probe = columns.ints(random_vectors(rng, field, 1, monomials)[0], p)
                assert span.contains(probe) == oracle.contains(columns.field(probe, p))
                index = span.insert(w)
                assert index == oracle.insert(vec)
                if index is not None:
                    assert columns.monomials[span.pivots[index]] == oracle.pivots[index]
                    assert typed(columns.keyed(span.rows[index])) == typed(oracle.rows[index])
                got = field_relation(labelled.insert_relation(w, label), p)
                assert got == labelled_oracle.insert_labelled(vec, label)
            for w, vec in entered(columns, random_vectors(rng, field, 6, monomials), p):
                assert labelled.solve(w) == labelled_oracle.solve(vec)
                assert span.contains(w) == oracle.contains(vec)
            span.back_substitute()
            assert {columns.monomials[c]: i for c, i in span.by_pivot.items()} == oracle.by_pivot
            assert [typed(columns.keyed(row)) for row in span.rows] == \
                [typed(row) for row in oracle.rows]
        assert widest >= 65536
