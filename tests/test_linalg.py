"""The sparse elimination kernel: an echelon basis with one reduction pass."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from apolarity.apolar import _annihilator, _kills, annihilator_generators, apolar_length, diff_space
from apolarity.linalg import MonomialSpan, grlex_rank
from apolarity.poly import PRIMAL, Polynomial, _contractions, grlex_key, monomials_up_to
from apolarity.scalars import RATIONALS, PrimeField

from conftest import BackSubstitutingSpan

GF = PrimeField(32003)


def random_vectors(rng: random.Random, coerce, count: int, monomials=None) -> list:
    """Sparse vectors over a few monomials (those of degree <= 3 in 3
    variables unless given), about a third of them dependent."""
    monomials = list(monomials_up_to(3, 3)) if monomials is None else monomials
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
                    span.insert(vec)
                span.back_substitute()
                expected = gauss_jordan(vectors)
                assert sorted(span.pivots, key=grlex_key) == sorted(expected, key=grlex_key)
                for row, pivot in zip(span.rows, span.pivots):
                    assert typed(row) == typed(expected[pivot])

    def test_fractional_entries_match_dense_gauss_jordan(self):
        rng = random.Random(11)
        for _ in range(25):
            vectors = random_vectors(rng, fractional, rng.randint(1, 14))
            span = MonomialSpan(0)
            for vec in vectors:
                span.insert(vec)
            span.back_substitute()
            expected = gauss_jordan(vectors)
            assert {p: typed(row) for p, row in zip(span.pivots, span.rows)} == \
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
            span.insert(vec)
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
                plain.insert(vec)
                tagged.insert_tagged(vec, tag)
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
        kernel, span = _annihilator(f, 25)
        assert _kills(f.terms, [w for w, _ in kernel], 0)
        assert len(kernel) == 182 and span.dim == apolar_length(f) == 169


class TestAgainstBackSubstitutingKernel:
    """Inserts, remainders and relations equal those of the kernel that
    back-substituted on every insert, although stored rows now stay as
    they were appended."""

    def test_unlabelled_decisions_and_remainders(self):
        rng = random.Random(9)
        for field in (RATIONALS, GF):
            for _ in range(20):
                vectors = random_vectors(rng, field, 12)
                span, oracle = MonomialSpan(field.characteristic), BackSubstitutingSpan()
                for vec in vectors:
                    probe = random_vectors(rng, field, 1)[0]
                    assert typed(span.reduce(probe)) == typed(oracle.reduce(probe))
                    index = span.insert(vec)
                    assert index == oracle.insert(vec)
                    if index is not None:
                        # the new row is the normalised unique remainder
                        assert typed(span.rows[index]) == typed(oracle.rows[index])

    def test_labelled_relations_and_solutions(self):
        rng = random.Random(10)
        for field in (RATIONALS, GF):
            for _ in range(20):
                vectors = random_vectors(rng, field, 12)
                span, oracle = MonomialSpan(field.characteristic), BackSubstitutingSpan()
                for label, vec in enumerate(vectors):
                    got = span.insert_labelled(vec, label)
                    assert got == oracle.insert_labelled(vec, label)
                for vec in random_vectors(rng, field, 6):
                    assert span.solve(vec) == oracle.solve(vec)

    def test_tagged_labels_and_solutions(self):
        # a tag's generator is its row as appended, with leading coefficient
        # 1: the generator a labelled span is given for that row
        rng = random.Random(14)
        for characteristic, coerce in ((0, RATIONALS), (0, fractional), (GF.p, GF)):
            for _ in range(20):
                vectors = random_vectors(rng, coerce, 12)
                span, oracle = MonomialSpan(characteristic), BackSubstitutingSpan()
                appended = BackSubstitutingSpan()
                for tag, vec in enumerate(vectors):
                    index = span.insert_tagged(vec, tag)
                    assert index == oracle.insert_tagged(vec, tag)
                    if index is not None:
                        appended.insert_labelled(span.rows[index], tag)
                for vec in random_vectors(rng, coerce, 6):
                    assert span.solve(vec) == appended.solve(vec)
                    used: dict = {}
                    oracle.reduce(vec, used)
                    assert span.labels(vec) == {tag for tag, c in used.items() if c != 0}

    def test_back_substitute_keeps_each_rows_combination(self):
        # back-substituting halfway moves no relation, solution or label set,
        # and a tag still names its row as appended
        def assert_same(span, oracle, probes):
            span.back_substitute()
            assert {p: typed(r) for p, r in zip(span.pivots, span.rows)} == \
                {p: typed(r) for p, r in zip(oracle.pivots, oracle.rows)}
            for vec in probes:
                assert span.solve(vec) == oracle.solve(vec)
                used: dict = {}
                oracle.reduce(vec, used)
                assert span.labels(vec) == {label for label, c in used.items() if c != 0}

        rng = random.Random(16)
        for characteristic, coerce in ((0, RATIONALS), (0, fractional), (GF.p, GF)):
            for _ in range(20):
                vectors = random_vectors(rng, coerce, 12)
                probes = random_vectors(rng, coerce, 6)
                labelled, tagged = MonomialSpan(characteristic), MonomialSpan(characteristic)
                labelled_oracle, appended = BackSubstitutingSpan(), BackSubstitutingSpan()
                for label, vec in enumerate(vectors):
                    if label == len(vectors) // 2:
                        assert_same(labelled, labelled_oracle, probes)
                        assert_same(tagged, appended, probes)
                    got = labelled.insert_labelled(vec, label)
                    assert got == labelled_oracle.insert_labelled(vec, label)
                    if (index := tagged.insert_tagged(vec, label)) is not None:
                        appended.insert_labelled(tagged.rows[index], label)
                assert_same(labelled, labelled_oracle, probes)
                assert_same(tagged, appended, probes)

    def test_fractional_entries(self):
        rng = random.Random(12)
        for _ in range(20):
            vectors = random_vectors(rng, fractional, 12)
            span, oracle = MonomialSpan(0), BackSubstitutingSpan()
            labelled, labelled_oracle = MonomialSpan(0), BackSubstitutingSpan()
            for label, vec in enumerate(vectors):
                probe = random_vectors(rng, fractional, 1)[0]
                assert typed(span.reduce(probe)) == typed(oracle.reduce(probe))
                index = span.insert(vec)
                assert index == oracle.insert(vec)
                if index is not None:
                    assert typed(span.rows[index]) == typed(oracle.rows[index])
                got = labelled.insert_labelled(vec, label)
                assert got == labelled_oracle.insert_labelled(vec, label)
            for vec in random_vectors(rng, fractional, 6):
                assert labelled.solve(vec) == labelled_oracle.solve(vec)

    def test_prime_field_coerces_ints_and_fractions(self):
        rng = random.Random(13)
        for coerce in (int, fractional):
            for _ in range(10):
                vectors = random_vectors(rng, coerce, 12)
                fields = [{m: GF(c) for m, c in vec.items()} for vec in vectors]
                # the span is told its field, so ints and Fractions are read
                # in GF(p) from the first vector on
                given_span, field_span = MonomialSpan(GF.p), MonomialSpan(GF.p)
                for label, (vec, field_vec) in enumerate(zip(vectors, fields)):
                    got = given_span.insert_labelled(vec, label)
                    expected = field_span.insert_labelled(field_vec, label)
                    assert got[0] == expected[0]
                    assert labelled_typed(got[1]) == labelled_typed(expected[1])
                for vec in random_vectors(rng, coerce, 6):
                    field_vec = {m: GF(c) for m, c in vec.items()}
                    assert typed(given_span.reduce(vec)) == typed(field_span.reduce(field_vec))
                    assert labelled_typed(given_span.solve(vec)) == \
                        labelled_typed(field_span.solve(field_vec))
                    assert given_span.contains(vec) == field_span.contains(field_vec)
                assert [typed(r) for r in given_span.rows] == [typed(r) for r in field_span.rows]

    def test_a_denominator_divisible_by_p_raises(self):
        span = MonomialSpan(GF.p)
        span.insert({(1,): GF(1)})
        for call in (span.insert, span.reduce, span.contains, span.solve):
            with pytest.raises(ZeroDivisionError):
                call({(0,): Fraction(1, 32003)})
        with pytest.raises(ZeroDivisionError):
            span.insert_labelled({(0,): Fraction(2, 3 * 32003)}, "a")

    def test_a_prime_field_value_in_a_rational_span_raises(self):
        span = MonomialSpan(0)
        span.insert({(0,): Fraction(1)})
        for call in (span.insert, span.reduce, span.contains, span.solve, span.labels):
            with pytest.raises(ValueError, match=r"GF\(32003\)"):
                call({(1,): GF(1)})
        with pytest.raises(ValueError, match=r"GF\(32003\)"):
            span.insert_labelled({(1,): Fraction(1, 2), (0,): GF(1)}, "a")
        with pytest.raises(ValueError, match=r"GF\(32003\)"):
            MonomialSpan(0).insert({(1,): GF(1)})

    def test_relation_coefficients_stay_in_the_field(self):
        span = MonomialSpan(GF.p)
        span.insert_labelled({(1,): GF(2)}, "a")
        _, relation = span.insert_labelled({(1,): GF(4)}, "b")
        assert relation == {"a": GF(-2), "b": GF(1)}
        assert all(type(c) is type(GF(1)) for c in relation.values())
        # an empty generator is a relation by itself, with the field's one
        assert labelled_typed(span.insert_labelled({}, "c")[1]) == labelled_typed({"c": GF(1)})
        assert labelled_typed(MonomialSpan(0).insert_labelled({}, "c")[1]) == \
            labelled_typed({"c": Fraction(1)})


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
    """A `MonomialSpan` eliminates on int columns, each monomial's grlex
    rank: exact and order-preserving for any exponents and variable count,
    so it decides, reduces and relates as a span on the monomials does."""

    def test_the_rank_counts_along_monomials_up_to(self):
        for n in range(1, 5):
            for d in range(7):
                ranks = [grlex_rank(m) for m in monomials_up_to(n, d)]
                assert ranks == list(range(len(ranks))), (n, d)

    @pytest.mark.parametrize("nvars", [2, 3, 12])
    def test_the_rank_orders_wide_monomials_as_grlex(self, nvars):
        monomials = wide_monomials(random.Random(nvars), nvars, 60)
        assert max(map(max, monomials)) >= 65536
        by_rank = sorted(monomials, key=grlex_rank)
        assert by_rank == sorted(monomials, key=grlex_key)
        ranks = [grlex_rank(m) for m in by_rank]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("field", [RATIONALS, GF], ids=("QQ", "GF"))
    @pytest.mark.parametrize("nvars", [2, 3, 12])
    def test_wide_spans_match_the_back_substituting_kernel(self, field, nvars):
        rng = random.Random(20 + nvars)
        for _ in range(8):
            monomials = wide_monomials(rng, nvars, 10)
            vectors = random_vectors(rng, field, 12, monomials)
            span, oracle = MonomialSpan(field.characteristic), BackSubstitutingSpan()
            labelled, labelled_oracle = MonomialSpan(field.characteristic), BackSubstitutingSpan()
            for label, vec in enumerate(vectors):
                probe = random_vectors(rng, field, 1, monomials)[0]
                assert typed(span.reduce(probe)) == typed(oracle.reduce(probe))
                index = span.insert(vec)
                assert index == oracle.insert(vec)
                if index is not None:
                    assert span.pivots[index] == oracle.pivots[index]
                    assert typed(span.rows[index]) == typed(oracle.rows[index])
                assert labelled.insert_labelled(vec, label) == \
                    labelled_oracle.insert_labelled(vec, label)
            for vec in random_vectors(rng, field, 6, monomials):
                assert labelled.solve(vec) == labelled_oracle.solve(vec)
                assert span.contains(vec) == oracle.contains(vec)
            span.back_substitute()
            assert span.by_pivot == oracle.by_pivot
            assert [typed(row) for row in span.rows] == [typed(row) for row in oracle.rows]
