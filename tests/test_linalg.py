"""The sparse elimination kernel: an echelon basis with one reduction pass."""

from __future__ import annotations

import random
from fractions import Fraction

from apolarity.linalg import MonomialSpan
from apolarity.poly import grlex_key, monomials_up_to
from apolarity.scalars import PrimeField

from conftest import BackSubstitutingSpan

GF = PrimeField(32003)


def random_vectors(rng: random.Random, coerce, count: int) -> list:
    """Sparse vectors over a few monomials, about a third of them dependent."""
    monomials = list(monomials_up_to(3, 3))
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
        matrix[rank] = [x / inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    out = {}
    for row in matrix[:rank]:
        terms = {m: x for m, x in zip(columns, row) if x != 0}
        out[max(terms, key=grlex_key)] = terms
    return out


def typed(row: dict) -> list:
    return sorted((grlex_key(m), type(c).__name__, str(c)) for m, c in row.items())


class TestBackSubstitute:
    def test_random_order_matches_dense_gauss_jordan(self):
        rng = random.Random(7)
        for coerce in (Fraction, GF):
            for _ in range(25):
                vectors = random_vectors(rng, coerce, rng.randint(1, 14))
                rng.shuffle(vectors)
                span = MonomialSpan()
                for vec in vectors:
                    span.insert(vec)
                span.back_substitute()
                expected = gauss_jordan(vectors)
                assert sorted(span.pivots, key=grlex_key) == sorted(expected, key=grlex_key)
                for row, pivot in zip(span.rows, span.pivots):
                    assert typed(row) == typed(expected[pivot])

    def test_one_pass_on_a_reduced_span_changes_nothing(self):
        rng = random.Random(8)
        vectors = random_vectors(rng, Fraction, 12)
        span = MonomialSpan()
        for vec in vectors:
            span.insert(vec)
        span.back_substitute()
        reduced = [dict(row) for row in span.rows]
        span.back_substitute()
        assert span.rows == reduced


class TestAgainstBackSubstitutingKernel:
    """Inserts, remainders and relations equal those of the kernel that
    back-substituted on every insert, although stored rows now stay as
    they were appended."""

    def test_unlabelled_decisions_and_remainders(self):
        rng = random.Random(9)
        for coerce in (Fraction, GF):
            for _ in range(20):
                vectors = random_vectors(rng, coerce, 12)
                span, oracle = MonomialSpan(), BackSubstitutingSpan()
                for vec in vectors:
                    probe = random_vectors(rng, coerce, 1)[0]
                    assert typed(span.reduce(probe)) == typed(oracle.reduce(probe))
                    index = span.insert(vec)
                    assert index == oracle.insert(vec)
                    if index is not None:
                        # the new row is the normalised unique remainder
                        assert typed(span.rows[index]) == typed(oracle.rows[index])

    def test_labelled_relations_and_solutions(self):
        rng = random.Random(10)
        for coerce in (Fraction, GF):
            for _ in range(20):
                vectors = random_vectors(rng, coerce, 12)
                span, oracle = MonomialSpan(), BackSubstitutingSpan()
                for label, vec in enumerate(vectors):
                    got = span.insert_labelled(vec, label)
                    assert got == oracle.insert_labelled(vec, label)
                for vec in random_vectors(rng, coerce, 6):
                    assert span.solve(vec) == oracle.solve(vec)

    def test_relation_coefficients_stay_in_the_field(self):
        span = MonomialSpan()
        span.insert_labelled({(1,): GF(2)}, "a")
        _, relation = span.insert_labelled({(1,): GF(4)}, "b")
        assert relation == {"a": GF(-2), "b": GF(1)}
        assert all(type(c) is type(GF(1)) for c in relation.values())
