"""Every all-zero row of a symmetric decomposition is one shared tuple.

The reference below is `SymmetricDecomposition.__init__` as it was before
zero rows were shared: it converts and checks every row.  Decompositions
from the enumerator and from `symmetric_decomposition`, and seeded mutated
copies of them, go through both constructors, which must accept and reject
alike, with the same exception and message, and store equal rows.  The
work-count tests then ask, without any timing, that the producers hand
over one zero row per socle degree; a pickled copy, whose zero rows are
not that tuple, must give the same answers.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction
from operator import ne

import pytest

from apolarity import bounds
from apolarity.enumeration import admissible_decompositions
from apolarity.hilbert import (
    SymmetricDecomposition,
    _zero_row,
    embedding_dims,
    symmetric_decomposition,
)
from apolarity.poly import parse

setfield = object.__setattr__

# -- the reference: the constructor's checks as they were, verbatim ---------


class ReferenceDecomposition:
    def __init__(self, d: int, rows: tuple):
        if d < 0:
            raise ValueError(f"socle degree {d} is negative")
        raw = rows
        rows = tuple(tuple(map(int, row)) for row in raw)
        # row by row: a second copy of all the rows would raise the peak memory
        if any(map(ne, rows, map(tuple, raw))):
            raise ValueError("decomposition entries must be integers")
        setfield(self, "d", d)
        setfield(self, "rows", rows)
        expected = max(d - 1, 1)
        if len(rows) != expected:
            raise ValueError(f"expected {expected} rows for socle degree {d}")
        for a, row in enumerate(rows):
            w = d - a  # row a lives on 0..w, symmetric about w / 2
            if len(row) != d + 1:
                raise ValueError("each row must have d+1 entries")
            if min(row) < 0:
                raise ValueError("negative entry in a decomposition row")
            if row[:w + 1] != row[w::-1]:
                raise ValueError(f"row {a} is not symmetric about {w / 2}")
            if any(row[w + 1:]):
                raise ValueError(f"row {a} has support beyond index {w}")
            if a >= 1 and row[0] != 0:
                raise ValueError("rows a >= 1 must vanish at index 0")
        if rows[0][0] != 1 or rows[0][d] != 1:
            raise ValueError("row 0 must start and end with 1")


# -- inputs -------------------------------------------------------------------

FILTRATION_INPUTS = (
    [(f"x1^{e} + x2^{e}", 2) for e in (100, 150, 200)]
    + [(f"x1^{e} + x1^{e // 2}*x2 + x2^{e // 3}", 2) for e in (60, 90)]
    + [("x1^12 + x2^11 + x3^10 + x1^3*x2^3*x3^2", 3)]
)


def _decompositions():
    out = [c.decomposition for length in range(14, 18)
           for c in admissible_decompositions(length, 8)]
    out += [symmetric_decomposition(parse(text, nvars)) for text, nvars in FILTRATION_INPUTS]
    return out


DECOMPOSITIONS = _decompositions()


def _with_row(rows: tuple, a: int, row) -> tuple:
    return rows[:a] + (row,) + rows[a + 1:]


def _mutants(dec: SymmetricDecomposition, rng: random.Random):
    """(label, rows) copies of dec's rows, each with one seeded change."""
    d, rows = dec.d, dec.rows
    nonzero = [a for a, row in enumerate(rows) if any(row)]
    zero = [a for a, row in enumerate(rows) if not any(row)]
    a = rng.choice(nonzero)
    row = list(rows[a])
    w = d - a
    i = rng.randint(0, d)

    def changed(index, value, base=row):
        copy = list(base)
        copy[index] = value
        return _with_row(rows, a, tuple(copy))

    yield "unchanged", rows
    if w >= 2:  # raising v_1 alone breaks the symmetry about w / 2
        yield "asymmetric", changed(1, row[1] + 1)
    yield "negative", changed(i, -1)
    if a >= 1:
        yield "support past d - a", changed(d, row[d] + 1)
        ends = list(row)
        ends[0] += 1
        ends[w] += 1
        yield "nonzero index 0", _with_row(rows, a, tuple(ends))
    yield "2.9", changed(i, 2.9)
    yield "2.0", changed(i, float(row[i]))
    yield "Fraction(2)", changed(i, Fraction(row[i]))
    yield "Fraction(5, 2)", changed(i, Fraction(5, 2))
    yield "list rows", tuple(list(r) for r in rows)
    yield "row too short", _with_row(rows, a, tuple(row[:-1]))
    yield "a row missing", rows[:-1]
    yield "a row too many", rows + (_zero_row(d),)
    if zero:
        b = rng.choice(zero)
        yield "fresh zero tuples", tuple((0,) * (d + 1) if r is _zero_row(d) else r
                                         for r in rows)
        yield "zero list row", _with_row(rows, b, [0] * (d + 1))
        yield "row of 0j", _with_row(rows, b, (0j,) * (d + 1))
        yield "row of 0.0", _with_row(rows, b, (0.0,) * (d + 1))
        yield "zero row of the wrong length", _with_row(rows, b, (0,) * d)
        yield "nonzero in a zero row", _with_row(rows, b, _zero_row(d)[:-1] + (2,))


def _outcome(cls, d, rows):
    try:
        made = cls(d, rows)
    except Exception as exc:  # the comparison is of the exception itself
        return "rejected", type(exc), str(exc)
    return "accepted", made.d, made.rows


class TestAgainstTheUnsharedConstructor:
    def test_seeded_inputs_and_mutants(self):
        rng = random.Random(20260)
        seen = set()
        for dec in DECOMPOSITIONS:
            for label, rows in _mutants(dec, rng):
                expected = _outcome(ReferenceDecomposition, dec.d, rows)
                got = _outcome(SymmetricDecomposition, dec.d, rows)
                assert got == expected, (label, dec)
                seen.add((label, expected[0]))
        # every kind of change was tried, and the checks rejected the bad ones
        assert {label for label, verdict in seen if verdict == "rejected"} >= {
            "asymmetric", "negative", "support past d - a", "nonzero index 0", "2.9",
            "Fraction(5, 2)", "row too short", "a row missing", "a row too many",
            "row of 0j", "zero row of the wrong length", "nonzero in a zero row"}
        assert {label for label, verdict in seen if verdict == "accepted"} >= {
            "unchanged", "2.0", "Fraction(2)", "list rows", "fresh zero tuples",
            "zero list row", "row of 0.0"}

    def test_accepted_zero_rows_become_the_shared_row(self):
        for dec in DECOMPOSITIONS:
            d = dec.d
            fresh = tuple([list(r) for r in dec.rows])  # no row is the shared one
            rebuilt = SymmetricDecomposition(d=d, rows=fresh)
            assert rebuilt == dec
            assert all(r is _zero_row(d) for r in rebuilt.rows if not any(r))

    def test_pickled_copies_give_the_same_answers(self):
        copied = 0
        for dec in DECOMPOSITIONS:
            restored = pickle.loads(pickle.dumps(dec))
            assert restored == dec and hash(restored) == hash(dec)
            if any(not any(r) for r in dec.rows):
                # fresh tuples, restored without __init__: the fast path is off
                assert not any(r is _zero_row(dec.d) for r in restored.rows)
                copied += 1
            assert restored.hilbert() == dec.hilbert()
            assert restored.trimmed_rows() == dec.trimmed_rows()
            assert restored.nonzero_rows() == dec.nonzero_rows()
            assert restored.arrow_str() == dec.arrow_str()
            assert embedding_dims(restored) == embedding_dims(dec)
            if dec.d >= 3:
                n = max(8, dec.hilbert()[1])
                assert bounds.v_bound(restored, n) == bounds.v_bound(dec, n)
        assert copied > 100


class TestOneZeroRowPerSocleDegree:
    """Deterministic work counts: no timing."""

    @staticmethod
    def _check(dec: SymmetricDecomposition):
        zeros = [r for r in dec.rows if not any(r)]
        nonzero = len(dec.rows) - len(zeros)
        assert all(r is _zero_row(dec.d) for r in zeros)
        assert len({id(r) for r in dec.rows}) <= nonzero + 1

    @pytest.mark.parametrize("e", [200, 800])
    def test_symmetric_decomposition_of_a_binary_power_sum(self, e):
        dec = symmetric_decomposition(parse(f"x1^{e} + x2^{e}", 2))
        assert len(dec.rows) == e - 1
        assert [a for a, _ in dec.nonzero_rows()] == [0]
        self._check(dec)

    def test_every_enumerated_candidate(self):
        candidates = admissible_decompositions(17, 8)
        assert len(candidates) == 322
        zero_rows = 0
        for candidate in candidates:
            self._check(candidate.decomposition)
            zero_rows += sum(not any(r) for r in candidate.decomposition.rows)
        assert zero_rows > 0
