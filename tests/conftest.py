"""Shared helpers: seeded random polynomial generators and dense oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import pytest

from apolarity.poly import DUAL, PRIMAL, Polynomial, grlex_key
from apolarity.scalars import from_integers, one_like, to_integers


def random_coefficient(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(-4, 4))
    if rng.random() < 0.25:
        value += Fraction(rng.randint(-3, 3), rng.choice([2, 3]))
    return value


def random_polynomial(
    rng: random.Random,
    nvars: int,
    max_degree: int,
    max_terms: int = 5,
    side: str = PRIMAL,
    homogeneous: bool = False,
    min_order: int = 0,
) -> Polynomial:
    """Sparse random polynomial; never zero."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            if homogeneous:
                degree = max_degree
            else:
                degree = rng.randint(min_order, max_degree)
            exponents = [0] * nvars
            for _ in range(degree):
                exponents[rng.randrange(nvars)] += 1
            value = random_coefficient(rng)
            if value != 0:
                key = tuple(exponents)
                terms[key] = terms.get(key, Fraction(0)) + value
        poly = Polynomial(nvars, terms, side)
        if not poly.is_zero() and poly.order() >= min_order:
            return poly


def terms_of_degree(f: Polynomial, keep) -> Polynomial:
    """The terms of f whose total degree the predicate `keep` accepts."""
    return Polynomial(f.nvars, {e: c for e, c in f.terms.items() if keep(sum(e))}, f.side)


def random_dual_operator(rng: random.Random, nvars: int, max_degree: int) -> Polynomial:
    """Random dual polynomial of order >= 2 (for hidden-variable extensions)."""
    return random_polynomial(
        rng, nvars, max_degree, max_terms=3, side=DUAL, min_order=2
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


def dense_substitution_oracle(f: Polynomial, images) -> Polynomial:
    """Independent check of dp_substitute via the ordinary-polynomial model.

    Over the rationals, the divided-power basis element x^[b] corresponds
    to x^b / b!; transport f, substitute densely with sympy, and transport
    back.  Valid in characteristic zero only.
    """
    import sympy

    n_old = f.nvars
    n_new = len(images[0]) if images else 0
    zs = sympy.symbols(f"z0:{max(n_new, 1)}")
    linear = [sum(sympy.Rational(c) * zs[j] for j, c in enumerate(row)) for row in images]
    expr = sympy.Integer(0)
    for exponents, coeff in f.terms.items():
        factorial = 1
        monomial = sympy.Integer(1)
        for i, e in enumerate(exponents):
            factorial *= sympy.factorial(e)
            monomial *= linear[i] ** e
        expr += sympy.Rational(coeff) * monomial / factorial
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, *zs[:n_new]) if n_new else None
    terms = {}
    if poly is None:
        if expr != 0:
            terms[()] = Fraction(int(sympy.numer(expr)), int(sympy.denom(expr)))
    else:
        for monomial, coeff in poly.terms():
            factorial = 1
            for e in monomial:
                factorial *= sympy.factorial(e)
            value = sympy.Rational(coeff) * factorial
            terms[tuple(monomial)] = Fraction(int(sympy.numer(value)), int(sympy.denom(value)))
    return Polynomial(n_new, terms, PRIMAL)


# -- the dense Gauss-Jordan inverse that once computed the inverse change of
# variables in `dehomogenize` and `adapt_coordinates`, kept verbatim as the
# reference inverse for their change-of-basis records --------------------------

def _invert_matrix(rows: Sequence[Sequence]) -> list:
    """Invert a small square matrix over the coefficient field."""
    n = len(rows)
    one = one_like(next((x for r in rows for x in r if x != 0), 1))
    zero = one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- the sparse elimination kernel as it was while every insert back-
# substituted into the older rows (and their label combinations), kept
# verbatim apart from its name as an oracle for the echelon-only kernel --------

def _subtract(target: dict, factor, source: dict):
    """target -= factor * source, in place, dropping zero entries."""
    for k, c in source.items():
        new = target.get(k, 0) - factor * c
        if new == 0:
            target.pop(k, None)
        else:
            target[k] = new


class BackSubstitutingSpan:
    """Row-echelon span maintained under row insertion, reduced unless tagged."""

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: list[tuple] = []
        self.by_pivot: dict[tuple, int] = {}
        # id(row) -> {label: coeff} with row = sum coeff * g_label; rows are
        # updated in place and never replaced, so their ids stay valid
        self._combos: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, used: dict | None = None) -> dict:
        """Fully reduce vec against the span; returns a fresh dict.

        When `used` is given, the label combination of the subtracted rows
        accumulates in it, so that vec = remainder - sum(used[L] * g_L).
        """
        out = dict(vec)
        while True:
            lead = None
            for m in out:
                if m in self.by_pivot and (lead is None or grlex_key(m) > grlex_key(lead)):
                    lead = m
            if lead is None:
                return out
            factor = out[lead]
            row = self.rows[self.by_pivot[lead]]
            for m, c in row.items():
                new = out.get(m, 0) - factor * c
                if new == 0:
                    out.pop(m, None)
                else:
                    out[m] = new
            if used is not None:
                _subtract(used, factor, self._combos[id(row)])
        # unreachable

    def _append(self, rem: dict, combo: dict | None, back_substitute: bool = True) -> int:
        """Normalise a nonzero remainder, clear its pivot from older rows if asked, store it."""
        lead = max(rem, key=grlex_key)
        inv = rem[lead]
        row = {m: c / inv for m, c in rem.items()}
        if combo is not None:
            combo = {k: c / inv for k, c in combo.items()}
        # keep existing rows fully reduced against the new pivot
        for other in self.rows if back_substitute else ():
            if lead in other:
                factor = other[lead]
                for m, c in row.items():
                    new = other.get(m, 0) - factor * c
                    if new == 0:
                        other.pop(m, None)
                    else:
                        other[m] = new
                if combo is not None:
                    _subtract(self._combos[id(other)], factor, combo)
        index = len(self.rows)
        self.rows.append(row)
        self.pivots.append(lead)
        self.by_pivot[lead] = index
        if combo is not None:
            self._combos[id(row)] = combo
        return index

    def insert(self, vec: dict):
        """Insert vec; returns the new row index, or None if dependent."""
        rem = self.reduce(vec)
        if not rem:
            return None
        return self._append(rem, None)

    def insert_labelled(self, vec: dict, label):
        """Insert generator `vec` named `label`.

        Returns (index, None) when independent, or (None, relation) where
        relation maps labels to the coefficients of a vanishing combination
        that includes the new label with coefficient 1.
        """
        used: dict = {}
        rem = self.reduce(vec, used)
        used[label] = used.get(label, 0) + 1
        used = {k: c for k, c in used.items() if c != 0}
        if not rem:
            return None, used
        return self._append(rem, used), None

    def insert_tagged(self, vec: dict, tag):
        """Insert vec labelled {tag: 1}, tags distinct, not back-substituted; index or None."""
        rem = self.reduce(vec)
        if not rem:
            return None
        return self._append(rem, {tag: 1}, back_substitute=False)

    def solve(self, vec: dict):
        """Express vec in the span; returns the label combination or None."""
        used: dict = {}
        if self.reduce(vec, used):
            return None
        return {k: -c for k, c in used.items()}

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


# -- monomials as the int columns of a span ----------------------------------

class Columns:
    """The given monomials as the int columns of a `linalg.MonomialSpan`,
    ranked grlex ascending as `apolar` ranks a table's, so that a row's
    pivot column is its grlex-greatest monomial.  A field vector on the
    monomials enters a span as the int vector that `scalars.to_integers`
    writes it as; rows and int vectors leave keyed by monomials."""

    def __init__(self, monomials):
        self.monomials = sorted(set(monomials), key=grlex_key)
        self.rank = {m: column for column, m in enumerate(self.monomials)}

    def ints(self, vec: dict, p: int) -> dict:
        """The int vector w on columns with vec = w / den in the field of
        characteristic p, for some den."""
        values, _ = to_integers(vec.values(), p)
        return {self.rank[m]: c for m, c in zip(vec, values) if c}

    def field(self, w: dict, p: int) -> dict:
        """The int vector w as field scalars on monomials: the vector that a
        span given w holds."""
        return self.keyed(dict(zip(w, from_integers(w.values(), 1, p))))

    def keyed(self, row: dict) -> dict:
        return {self.monomials[column]: c for column, c in row.items()}


def field_relation(inserted, p: int):
    """`MonomialSpan.insert_relation`'s (index, None) as it is, and its
    (None, (w, den)) as (None, the relation w / den in field scalars), as
    `BackSubstitutingSpan.insert_labelled` gives it."""
    index, relation = inserted
    if relation is None:
        return inserted
    w, den = relation
    return None, dict(zip(w, from_integers(w.values(), den, p)))
