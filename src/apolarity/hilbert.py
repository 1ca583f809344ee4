"""Hilbert functions of apolar algebras and their symmetric decompositions.

The Hilbert function is read off the degree filtration of Diff(f):
H(i) = dim Diff(f)_i - dim Diff(f)_{i-1}, indexed by partial degree.

The symmetric decomposition splits H into rows Delta_a, a = 0..d-2, where
Delta_a(i) counts partials of degree i and order d-a-i modulo the adjacent
filtration steps.  With M(i, j) = dim(Diff(f)_i ∩ O_j) the exact value is

    Delta_a(i) = [M(i, j) - M(i, j+1)] - [M(i-1, j) - M(i-1, j+1)],
    j = d - a - i,

the rank form of the successive quotients C_a / C_{a+1} of the Loewy/
m-adic double filtration.  Dropping the second bracket (the naive quotient
of partials of degree <= i by lower-degree and lower-level ones) would
overcount: a partial of low degree and low order would be charged to every
larger i as well.  The level-tagged basis of Diff(f) has M(i, j) rows of
level >= j and pivot degree <= i, so the difference is the number of its
rows of level exactly j and degree exactly i, and Delta is that count.
Each row is symmetric about (d - a) / 2, and the rows sum to H.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import TYPE_CHECKING

# The polynomial side is imported inside the three functions that compute
# Diff(f), so the verifier (bounds, enumeration, macaulay) never loads it.
if TYPE_CHECKING:
    from .poly import Polynomial


@dataclass(frozen=True)
class HilbertFunction:
    """Values (H(0), ..., H(d)) of the Hilbert function; d = socle degree."""

    values: tuple

    def __post_init__(self):
        raw = tuple(self.values)
        values = tuple(map(int, raw))
        if values != raw:
            raise ValueError("Hilbert function values must be integers")
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("empty Hilbert function")
        if values[0] != 1:
            raise ValueError("H(0) must be 1")
        if values[-1] != 1:
            raise ValueError("H(d) must be 1")
        if any(v < 1 for v in values):
            raise ValueError("H must be positive through the socle degree")

    @property
    def socle_degree(self) -> int:
        return len(self.values) - 1

    @property
    def length(self) -> int:
        return sum(self.values)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


def hilbert_function(f: Polynomial) -> HilbertFunction:
    """Hilbert function of the apolar algebra of f, by partial degree."""
    from .apolar import diff_space

    if f.is_zero():
        raise ValueError("Hilbert function of the zero polynomial is undefined")
    return HilbertFunction(diff_space(f).hilbert_values())


@dataclass(frozen=True)
class SymmetricDecomposition:
    """Rows Delta_a, a = 0..max(d-2, 0), each of length d+1, summing to H."""

    d: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        # row by row: a second copy of all the rows would raise the peak memory
        if any(map(ne, rows, map(tuple, self.rows))):
            raise ValueError("decomposition entries must be integers")
        object.__setattr__(self, "rows", rows)
        expected = max(self.d - 1, 1)
        if len(rows) != expected:
            raise ValueError(f"expected {expected} rows for socle degree {self.d}")
        for a, row in enumerate(rows):
            w = self.d - a  # row a lives on 0..w, symmetric about w / 2
            if len(row) != self.d + 1:
                raise ValueError("each row must have d+1 entries")
            if min(row) < 0:
                raise ValueError("negative entry in a decomposition row")
            if row[:w + 1] != row[w::-1]:
                raise ValueError(f"row {a} is not symmetric about {w / 2}")
            if any(row[w + 1:]):
                raise ValueError(f"row {a} has support beyond index {w}")
            if a >= 1 and row[0] != 0:
                raise ValueError("rows a >= 1 must vanish at index 0")
        if rows[0][0] != 1 or rows[0][self.d] != 1:
            raise ValueError("row 0 must start and end with 1")

    def entry(self, a: int, i: int) -> int:
        if 0 <= a < len(self.rows) and 0 <= i <= self.d:
            return self.rows[a][i]
        return 0

    def hilbert(self) -> HilbertFunction:
        return HilbertFunction(tuple(sum(col) for col in zip(*self.rows)))

    def trimmed_rows(self) -> list:
        """Rows cut to their support range 0..d-a."""
        return [row[: self.d - a + 1] for a, row in enumerate(self.rows)]

    def nonzero_rows(self) -> list:
        """(a, trimmed row) for the rows that are not identically zero."""
        return [(a, row) for a, row in enumerate(self.trimmed_rows()) if any(row)]

    def arrow_str(self) -> str:
        """Compact `H -> row, row` rendering, nonzero rows only."""
        h = ",".join(str(v) for v in self.hilbert())
        rows = ",".join("(" + ",".join(str(v) for v in row) + ")"
                        for _, row in self.nonzero_rows())
        return f"({h}) -> {rows}"


def symmetric_decomposition(f: Polynomial) -> SymmetricDecomposition:
    """Symmetric decomposition of the Hilbert function of the algebra of f."""
    from .apolar import diff_space

    if f.is_zero():
        raise ValueError("decomposition of the zero polynomial is undefined")
    space = diff_space(f)
    d = space.socle_degree
    rows = [[0] * (d + 1) for _ in range(max(d - 1, 1))]
    for j, i in space.bidegrees():
        # the bracket difference counts the tagged rows of level exactly j and
        # degree exactly i; a = d - j - i lies in 0..max(d-2, 0) since order +
        # degree <= d, and the constant and f sit at levels d and 0
        rows[d - j - i][i] += 1
    decomposition = SymmetricDecomposition(d=d, rows=tuple(rows))
    if tuple(decomposition.hilbert()) != space.hilbert_values():
        raise AssertionError("decomposition rows do not sum to the Hilbert function")
    return decomposition


def embedding_dims(decomposition: SymmetricDecomposition) -> tuple:
    """Partial sums n_i = sum_{a <= i} Delta_a(1), i = 0..d-2."""
    out = []
    total = 0
    for a in range(max(decomposition.d - 1, 1)):
        total += decomposition.entry(a, 1)
        out.append(total)
    return tuple(out)


def adapt_coordinates(f: Polynomial):
    """Change coordinates so the order flag on linear partials is standard.

    After the substitution, the degree-1 partials of order >= d-1-a span
    exactly the first n_a variables, for every a.  Trailing variables that
    no longer occur are removed and counted on the returned ChangeOfBasis.
    Variables outside the linear-partial span can still occur: they enter
    through hidden-variable summands and no linear change eliminates them.
    """
    from .apolar import diff_space
    from .linalg import MonomialSpan
    from .poly import ChangeOfBasis, dp_substitute
    from .scalars import characteristic, one_like, to_integers

    if f.is_zero():
        raise ValueError("cannot adapt the zero polynomial")
    space = diff_space(f)
    n = f.nvars
    p = characteristic(f.terms.values())
    zero = one_like(next(iter(f.terms.values()))) * 0

    def entered(vec: list) -> tuple:
        # (w, den): vec = w / den, variable i at column n - 1 - i, so that
        # x_0 is the greatest column, as in grlex
        ints, den = to_integers(vec, p)
        return {n - 1 - i: c for i, c in enumerate(ints) if c}, den

    span = MonomialSpan(p)
    new_to_old: list = []

    def choose(w: dict):
        # the new row is the normalised remainder, pivot at its lowest variable
        index = span.insert(w)
        if index is not None:
            row = span.rows[index]
            new_to_old.append([row.get(n - 1 - i, zero) for i in range(n)])

    # a level without a degree-1 pair adds no row, so its partials are already chosen
    for j in sorted({j for j, i in space.bidegrees() if i == 1}, reverse=True):
        for vec in space.linear_partials(j):
            choose(entered(vec)[0])
    for i in range(n):
        if n - 1 - i not in span.by_pivot:
            choose({n - 1 - i: 1})
    if len(new_to_old) != n:
        raise AssertionError("could not complete the linear-partial flag to a basis")
    # old variable i is the combination of flag rows that solves for unit i;
    # flag row k goes in as dens[k] times itself, so its coefficient is
    # dens[k] times the one the span finds
    inverse = MonomialSpan(p)
    dens = []
    for k, row in enumerate(new_to_old):
        w, den = entered(row)
        inverse.insert_relation(w, k)
        dens.append(den)
    old_to_new = []
    for i in range(n):
        combination = inverse.solve({n - 1 - i: 1})
        old_to_new.append([combination.get(k, zero) * den for k, den in enumerate(dens)])
    adapted = dp_substitute(f, old_to_new)
    kept = 0
    for exponents in adapted.terms:
        for index in range(n - 1, kept - 1, -1):
            if exponents[index]:
                kept = index + 1
                break
    dropped = n - kept
    if dropped:
        adapted = adapted.restrict(kept)
    change = ChangeOfBasis(
        old_to_new=tuple(tuple(r) for r in old_to_new),
        new_to_old=tuple(tuple(r) for r in new_to_old),
        dropped=dropped,
    )
    return adapted, change
