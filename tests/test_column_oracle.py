"""The enumerator against an independent one at the paper's lengths.

`column_oracle` shares no code with `apolarity.enumeration` or
`apolarity.macaulay`: it has its own Macaulay growth (a cached greedy
binomial expansion, checked against the lex-segment oracle of
`test_macaulay`), its own Hilbert functions, and a different search.  It
fills the Delta table column by column: column i fixes Delta_a(i) for
every row a <= d - 2i, symmetry gives the other cells of that column and
the whole of column d - i, and every partial sum Delta_{<=a} is checked
as a prefix while its columns are filled.  A cell is also bounded by the
room left in the column that its mirror lies in.  The five (n, length)
pairs below take about 2 s together.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import pytest


@lru_cache(maxsize=None)
def growth(value: int, i: int) -> int:
    """The largest degree-(i + 1) value after `value` in degree i >= 1."""
    total = 0
    while value > 0:
        top = i
        while comb(top + 1, i) <= value:
            top += 1
        value -= comb(top, i)
        total += comb(top + 1, i + 1)
        i -= 1
    return total


def step_ok(prev: int, value: int, p: int) -> bool:
    """Macaulay's condition on the value at position p >= 1 after `prev`."""
    if value <= 0:
        return value == 0
    return prev > 0 and (p == 1 or value <= growth(prev, p - 1))


def hilbert_functions(length: int, n: int, d: int):
    """Strictly positive O-sequences (1, h_1 <= n, ..., h_{d-1}, 1) of sum `length`."""
    out = []

    def extend(h: list, left: int):
        p = len(h)
        if p == d:
            if left == 1:
                out.append(tuple(h) + (1,))
            return
        cap = n if p == 1 else growth(h[-1], p - 1)
        for value in range(1, min(cap, left - (d - p)) + 1):
            h.append(value)
            extend(h, left - value)
            h.pop()

    extend([1], length - 1)
    return out


def tables(h: tuple) -> list:
    """Every symmetric decomposition (Delta_0, ..., Delta_{d-2}) of H."""
    d = len(h) - 1
    rows = d - 1
    half = d // 2
    # cells[a][i] for i <= (d - a) / 2 determines row a; sums[a][i] is
    # Delta_{<=a}(i) for the columns filled so far
    cells = [[0] * (d + 1) for _ in range(rows)]
    sums = [[0] * (d + 1) for _ in range(rows)]
    load = [0] * (d + 1)  # load[q]: the mirrors placed so far in column q
    found = []

    def cell(a: int, p: int) -> int:
        width = d - a
        return cells[a][min(p, width - p)] if p <= width else 0

    def finish():
        # columns past the middle are set; check their prefix steps
        for a in range(rows):
            total = sums[a][half]
            for p in range(half + 1, d + 1):
                value = total
                total = (sums[a - 1][p] if a else 0) + cell(a, p)
                sums[a][p] = total
                if not step_ok(value, total, p):
                    return
        found.append(tuple(tuple(cell(a, p) for p in range(d + 1)) for a in range(rows)))

    def column(i: int):
        if i:  # column q = d - i + 1 is complete with column i - 1
            q = d - i + 1
            for a in range(rows):
                sums[a][q] = (sums[a - 1][q] if a else 0) + cell(a, q)
                if q < d and not step_ok(sums[a][q], sums[a][q + 1], q + 1):
                    return
        # below[a]: the cells of column i that symmetry fixes, in rows past a
        below = [0] * rows
        for a in range(rows - 2, -1, -1):
            b = a + 1
            below[a] = below[b] + (cell(b, i) if 2 * i > d - b else 0)
        # row 0 is the only free cell of column d - i, so that column fixes it
        mirror = sum(cells[b][i - b] for b in range(1, min(i, rows - 1) + 1))
        first = 1 if i == 0 else h[d - i] - mirror if i < d - i else None
        fill(i, 0, 0, below, first)

    def fill(i: int, a: int, s: int, below: list, first):
        if a == rows:
            if s == h[i]:
                finish() if i == half else column(i + 1)
            return
        prev = sums[a][i - 1] if i else None
        if 2 * i <= d - a:
            high = h[i] - s - below[a]
            q = d - a - i  # the column that this cell's mirror lies in
            cap = h[q] - load[q] if q > i else high
            if a == 0 and first is not None:
                values = (first,) if 0 <= first <= min(high, cap) else ()
            elif a == min(rows - 1, d - 2 * i):  # the last free cell takes the rest
                values = (high,) if 0 <= high <= cap else ()
            else:
                values = range(min(high, cap) + 1)
            for v in values:
                total = s + v
                if i == 0:
                    if total != 1:
                        return
                elif not step_ok(prev, total, i):
                    break  # larger partial sums fail too
                cells[a][i] = v
                sums[a][i] = total
                if q > i:
                    load[q] += v
                fill(i, a + 1, total, below, first)
                if q > i:
                    load[q] -= v
            cells[a][i] = 0
        else:
            total = s + cell(a, i)
            if total <= h[i] and step_ok(prev, total, i):
                sums[a][i] = total
                fill(i, a + 1, total, below, first)

    column(0)
    return found


def column_oracle(length: int, n: int) -> set:
    """All admissible (H, rows) of the given length in n variables, d >= 3."""
    return {(h, rows)
            for d in range(3, length)
            for h in hilbert_functions(length, n, d)
            for rows in tables(h)}


def test_growth_matches_lex_segments():
    from test_macaulay import lex_growth_oracle

    for i in range(1, 6):
        for value in range(0, 25):
            assert growth(value, i) == lex_growth_oracle(value, i), (value, i)


@pytest.mark.parametrize("n,length", [(7, 14), (8, 14), (8, 15), (8, 16), (8, 17)])
def test_matches_admissible_decompositions(n, length):
    from apolarity.enumeration import admissible_decompositions

    candidates = admissible_decompositions(length, n)
    got = {(tuple(c.hilbert), c.decomposition.rows) for c in candidates}
    assert len(got) == len(candidates)
    assert got == column_oracle(length, n)
