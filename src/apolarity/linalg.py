"""Exact incremental row reduction over monomial-indexed sparse vectors.

Vectors are dicts mapping exponent tuples to field scalars.  Pivots are the
graded-lex greatest monomials, so a stored row's total degree can be read
off its pivot; that property drives every degree-filtration computation.

Rows inserted with a label also remember how they combine the labelled
generators, which yields kernel vectors (a dependent insert) and preimages
under the generator map (`solve`).  Tagged rows are never back-substituted
into, so a reduction names the tagged rows it combines.  One kind per span.
"""

from __future__ import annotations

from .poly import grlex_key


def _subtract(target: dict, factor, source: dict):
    """target -= factor * source, in place, dropping zero entries."""
    for k, c in source.items():
        new = target.get(k, 0) - factor * c
        if new == 0:
            target.pop(k, None)
        else:
            target[k] = new


class MonomialSpan:
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
