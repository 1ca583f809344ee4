"""Exact incremental row reduction over monomial-indexed sparse vectors.

Vectors are dicts mapping exponent tuples to field scalars.  Pivots are the
graded-lex greatest monomials, so a stored row's total degree can be read
off its pivot; that property drives every degree-filtration computation.

The span is an echelon basis: an inserted row is fully reduced against the
older rows and normalised, and it never changes afterwards.  Reducing a
vector against it always picks the greatest pivot monomial still present,
so the remainder is the unique vector with no entry at any pivot that
differs from the input by an element of the span, whatever form the basis
rows have.  Every independence decision, remainder and label combination is
therefore the one a reduced basis would give.  `back_substitute` brings
the rows to the unique reduced form, for callers that read the rows.

Rows inserted with a label also remember how they combine the labelled
generators, which yields kernel vectors (a dependent insert) and preimages
under the generator map (`solve`); a relation's coefficients over the
independent labels are unique.  A tagged row is labelled {tag: 1}, so a
reduction names the tagged rows it combines.  One kind per span.
"""

from __future__ import annotations

from .poly import grlex_key
from .scalars import one_like


def _subtract(target: dict, factor, source: dict):
    """target -= factor * source, in place, dropping zero entries."""
    for k, c in source.items():
        new = target.get(k, 0) - factor * c
        if new == 0:
            target.pop(k, None)
        else:
            target[k] = new


class MonomialSpan:
    """Row-echelon span maintained under row insertion; see the module docstring."""

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: list[tuple] = []
        self.by_pivot: dict[tuple, int] = {}
        # label combinations parallel to rows: row = sum coeff * g_label
        self._combos: list[dict] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, used: dict | None = None) -> dict:
        """Fully reduce vec against the span; returns a fresh dict.

        When `used` is given, the label combination of the subtracted rows
        is summed into it, so that vec = remainder - sum(used[L] * g_L).
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
            index = self.by_pivot[lead]
            _subtract(out, factor, self.rows[index])
            if used is not None:
                _subtract(used, factor, self._combos[index])

    def _append(self, rem: dict, combo: dict | None) -> int:
        """Normalise a nonzero remainder and store it as a new row."""
        lead = max(rem, key=grlex_key)
        inv = rem[lead]
        self.by_pivot[lead] = len(self.rows)
        self.rows.append({m: c / inv for m, c in rem.items()})
        self.pivots.append(lead)
        if combo is not None:
            self._combos.append({k: c / inv for k, c in combo.items()})
        return len(self.rows) - 1

    def back_substitute(self):
        """Bring an unlabelled span to reduced echelon form in place.

        Rows go lowest pivot first; each subtracts only the already reduced
        rows whose pivots are among its own entries, so the pass costs in
        proportion to the entries it clears, not to the square of the dimension.
        """
        for index in sorted(range(self.dim), key=lambda i: grlex_key(self.pivots[i])):
            row = self.rows[index]
            for m in [m for m in row if m in self.by_pivot and m != self.pivots[index]]:
                _subtract(row, row[m], self.rows[self.by_pivot[m]])

    def insert(self, vec: dict):
        """Insert vec; returns the new row index, or None if dependent."""
        rem = self.reduce(vec)
        return self._append(rem, None) if rem else None

    def insert_labelled(self, vec: dict, label):
        """Insert generator `vec` named `label`.

        Returns (index, None) when independent, or (None, relation) where
        relation maps labels to the coefficients of a vanishing combination
        that includes the new label with the field's one.
        """
        used: dict = {}
        rem = self.reduce(vec, used)
        # the one of vec's field; int 1 for a zero vec
        used[label] = used.get(label, 0) + one_like(next(iter(vec.values()), 1))
        used = {k: c for k, c in used.items() if c != 0}
        if not rem:
            return None, used
        return self._append(rem, used), None

    def insert_tagged(self, vec: dict, tag):
        """Insert vec labelled {tag: 1}, tags distinct; index or None."""
        rem = self.reduce(vec)
        return self._append(rem, {tag: 1}) if rem else None

    def solve(self, vec: dict):
        """Express vec in the span; returns the label combination or None."""
        used: dict = {}
        if self.reduce(vec, used):
            return None
        return {k: -c for k, c in used.items()}

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)
