"""Exact incremental row reduction over monomial-indexed sparse vectors.

Vectors are dicts mapping exponent tuples to field scalars.  Pivots are the
graded-lex greatest monomials, so a stored row's total degree can be read
off its pivot; that property drives every degree-filtration computation.
"""

from __future__ import annotations

from .poly import grlex_key


class MonomialSpan:
    """Reduced row-echelon span maintained under row insertion."""

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: list[tuple] = []
        self.by_pivot: dict[tuple, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Fully reduce vec against the span; returns a fresh dict."""
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
        # unreachable

    def insert(self, vec: dict):
        """Insert vec; returns the new row index, or None if dependent."""
        rem = self.reduce(vec)
        if not rem:
            return None
        lead = max(rem, key=grlex_key)
        inv = rem[lead]
        row = {m: c / inv for m, c in rem.items()}
        # keep existing rows fully reduced against the new pivot
        for other in self.rows:
            if lead in other:
                factor = other[lead]
                for m, c in row.items():
                    new = other.get(m, 0) - factor * c
                    if new == 0:
                        other.pop(m, None)
                    else:
                        other[m] = new
        index = len(self.rows)
        self.rows.append(row)
        self.pivots.append(lead)
        self.by_pivot[lead] = index
        return index

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def snapshot(self) -> list[dict]:
        return [dict(r) for r in self.rows]


class WitnessSpan:
    """Row-echelon span that remembers how each row combines the generators.

    Inserting labelled generators g_L keeps, for every stored row r,
    a combination dict with r = sum combo[L] * g_L.  Reduction reports the
    combination expressing vec - remainder, which yields kernel vectors
    (remainder 0 at insert) and preimages under the generator map.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self.combos: list[dict] = []
        self.pivots: list[tuple] = []
        self.by_pivot: dict[tuple, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, combo: dict | None = None):
        out = dict(vec)
        used: dict = dict(combo) if combo else {}
        while True:
            lead = None
            for m in out:
                if m in self.by_pivot and (lead is None or grlex_key(m) > grlex_key(lead)):
                    lead = m
            if lead is None:
                return out, used
            i = self.by_pivot[lead]
            factor = out[lead]
            for m, c in self.rows[i].items():
                new = out.get(m, 0) - factor * c
                if new == 0:
                    out.pop(m, None)
                else:
                    out[m] = new
            for label, c in self.combos[i].items():
                new = used.get(label, 0) - factor * c
                if new == 0:
                    used.pop(label, None)
                else:
                    used[label] = new
        # unreachable

    def insert(self, vec: dict, label):
        """Insert generator `vec` named `label`.

        Returns (index, None) when independent, or (None, relation) where
        relation maps labels to coefficients of a vanishing combination
        including the new label with coefficient 1.

        reduce maintains vec = rem - sum(used[L] * g_L), so a zero remainder
        gives the relation g_label + sum(used[L] * g_L) = 0.
        """
        rem, used = self.reduce(vec)
        if not rem:
            relation = dict(used)
            relation[label] = relation.get(label, 0) + 1
            return None, {k: c for k, c in relation.items() if c != 0}
        lead = max(rem, key=grlex_key)
        inv = rem[lead]
        row = {m: c / inv for m, c in rem.items()}
        combo = {k: c / inv for k, c in used.items()}
        combo[label] = combo.get(label, 0) + 1 / inv
        combo = {k: c for k, c in combo.items() if c != 0}
        for i, other in enumerate(self.rows):
            if lead in other:
                factor = other[lead]
                for m, c in row.items():
                    new = other.get(m, 0) - factor * c
                    if new == 0:
                        other.pop(m, None)
                    else:
                        other[m] = new
                for k, c in combo.items():
                    new = self.combos[i].get(k, 0) - factor * c
                    if new == 0:
                        self.combos[i].pop(k, None)
                    else:
                        self.combos[i][k] = new
        index = len(self.rows)
        self.rows.append(row)
        self.combos.append(combo)
        self.pivots.append(lead)
        self.by_pivot[lead] = index
        return index, None

    def solve(self, vec: dict):
        """Express vec in the span; returns the label combination or None."""
        rem, used = self.reduce(vec)
        if rem:
            return None
        return {k: -c for k, c in used.items()}
