"""Exact incremental row reduction over sparse int vectors on int columns.

A span is built over the field its caller names by its characteristic, 0
for the rationals and p for GF(p).  A vector is a dict mapping int columns
to ints, with no zero entry, already in that field: over the rationals the
vector itself, over GF(p) its residues in [0, p).  A caller holding field
scalars writes them as ints with `scalars.to_integers`, whose common
denominator moves no decision, remainder or normalised row.  A span copies
a vector it is given and never modifies it.  A row's pivot is its greatest
column.  Callers key the monomials of a table by ints that order as the
monomials do (`poly._Keys`), so a larger column is a grlex-greater monomial
and a stored row's total degree can be read off its pivot; that property
drives every degree-filtration computation.  The span itself reads no
monomial, and a column hashes and compares as an int.

The span is an echelon basis: an inserted row is fully reduced against the
older rows and normalised, and it never changes afterwards.  Reducing a
vector against it always picks the greatest pivot column still present,
so the remainder is the unique vector with no entry at any pivot that
differs from the input by an element of the span, whatever form the basis
rows have.  Every independence decision, remainder and label combination is
therefore the one a reduced basis would give.  `back_substitute` brings
the rows to the unique reduced form, for callers that read the rows.

Rows inserted with a label also remember how they combine the labelled
generators, which yields kernel vectors (a dependent `insert_relation`,
its relation left as ints) and preimages under the generator map
(`solve`, in the field's scalars); a relation's coefficients over the
independent labels are unique.  A tagged row's generator is the row as
appended, with leading coefficient 1, so a reduction names the tagged rows
it combines, also after `back_substitute`.  One kind per span.

Rows are held as Python ints and leave as field scalars only through
`rows` and `solve`; `int_row` hands a row on as ints, which a span over the
same field reads as that row.  Over GF(p) a row holds residues in [0, p)
with leading coefficient 1.  Over the rationals a stored row has a positive
leading coefficient, and no factor is common to all of its entries (and,
for a labelled row, of its combination).  Reducing an
entry a of the working vector by a row with leading coefficient b
multiplies the vector by b/g and subtracts a/g times the row, g = gcd(a, b)
(fraction-free elimination, Bareiss, Math. Comp. 22, 1968).  The scale s by
which the input has been multiplied is kept, and from time to time the
factor common to s and the vector is divided out of both.  The working
vector is thus at every step a positive multiple of the one a
division-based elimination holds: it has the same entries, so the same
pivot is reduced next and the same decision comes out, and dividing it by
s gives the same remainder.  The rows a caller reads are normalised to
leading coefficient 1, so after `back_substitute` they are the unique
reduced echelon rows.  A label combination is kept as integer coefficients
over the generators themselves, and a stored row is that combination of
them; dividing s back out gives a field vector, and a relation or a
`solve` result is unique, so it is the one a field elimination gives.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .scalars import from_integers


_CONTENT_BITS = 512  # see MonomialSpan._reduce


class MonomialSpan:
    """Row-echelon span over the field of characteristic p, maintained under
    row insertion; see the module docstring."""

    def __init__(self, p: int):
        self.pivots: list[int] = []  # each row's pivot column
        self.by_pivot: dict[int, int] = {}  # pivot column -> row index
        self._p = p  # the characteristic: 0 for the rationals, p for GF(p)
        self._rows: list[dict] = []  # int rows on int columns
        # int label combinations parallel to _rows: row = sum coeff * g_label
        self._combos: list[dict] = []
        self._view: list[dict] = []  # rows as field scalars, converted when read

    @property
    def dim(self) -> int:
        return len(self._rows)

    def int_row(self, index: int) -> dict:
        """Row `index` as ints, not to be modified: over the rationals a
        positive int multiple of the field row, over GF(p) its residues."""
        return self._rows[index]

    @property
    def rows(self) -> list:
        """The rows as dicts of field scalars, leading coefficient 1."""
        view = self._view
        while len(view) < self.dim:
            view.append(self._field_row(len(view)))
        return view

    def _field_row(self, index: int) -> dict:
        """Row `index` over the field, divided by its leading coefficient
        (1 over GF(p))."""
        row = self._rows[index]
        return self._scalars(row, row[self.pivots[index]])

    def _scalars(self, w: dict, den: int) -> dict:
        """The field dict w / den."""
        return dict(zip(w, from_integers(w.values(), den, self._p)))

    # -- the kernel ---------------------------------------------------------

    def _reduce(self, w: dict, combo: dict | None) -> int:
        """Fully reduce the int vector w in place; returns a positive int s
        such that the reduced w is s * (w as given) minus an integer
        combination of stored rows.  A given `combo` is scaled and reduced
        alongside w, so if w = sum combo[L] * g_L held on entry it holds on
        return.  The heap holds the negated pivot columns present in w, so
        it pops the greatest first.

        Over the rationals, once the multipliers since the last time reach
        _CONTENT_BITS bits, the factor common to s, w and combo is divided
        out.  A labelled reduction's combination otherwise grows with every
        step, although the relation it ends in is far smaller: for a dense
        binary form of degree 24 the combinations reached about 7,000 bits
        and the relations about 270.  Dividing at every step costs more in
        gcds than it saves; 512 and 1024 bits were the fastest of 32..4096.
        """
        row_of = self.by_pivot
        heap = [-m for m in w if m in row_of]
        heapify(heap)
        p = self._p
        scale = 1
        grown = 0  # bits of the multipliers since the content was last taken out
        while heap:
            lead = -heappop(heap)
            a = w.get(lead)
            if a is None:  # cancelled since it was pushed, or pushed twice
                continue
            index = row_of[lead]
            row = self._rows[index]
            if p:
                for m, c in row.items():
                    v = w.get(m)
                    if v is None:
                        w[m] = -a * c % p
                        if m in row_of:
                            heappush(heap, -m)
                    elif v := (v - a * c) % p:
                        w[m] = v
                    else:
                        del w[m]
                if combo is not None:
                    for k, c in self._combos[index].items():
                        if v := (combo.get(k, 0) - a * c) % p:
                            combo[k] = v
                        else:
                            combo.pop(k, None)
                continue
            b = row[lead]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                scale *= b
                grown += b.bit_length()
                for m, v in w.items():
                    w[m] = v * b
                if combo is not None:
                    for k, v in combo.items():
                        combo[k] = v * b
            for m, c in row.items():
                v = w.get(m)
                if v is None:
                    w[m] = -a * c
                    if m in row_of:
                        heappush(heap, -m)
                elif v := v - a * c:
                    w[m] = v
                else:
                    del w[m]
            if combo is not None:
                for k, c in self._combos[index].items():
                    if v := combo.get(k, 0) - a * c:
                        combo[k] = v
                    else:
                        combo.pop(k, None)
            if grown >= _CONTENT_BITS:
                grown = 0
                g = gcd(scale, *w.values(), *(combo.values() if combo is not None else ()))
                if g != 1:
                    scale //= g
                    for m, v in w.items():
                        w[m] = v // g
                    if combo is not None:
                        for k, v in combo.items():
                            combo[k] = v // g
        return scale

    def _append(self, w: dict, combo: dict | None) -> int:
        """Store a nonzero reduced int vector, normalised, as a new row.

        Over GF(p) the row and its combination are divided by the leading
        entry; over the rationals by the common factor of both, signed so
        that the leading coefficient is positive.
        """
        lead = max(w)
        p = self._p
        if p:
            inv = pow(w[lead], -1, p)
            w = {m: c * inv % p for m, c in w.items()}
            if combo is not None:
                combo = {k: c * inv % p for k, c in combo.items()}
        else:
            g = gcd(*w.values(), *(combo.values() if combo is not None else ()))
            if w[lead] < 0:
                g = -g
            if g != 1:
                w = {m: c // g for m, c in w.items()}
                if combo is not None:
                    combo = {k: c // g for k, c in combo.items()}
        index = len(self._rows)
        self.by_pivot[lead] = index
        self.pivots.append(lead)
        self._rows.append(w)
        if combo is not None:
            self._combos.append(combo)
        return index

    def back_substitute(self):
        """Bring the span to reduced echelon form in place, with each row's
        label combination.

        Rows go lowest pivot first; each reduces its entries below its pivot
        by the already reduced rows, which subtracts only the rows whose
        pivots are among its entries, so the pass costs in proportion to the
        entries it clears, not to the square of the dimension.  A changed
        row replaces the old dict, which is never modified.
        """
        row_of = self.by_pivot
        for pivot in sorted(row_of):
            index = row_of[pivot]
            row = self._rows[index]
            rest = {m: c for m, c in row.items() if m != pivot}
            if not any(m in row_of for m in rest):
                continue
            combo = dict(self._combos[index]) if self._combos else None
            rest[pivot] = row[pivot] * self._reduce(rest, combo)
            if not self._p:
                g = gcd(*rest.values(), *(combo.values() if combo is not None else ()))
                rest = {m: c // g for m, c in rest.items()}
                if combo is not None:
                    combo = {k: c // g for k, c in combo.items()}
            self._rows[index] = rest
            if combo is not None:
                self._combos[index] = combo
            if index < len(self._view):
                self._view[index] = self._field_row(index)

    # -- public operations -------------------------------------------------

    def labels(self, vec: dict) -> set:
        """The labels that a full reduction of vec combines with a nonzero
        coefficient."""
        combo: dict = {}
        self._reduce(dict(vec), combo)
        return set(combo)

    def insert(self, vec: dict):
        """Insert vec; returns the new row index, or None if dependent."""
        w = dict(vec)
        self._reduce(w, None)
        return self._append(w, None) if w else None

    def insert_relation(self, vec: dict, label):
        """Insert generator `vec` named `label`.

        Returns (index, None) when independent, or (None, (w, den)) where
        w / den maps labels to the coefficients, in the span's field, of a
        vanishing combination that includes the new label with the field's
        one; w is an int dict without zeros (residues over GF(p), den = 1).
        """
        w = dict(vec)
        combo = {label: 1}
        self._reduce(w, combo)
        if not w:
            # sum combo[L] * g_L = 0; over GF(p) the new label's entry is 1
            return None, (combo, combo[label])
        return self._append(w, combo), None

    def insert_tagged(self, vec: dict, tag):
        """Insert vec labelled by tag, tags distinct; index or None.

        The tag's generator is the row as appended, with leading
        coefficient 1, so the stored int row is its leading entry times it.
        """
        w = dict(vec)
        self._reduce(w, None)
        if not w:
            return None
        index = self._append(w, None)
        self._combos.append({tag: self._rows[index][self.pivots[index]]})
        return index

    def solve(self, vec: dict):
        """Express vec in the span; returns the label combination, in the
        field's scalars, or None."""
        w = dict(vec)
        combo: dict = {}
        den = self._reduce(w, combo)
        if w:
            return None
        # vec = -sum combo[L] * g_L / den; den is 1 over GF(p)
        return self._scalars({k: -c for k, c in combo.items()}, den)

    def contains(self, vec: dict) -> bool:
        w = dict(vec)
        self._reduce(w, None)
        return not w
