"""Exact incremental row reduction over monomial-indexed sparse vectors.

Vectors are dicts mapping exponent tuples to field scalars.  Pivots are the
graded-lex greatest monomials, so a stored row's total degree can be read
off its pivot; that property drives every degree-filtration computation.

The kernel itself sees no monomial: its rows are keyed by int columns,
where a larger column is a grlex-greater monomial, so the greatest entry
of a row is its greatest key and a column hashes and compares as an int.
A `MonomialSpan` maps at its boundary: a monomial entering it becomes its
grlex rank, the number of monomials in as many variables below it (exact
for any exponents, memoised per span), and rows, pivots and remainders
leave keyed by monomials again.  `_IntSpan` takes int columns as they
are; its caller ranks a table's monomials once and maps pivots and rows
back where it reads them.

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
independent labels are unique.  A tagged row's generator is the row as
appended, with leading coefficient 1, so a reduction names the tagged rows
it combines, also after `back_substitute`.  One kind per span.

Rows are held as Python ints; field scalars exist only at the boundary,
crossed by the rule of `scalars`.  A span is built over the field its
caller names by its characteristic, 0 for the rationals and p for GF(p),
and reads every vector in that field, so a vector of ints goes in as it
is.  Ints enter without that rule through `_IntSpan`, the span `apolar`
builds: its vectors are int contraction tables on ranked columns and
`int_row`s, already in its field, and each is copied in with no
conversion; a relation leaves as ints through `insert_relation`.  Over
GF(p) a row holds residues in [0, p) with leading coefficient 1, and an
int or a `Fraction` given to the span is coerced as `PrimeFieldElement`
coerces it.  Over the rationals a vector enters as integers over a common
denominator; a stored row has a positive leading
coefficient, and no factor is common to all of its entries (and, for a
labelled row, of its combination).  Reducing an
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
them; dividing s and the input's denominator back out gives a field
vector, and a relation or a `solve` result is unique, so it is the one a
field elimination gives.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import comb, gcd

from .scalars import from_integers, to_integers


_CONTENT_BITS = 512  # see MonomialSpan._reduce


def grlex_rank(m: tuple) -> int:
    """The column of monomial m: the number of monomials in as many
    variables that are grlex-smaller, those of lower degree and then those
    of its degree that are lexicographically smaller, counted a position at
    a time.  It is m's index in `poly.monomials_up_to`, exact for any
    exponents."""
    n, left = len(m), sum(m)
    rank = comb(n + left - 1, n) if left else 0
    for i, e in enumerate(m, 1):
        # an exponent below e at variable i leaves degree left - e + 1 ..
        # left to the n - i variables after it (none after the last, whose
        # exponent is left)
        after = n - i
        rank += comb(left + after, after) - comb(left - e + after, after)
        left -= e
    return rank


class MonomialSpan:
    """Row-echelon span over the field of characteristic p, maintained under
    row insertion; see the module docstring."""

    def __init__(self, p: int):
        self.pivots: list = []  # each row's pivot monomial
        self.by_pivot: dict = {}  # pivot monomial -> row index
        self._p = p  # the characteristic: 0 for the rationals, p for GF(p)
        self._rows: list[dict] = []  # int rows on int columns
        self._leads: list[int] = []  # each row's pivot column
        self._row_of: dict[int, int] = {}  # pivot column -> row index
        # int label combinations parallel to _rows: row = sum coeff * g_label
        self._combos: list[dict] = []
        self._view: list[dict] = []  # rows as field scalars, converted when read
        self._columns: dict[tuple, int] = {}  # monomial -> column, its grlex rank
        self._monomials: dict[int, tuple] = {}  # column -> monomial

    @property
    def dim(self) -> int:
        return len(self._rows)

    def int_row(self, index: int) -> dict:
        """Row `index` as ints, keyed like the span's vectors and not to be
        modified: over the rationals a positive int multiple of the field
        row, over GF(p) its residues.  A span over the same field reads it
        as that row, so it is inserted there as it is, with no field scalars
        in between."""
        return self._keyed(self._rows[index])

    @property
    def rows(self) -> list:
        """The rows as dicts of field scalars, leading coefficient 1."""
        view = self._view
        while len(view) < self.dim:
            view.append(self._field_row(len(view)))
        return view

    # -- the boundary: monomials and field scalars in and out ------------

    def _integral(self, vec: dict):
        """(w, den): vec = w / den with w an int dict on columns without
        zeros; den = 1 over GF(p), where w holds residues."""
        ints, den = to_integers(vec.values(), self._p)
        return {self._column(m): c for m, c in zip(vec, ints) if c}, den

    def _column(self, m: tuple) -> int:
        """The column of monomial m: its grlex rank, computed once."""
        column = self._columns.get(m)
        if column is None:
            column = self._columns[m] = grlex_rank(m)
            self._monomials[column] = m
        return column

    def _monomial(self, column: int) -> tuple:
        return self._monomials[column]

    def _keyed(self, w: dict) -> dict:
        """The int dict w on columns, keyed by monomials."""
        monomials = self._monomials
        return {monomials[column]: c for column, c in w.items()}

    def _field_row(self, index: int) -> dict:
        """Row `index` over the field, divided by its leading coefficient."""
        row = self._rows[index]
        return self._scalars(self._keyed(row), 1 if self._p else row[self._leads[index]])

    def _scalars(self, w: dict, den: int) -> dict:
        """The field dict w / den."""
        return dict(zip(w, from_integers(w.values(), den, self._p)))

    # -- the kernel: int rows on int columns only ------------------------

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
        row_of = self._row_of
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
        self._row_of[lead] = index
        self._leads.append(lead)
        self._rows.append(w)
        pivot = self._monomial(lead)
        self.by_pivot[pivot] = index
        self.pivots.append(pivot)
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
        row_of = self._row_of
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

    def reduce(self, vec: dict) -> dict:
        """Fully reduce vec against the span; returns a fresh dict."""
        w, den = self._integral(vec)
        den *= self._reduce(w, None)
        return self._scalars(self._keyed(w), den)

    def labels(self, vec: dict) -> set:
        """The labels that a full reduction of vec combines with a nonzero
        coefficient."""
        w, _ = self._integral(vec)
        combo: dict = {}
        self._reduce(w, combo)
        return set(combo)

    def insert(self, vec: dict):
        """Insert vec; returns the new row index, or None if dependent."""
        w, _ = self._integral(vec)
        self._reduce(w, None)
        return self._append(w, None) if w else None

    def insert_labelled(self, vec: dict, label):
        """Insert generator `vec` named `label`.

        Returns (index, None) when independent, or (None, relation) where
        relation maps labels to the coefficients of a vanishing combination
        that includes the new label with the field's one.
        """
        index, relation = self.insert_relation(vec, label)
        return (index, None) if relation is None else (None, self._scalars(*relation))

    def insert_relation(self, vec: dict, label):
        """`insert_labelled` with the relation left as ints: (index, None),
        or (None, (w, den)) where the relation is w / den in the span's
        field, w an int dict without zeros (residues over GF(p), den = 1)."""
        w, den = self._integral(vec)
        combo = {label: den}  # w = den * vec
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
        w, _ = self._integral(vec)
        self._reduce(w, None)
        if not w:
            return None
        index = self._append(w, None)
        self._combos.append({tag: self._rows[index][self._leads[index]]})
        return index

    def solve(self, vec: dict):
        """Express vec in the span; returns the label combination or None."""
        w, den = self._integral(vec)
        combo: dict = {}
        den *= self._reduce(w, combo)
        if w:
            return None
        # vec = -sum combo[L] * g_L / den; den is 1 over GF(p)
        return self._scalars({k: -c for k, c in combo.items()}, den)

    def contains(self, vec: dict) -> bool:
        w, _ = self._integral(vec)
        self._reduce(w, None)
        return not w


class _IntSpan(MonomialSpan):
    """A span that reads every vector as an int dict on int columns without
    zero entries, already in its field: over the rationals the vector
    itself, over GF(p) its residues, as `int_row` and the ranked int
    contraction tables of `apolar` give them.  `columns[c]` is the monomial
    that its caller ranked as column c; the span reads none of them.  The
    way in is a copy, as `_reduce` works in place; pivots, rows and
    remainders leave keyed by column, relations and `solve` results by
    label, in the field's scalars."""

    def __init__(self, p: int, columns):
        super().__init__(p)
        self.columns = columns

    def _integral(self, vec: dict):
        return dict(vec), 1

    def _monomial(self, column: int) -> int:
        return column

    def _keyed(self, w: dict) -> dict:
        return w
