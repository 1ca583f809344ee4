"""Spaces of partials, annihilator ideals, apolarity checks, local schemes.

Diff(f) is the span of the partials y^alpha(f) of f, the images of its
contraction table.  It carries two filtrations:

* degree: Diff(f)_i = partials of degree <= i, read off the row-echelon
  basis because pivots are grlex-greatest monomials;
* order: O_j = span of contractions of f by dual monomials of degree >= j.

Both are read off one echelon basis, the only elimination of the table:
every image is inserted, from level j = deg f down to 0, in monomial
coordinates, tagged with its dual monomial.  The rows tagged >= j, as
appended, span O_j, so their (level, pivot degree) pairs, `bidegrees`,
count M(i, j) = dim(Diff(f)_i  ∩ O_j) as the pairs with level >= j and
degree <= i, and a partial's order is the lowest tag among the appended
rows it combines: coordinates in an echelon basis are unique.  The first
read of `rows` or `orders` back-substitutes the basis in place; each
reduced row keeps its combination of the appended rows, whose tags give
its order.

Every span here is a `linalg.MonomialSpan` that eliminates one int
contraction table: the table's monomials are ranked once, grlex ascending
(`_ranked`), the span works on those int columns alone, and its caller
keeps the list of them and maps pivots and rows back to monomials where it
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .linalg import MonomialSpan
from .poly import (
    DUAL,
    PRIMAL,
    ChangeOfBasis,
    Polynomial,
    _apply,
    _contractions,
    contract,  # noqa: F401  perfbench/test_perfbench.py checks that its tracer rebinds apolar.contract
    dehomogenize,
    grlex_key,
    homogenize,
    monomials_up_to,
    poly_str,
)
from .scalars import characteristic, from_integers, to_integers


class FilteredSpace:
    """Diff(f) as one level-tagged echelon basis, with its degree and order
    filtrations; the basis is back-substituted in place when `rows` or
    `orders` is first read."""

    def __init__(self, f: Polynomial):
        if f.side != PRIMAL:
            raise ValueError("diff_space expects a primal polynomial")
        if f.is_zero():
            raise ValueError("diff_space of the zero polynomial is undefined")
        self.polynomial = f
        self.nvars = f.nvars
        self.socle_degree = f.degree()
        self._p = characteristic(f.terms.values())
        # Diff(f) is spanned by the images y^alpha(f): contraction is a module
        # action, y^beta(y^alpha f) = y^(alpha + beta) f, so no partial of a
        # partial is missing from the table.  They go in grlex-descending,
        # level |alpha| descending first, so the rows tagged >= j span O_j
        columns, self._rank, table = _ranked(_contractions(_int_terms(f.terms, self._p)[0]))
        self._columns = columns
        span = self._span = MonomialSpan(self._p)
        self._bidegrees = []
        # (level, int row) of the appended rows of degree <= 1; back-
        # substitution replaces row dicts and never modifies them
        self._linear = []
        for alpha in sorted(table, key=grlex_key, reverse=True):
            if (index := span.insert_tagged(table[alpha], alpha)) is not None:
                degree = sum(columns[span.pivots[index]])
                self._bidegrees.append((sum(alpha), degree))
                if degree <= 1:
                    self._linear.append((sum(alpha), span.int_row(index)))
        self._pivots = sorted(span.pivots, reverse=True)  # columns, grlex descending
        self.degrees = tuple(sum(columns[pivot]) for pivot in self._pivots)
        self.dim = len(self._pivots)
        self._reduced = False
        self._orders = None

    def _reduced_span(self) -> MonomialSpan:
        """The span, back-substituted in place on first call."""
        if not self._reduced:
            self._span.back_substitute()
            self._reduced = True
        return self._span

    # -- public views ----------------------------------------------------

    @property
    def rows(self) -> tuple:
        """Basis partials as polynomials, pivot-descending (RREF order)."""
        reduced = self._reduced_span()
        rows, by_pivot, columns = reduced.rows, reduced.by_pivot, self._columns
        return tuple(Polynomial(self.nvars, {columns[c]: v for c, v in rows[by_pivot[p]].items()},
                                PRIMAL) for p in self._pivots)

    def contains(self, g: Polynomial) -> bool:
        if g.nvars != self.nvars or g.side != PRIMAL:
            return False
        # a monomial that no image has is on no row
        w = _on_columns(_int_terms(g.terms, self._p)[0], self._rank)
        return w is not None and self._span.contains(w)

    def hilbert_values(self) -> tuple:
        values = [0] * (self.socle_degree + 1)
        for d in self.degrees:
            values[d] += 1
        return tuple(values)

    # -- order filtration ------------------------------------------------

    def bidegrees(self) -> list:
        """(level j, pivot degree i) of each tagged row: the rows of level
        >= j and degree <= i span Diff(f)_i ∩ O_j."""
        return self._bidegrees

    def m_table(self, i: int, j: int) -> int:
        """dim (Diff(f)_i  ∩ O_j) for the degree/order double filtration."""
        return sum(1 for level, degree in self.bidegrees() if level >= j and degree <= i)

    def linear_partials(self, j: int) -> list:
        """Variable-coefficient rows spanning degree-1 partials of order >= j.

        The reduced echelon basis of O_j ∩ Diff(f)_1 without the constant
        row, which full reduction keeps out of the degree-1 rows.
        """
        columns = self._columns
        span = MonomialSpan(self._p)
        for level, row in self._linear:
            if level >= j:
                span.insert(row)
        span.back_substitute()
        out = []
        for row, pivot in zip(span.rows, span.pivots):
            if sum(columns[pivot]) == 1:
                vec = [row[pivot] - row[pivot]] * self.nvars  # the field's zero
                for m, c in row.items():
                    vec[columns[m].index(1)] = c
                out.append(vec)
        return out

    @property
    def orders(self) -> tuple:
        """Order of each basis row: the largest j with the row inside O_j,
        which is the lowest tag among the tagged rows that it combines."""
        if self._orders is None:
            span = self._reduced_span()
            orders = []
            for pivot in self._pivots:
                # the tags name the rows as appended, not the reduced rows,
                # whose own tags would give wrong orders
                tags = span.labels(span.int_row(span.by_pivot[pivot]))
                orders.append(min(sum(alpha) for alpha in tags))
            self._orders = tuple(orders)
        return self._orders


def diff_space(f: Polynomial) -> FilteredSpace:
    """The space of all partials of f, with its filtrations."""
    return FilteredSpace(f)


def apolar_length(f: Polynomial) -> int:
    """dim_K Diff(f); 0 for the zero polynomial.  The rank of f's table:
    its images go into one span untagged, in any order."""
    if f.is_zero():
        return 0
    if f.side != PRIMAL:
        raise ValueError("apolar_length expects a primal polynomial")
    p = characteristic(f.terms.values())
    _, _, table = _ranked(_contractions(_int_terms(f.terms, p)[0]))
    span = MonomialSpan(p)
    for image in table.values():
        span.insert(image)
    return span.dim


def annihilator_generators(f: Polynomial, max_degree: int) -> list:
    """Basis of the dual polynomials of degree <= max_degree that kill f.

    Returns the kernel of the contraction map from the span of dual
    monomials of degree <= max_degree to Diff(f), row-reduced: each basis
    element has a distinct leading dual monomial with coefficient 1.
    """
    return _generators(f, _annihilator(f, max_degree)[0])


def _annihilator(f: Polynomial, max_degree: int) -> tuple:
    """(kernel, span, columns): the kernel of `annihilator_generators(f,
    max_degree)` as int relations (w, den), each generator being w / den in
    f's field; the labelled span of the images y^alpha(f) with |alpha| <=
    max_degree; and the monomials its columns stand for.  From max_degree =
    deg f on the span is Diff(f), and its pivots are the columns of Diff(f)'s
    leading monomials, unique whatever the order the images went in."""
    if f.side != PRIMAL:
        raise ValueError("annihilator_generators expects a primal polynomial")
    if f.is_zero():
        raise ValueError("annihilator of the zero polynomial is the whole ring")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    p = characteristic(f.terms.values())
    columns, _, table = _ranked(_contractions(_int_terms(f.terms, p)[0], max_degree))
    span = MonomialSpan(p)
    kernel = []
    for alpha in monomials_up_to(f.nvars, max_degree):
        image = table.get(alpha)
        if image is None:
            kernel.append(({alpha: 1}, 1))
            continue
        _, relation = span.insert_relation(image, alpha)
        if relation is not None:
            kernel.append(relation)
    return kernel, span, columns


def _kernel_and_length(f: Polynomial, max_degree: int) -> tuple:
    """(kernel, length): the kernel of `_annihilator(f, max_degree)` and dim
    Diff(f), from one elimination up to max(max_degree, deg f).  The images
    go in grlex ascending and the span only grows, so the relations whose
    labels have degree <= max_degree are those found by then, whatever is
    inserted after them."""
    # below 1, `_annihilator` rejects max_degree after checking f
    top = max(max_degree, f.degree()) if max_degree >= 1 else max_degree
    kernel, span, _ = _annihilator(f, top)
    return [(w, den) for w, den in kernel if max(map(sum, w)) <= max_degree], span.dim


def _generators(f: Polynomial, kernel) -> list:
    """The int relations of `_annihilator(f, ...)` as dual polynomials over
    f's field, built without re-validating the span's terms."""
    p = characteristic(f.terms.values())
    return [Polynomial._trusted(f.nvars, dict(zip(w, from_integers(w.values(), den, p))), DUAL)
            for w, den in kernel]


def annihilator_stabilized(f: Polynomial, max_degree: int, generators=None,
                           length: int | None = None) -> bool:
    """Whether the kernel up to max_degree already cuts out Diff(f).

    True when the count of dual monomials of degree <= max_degree minus the
    kernel dimension equals dim Diff(f) (`length`, if given); beyond that
    degree every dual monomial contracts f to 0 and the kernel gains nothing.
    Only the number of `generators` (the kernel's, if given) is read.  What
    is not given comes from one elimination of f's table.
    """
    if generators is None or length is None:
        kernel, dim = _kernel_and_length(f, max_degree)
        generators = kernel if generators is None else generators
        length = dim if length is None else length
    total = comb(f.nvars + max_degree, f.nvars)  # dual monomials of degree <= max_degree
    return total - len(generators) == length


def representative_operator(f: Polynomial, target: Polynomial, min_order: int = 0):
    """A dual polynomial psi with psi(f) = target and order >= min_order.

    Searches the span of contractions of f by dual monomials of degree
    >= min_order; returns None when the target is not reachable there.
    Both f and the target must be primal, in the same variables.
    """
    if f.side != PRIMAL:
        raise ValueError("representative_operator expects a primal polynomial")
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if target.side != PRIMAL or target.nvars != f.nvars:
        raise ValueError("target must be a primal polynomial in the variables of f")
    p = characteristic(f.terms.values(), target.terms.values())
    ints, den = _int_terms(f.terms, p)
    _, rank, table = _ranked(_contractions(ints))
    span = MonomialSpan(p)
    for alpha in sorted(table, key=grlex_key):
        if sum(alpha) >= min_order:
            span.insert_relation(table[alpha], alpha)
    ints, target_den = _int_terms(target.terms, p)
    # a target monomial that no image has is on no contraction of f
    w = _on_columns(ints, rank)
    combo = None if w is None else span.solve(w)
    if combo is None:
        return None
    # the table contracts den * f, and combo reaches target_den * target
    return Polynomial(f.nvars, {alpha: c * den / target_den for alpha, c in combo.items()}, DUAL)


def is_apolar(generators, F: Polynomial) -> bool:
    """Whether every generator, and so the ideal it generates, kills F.

    Generators must be homogeneous dual polynomials; every one is
    validated before any is applied, also when F is zero.  Contraction is a
    module action, (m*g)(F) = m(g(F)), so g(F) = 0 already means every
    multiple of g kills F; checking the generators suffices.  F is
    contracted once, into a table by dual monomial, and each generator's
    image is summed from it exactly, over the ints of `scalars`.
    """
    if F.side != PRIMAL:
        raise ValueError("is_apolar expects a primal form")
    generators = list(generators)
    for g in generators:
        if g.side != DUAL:
            raise ValueError("generators must be dual polynomials")
        if not g.is_homogeneous():
            raise ValueError(f"generator {poly_str(g)} is not homogeneous")
        if g.nvars != F.nvars:
            raise ValueError("variable count mismatch")
    # one field for F and the generators together; a zero test over the
    # ints is one over the field, whatever the denominators
    p = characteristic(F.terms.values(), *(g.terms.values() for g in generators))
    # a generator whose every term is above deg F kills F term by term; it
    # is neither converted nor applied
    degree = F.degree()
    live = (g for g in generators if g.order() <= degree)
    return _kills(F.terms, (_int_terms(g.terms, p)[0] for g in live), p)


def _kills(form: dict, operators, p: int) -> bool:
    """Whether every operator, an int dual term dict in the field of
    characteristic p (a multiple of the operator does as well), contracts
    the term dict `form` to 0, each summed exactly from one int table of
    the form.  An operator whose every term has degree above the form's
    contracts it to 0 term by term and is not applied."""
    table = _contractions(_int_terms(form, p)[0])
    degree = max(map(sum, form), default=-1)
    for terms in operators:
        if min(map(sum, terms), default=0) > degree:
            continue
        image = _apply(terms, table).values()
        if any(c % p for c in image) if p else any(image):
            return False
    return True


def _int_terms(terms: dict, p: int) -> tuple:
    """(w, den): the term dict is w / den in the field of characteristic p,
    w an int dict without zeros, which `_ranked` keys by column for a
    `MonomialSpan`.  The factor den moves no relation, tag set, kernel test or
    normalised row."""
    ints, den = to_integers(terms.values(), p)
    return {m: c for m, c in zip(terms, ints) if c}, den


def _ranked(table: dict) -> tuple:
    """(columns, rank, ranked): the monomials of the table's images sorted
    grlex ascending, each one's index there, and the table with every image
    keyed by those indices, its entries in the same order.  A larger column
    is a grlex-greater monomial, as a `MonomialSpan` needs."""
    support = set()
    for image in table.values():
        support.update(image)  # takes the hashes the image holds
    columns = sorted(support, key=grlex_key)
    rank = dict(zip(columns, range(len(columns))))
    return columns, rank, {alpha: {rank[m]: c for m, c in image.items()}
                           for alpha, image in table.items()}


def _on_columns(w: dict, rank: dict):
    """The dict w keyed by rank, or None if a key of w has no rank."""
    if not rank.keys() >= w.keys():
        return None
    return {rank[m]: c for m, c in w.items()}


@dataclass(frozen=True)
class ApolarScheme:
    """Local apolar scheme at a chosen linear support form."""

    defining: Polynomial
    length: int
    hilbert: tuple
    support: Polynomial
    annihilator: tuple
    apolarity_checked: bool
    stabilized: bool
    change: ChangeOfBasis = field(repr=False, default=None)

    def as_dict(self, base: int = 1) -> dict:
        return {
            "length": self.length,
            "hilbert": list(self.hilbert),
            "annihilator": [poly_str(g, base=base) for g in self.annihilator],
            "apolarity_checked": self.apolarity_checked,
            "stabilized": self.stabilized,
        }


def local_scheme(F: Polynomial, l: Polynomial) -> ApolarScheme:
    """Natural apolar scheme of the form F supported at [l].

    Dehomogenizes F at l, computes length, Hilbert function, and the
    annihilator up to degree deg F + 1, and verifies that the homogenized
    annihilator elements are apolar to the (coordinate-changed) form.
    """
    if F.is_zero():
        raise ValueError("F must be nonzero")
    f, change = dehomogenize(F, l)
    if f.is_zero():
        raise ValueError("dehomogenization vanished; F is not homogeneous of its degree")
    max_degree = int(F.degree()) + 1
    # apolarity is checked against F rewritten in the coordinates where l
    # is the first variable; the scheme data itself is coordinate-free.
    # That form is homogeneous of degree deg F, so homogenizing f gives it back.
    kernel, length, hilbert, checked = _scheme(f, max_degree, homogenize(f, int(F.degree())))
    return ApolarScheme(
        defining=f,
        length=length,
        hilbert=hilbert,
        support=l,
        annihilator=tuple(_generators(f, kernel)),
        apolarity_checked=checked,
        stabilized=annihilator_stabilized(f, max_degree, kernel, length),
        change=change,
    )


def _scheme(f: Polynomial, max_degree: int, form: Polynomial) -> tuple:
    """(kernel, length, H, apolar) of the scheme of f from `_annihilator(f,
    max_degree)`, max_degree >= deg f: the kernel as its int relations; the
    span's dimension and pivot degrees give the length and H; apolar: every
    kernel element, homogenized to its degree with a new first variable,
    kills the form.  An element above the form's degree kills it term by
    term, as in `_kills`, and is not homogenized."""
    kernel, span, columns = _annihilator(f, max_degree)
    hilbert = [0] * (f.degree() + 1)
    for pivot in span.pivots:
        hilbert[sum(columns[pivot])] += 1
    p = characteristic(form.terms.values(), f.terms.values())
    degree = max(map(sum, form.terms), default=-1)
    tops = ((max(map(sum, w)), w) for w, _ in kernel)  # w / den kills the form iff w does
    operators = ({(top - sum(e),) + e: c for e, c in w.items()}
                 for top, w in tops if top <= degree)
    return kernel, span.dim, tuple(hilbert), _kills(form.terms, operators, p)
