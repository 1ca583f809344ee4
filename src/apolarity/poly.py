"""Sparse exact polynomials in the divided-power convention, with contraction.

Two sides share one representation:

* primal polynomials live in the divided-power ring on variables x1..xn
  (or x0..xn for homogeneous forms); a term maps an exponent vector to a
  coefficient, and the exponent vector denotes the divided-power basis
  monomial.  Multiplying two primal monomials therefore picks up binomial
  factors: x^[a] * x^[b] = prod C(a_i+b_i, a_i) * x^[a+b].
* dual (operator) polynomials live in the ordinary polynomial ring on
  y1..yn and act on the primal side by contraction, a pure exponent shift:
  y^a applied to x^[b] is x^[b-a] when b >= a componentwise and 0 otherwise.
  No multinomial coefficients appear, which keeps every computation valid
  in any supported characteristic.

The zero polynomial has degree -inf (a sentinel, not a coefficient); the
order of a dual polynomial is its least term degree (+inf for zero).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from operator import sub
from typing import Iterator, Mapping, Sequence

from ._record import Record, setfield
from .scalars import RATIONALS, characteristic, from_integers, one_like, to_integers

PRIMAL = "primal"
DUAL = "dual"

NEG_INFINITY = float("-inf")
POS_INFINITY = float("inf")

Exponents = tuple  # tuple[int, ...], one entry per variable


def grlex_key(exponents: Exponents):
    """Sort key for graded lexicographic monomial order."""
    return (sum(exponents), exponents)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """Yield all exponent vectors of the given total degree, lexicographically
    descending: a monomial is the sorted multiset of its variables'
    indices, and those come ascending, (0, ..., 0) first."""
    for indices in combinations_with_replacement(range(nvars), degree):
        exponents = [0] * nvars
        for i in indices:
            exponents[i] += 1
        yield tuple(exponents)


def monomials_up_to(nvars: int, degree: int) -> Iterator[Exponents]:
    """Yield all exponent vectors of total degree <= degree, grlex ascending."""
    for d in range(degree + 1):
        # monomials_of_degree yields each degree lexicographically descending
        yield from reversed(list(monomials_of_degree(nvars, d)))


class Polynomial:
    """Immutable sparse polynomial; `terms` maps exponent vectors to field scalars."""

    __slots__ = ("nvars", "terms", "side")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object], side: str = PRIMAL):
        if side not in (PRIMAL, DUAL):
            raise ValueError(f"unknown side {side!r}")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for exponents, coeff in terms.items():
            if len(exponents) != nvars:
                raise ValueError(
                    f"exponent vector {exponents} has length {len(exponents)}, expected {nvars}"
                )
            if exponents and min(exponents) < 0:
                raise ValueError(f"negative exponent in {exponents}")
            if type(coeff) is int:
                coeff = Fraction(coeff)
            elif isinstance(coeff, float):
                raise TypeError("floating-point coefficient rejected; use Fraction or int")
            if coeff == 0:
                continue
            clean[tuple(exponents)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "side", side)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict, side: str) -> "Polynomial":
        """The polynomial on the dict `terms` itself, not validated: for
        terms an exact computation produced, keyed by exponent tuples of
        length nvars, with nonzero field scalars."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "side", side)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # for copy and pickle: the default restores __slots__ through __setattr__
        return Polynomial, (self.nvars, self.terms, self.side)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, side: str = PRIMAL) -> "Polynomial":
        return cls(nvars, {}, side)

    @classmethod
    def constant(cls, nvars: int, value, side: str = PRIMAL) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value}, side)

    @classmethod
    def variable(cls, nvars: int, index: int, side: str = PRIMAL) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exponents = [0] * nvars
        exponents[index] = 1
        return cls(nvars, {tuple(exponents): Fraction(1)}, side)

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff=Fraction(1), side: str = PRIMAL) -> "Polynomial":
        return cls(len(exponents), {tuple(exponents): coeff}, side)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Max term degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def order(self):
        """Min term degree; +inf for the zero polynomial."""
        if not self.terms:
            return POS_INFINITY
        return min(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exponents: Sequence[int]):
        return self.terms.get(tuple(exponents), 0)

    def sorted_terms(self):
        """Terms in descending graded lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if self.side != other.side:
            raise ValueError(f"side mismatch: {self.side} vs {other.side}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exponents, coeff in other.terms.items():
            terms[exponents] = terms.get(exponents, 0) + coeff
        return Polynomial(self.nvars, terms, self.side)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Ring product: ordinary on the dual side, divided-power on the primal."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = _term_product(self.terms, other.terms, self.side == PRIMAL)
        return Polynomial(self.nvars, terms, self.side)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars, self.side) == (other.nvars, other.side) and self.terms == other.terms

    __hash__ = None

    # -- reshaping -----------------------------------------------------

    def pad(self, nvars: int) -> "Polynomial":
        """Embed into a ring with more (trailing) variables."""
        if nvars < self.nvars:
            raise ValueError("pad cannot drop variables")
        extra = (0,) * (nvars - self.nvars)
        return Polynomial(nvars, {e + extra: c for e, c in self.terms.items()}, self.side)

    def restrict(self, nvars: int) -> "Polynomial":
        """Drop trailing variables, which must not occur in any term."""
        if nvars > self.nvars:
            raise ValueError("restrict cannot add variables")
        for exponents in self.terms:
            if any(exponents[nvars:]):
                raise ValueError("polynomial involves a dropped variable")
        return Polynomial(nvars, {e[:nvars]: c for e, c in self.terms.items()}, self.side)

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.side}, {poly_str(self)})"


# -- contraction -------------------------------------------------------


def contract(psi: Polynomial, f: Polynomial) -> Polynomial:
    """Apply the dual operator psi to f by exponent shifting.

    Bilinear extension of y^a(x^[b]) = x^[b-a] if b >= a componentwise,
    else 0.  Coefficients multiply unchanged (divided-power convention).
    """
    if psi.side != DUAL:
        raise ValueError("contract expects a dual polynomial as the operator")
    if f.side != PRIMAL:
        raise ValueError("contract expects a primal polynomial as the argument")
    if psi.nvars != f.nvars:
        raise ValueError(f"variable count mismatch: {psi.nvars} vs {f.nvars}")
    images = {alpha: _contract_terms(f.terms, alpha) for alpha in psi.terms}
    return Polynomial(f.nvars, _apply(psi.terms, images), PRIMAL)


def _apply(psi_terms: Mapping[Exponents, object], images: Mapping[Exponents, dict]) -> dict:
    """Term dict of psi(f), given images[alpha] = y^alpha(f) for the alphas
    of psi; a missing alpha contracts f to 0.  Zero sums are kept."""
    terms: dict = {}
    for alpha, c in psi_terms.items():
        for beta, e in images.get(alpha, {}).items():
            terms[beta] = terms.get(beta, 0) + c * e
    return terms


def _contract_terms(terms: Mapping[Exponents, object], alpha: Exponents) -> dict:
    """Contraction of a term dict by the dual monomial y^alpha."""
    support = [(i, a) for i, a in enumerate(alpha) if a]
    out = {}
    for beta, coeff in terms.items():
        for i, a in support:
            if beta[i] < a:
                break
        else:
            shifted = list(beta)
            for i, a in support:
                shifted[i] -= a
            out[tuple(shifted)] = coeff
    return out


def _contractions(terms: Mapping[Exponents, object], max_degree: int | None = None) -> dict:
    """Every nonzero contraction of a term dict by a dual monomial y^alpha
    with |alpha| <= max_degree (no bound for None), keyed by alpha.

    Each (term beta, divisor alpha <= beta) pair is visited once, so the
    table costs the number of such pairs, where scanning the terms once per
    alpha costs #alphas * #terms.  An alpha missing from the table contracts
    the terms to 0.  Each image lists its terms in the order of `terms`, as
    `_contract_terms` does.
    """
    table: dict = {}
    if max_degree is not None and max_degree < 0:
        return table
    for beta, coeff in terms.items():
        for alpha, shift in _divisors(beta, max_degree):
            image = table.get(alpha)
            if image is None:
                table[alpha] = {shift: coeff}
            else:
                image[shift] = coeff
    return table


def _divisors(beta: Exponents, left: int | None = None):
    """Each divisor alpha of beta with |alpha| <= left (None: the degree of
    beta), paired with its shift beta - alpha.

    A term within the budget is the whole box of its divisors, stepped
    through by two `itertools.product`s in lockstep.  Under a binding
    budget the divisors are grown over the support of beta with the degree
    left, so none above the budget is made.
    """
    if left is None or sum(beta) <= left:
        return zip(product(*[range(b + 1) for b in beta]),
                   product(*[range(b, -1, -1) for b in beta]))
    divisors = [([0] * len(beta), left)]
    for i, b in enumerate(beta):
        if b:
            grown = []
            for alpha, room in divisors:
                for a in range(1, min(b, room) + 1):
                    longer = alpha.copy()
                    longer[i] = a
                    grown.append((longer, room - a))
            divisors += grown
    return [(tuple(alpha), tuple(map(sub, beta, alpha))) for alpha, _ in divisors]


# -- homogenization ------------------------------------------------------


def homogenize(g: Polynomial, d: int) -> Polynomial:
    """Homogenize to total degree d with a new first variable.

    Every term m of g gains first-variable exponent d - deg(m); the
    coefficient is unchanged, so dehomogenizing at the new variable is the
    exact inverse.  Works on either side (new variable x0 or y0).
    """
    if not g.is_zero() and d < g.degree():
        raise ValueError(f"target degree {d} is below deg(g) = {g.degree()}")
    terms = {(d - sum(e),) + e: c for e, c in g.terms.items()}
    return Polynomial(g.nvars + 1, terms, g.side)


def _drop_first(f: Polynomial) -> Polynomial:
    """Set the first variable to 1 by dropping its exponent (either side)."""
    terms: dict = {}
    for exponents, coeff in f.terms.items():
        rest = exponents[1:]
        terms[rest] = terms.get(rest, 0) + coeff
    return Polynomial(f.nvars - 1, terms, f.side)


# -- linear substitutions (divided-power automorphisms) ------------------


def _linear_dp_power(coeffs: Sequence, nvars: int, k: int) -> dict:
    """Divided-power k-th power (k >= 1) of the linear form sum(coeffs[i] * x_i).

    Expands without multinomial coefficients: the result is the sum over
    all exponent vectors g of total degree k supported on the nonzero
    coefficients, with coefficient prod(coeffs[i] ** g[i]).
    """
    support = [i for i, c in enumerate(coeffs) if c != 0]
    out: dict = {}
    for parts in monomials_of_degree(len(support), k):
        exponents = [0] * nvars
        coeff = 1
        for idx, e in zip(support, parts):
            exponents[idx] = e
            if e:
                coeff = coeff * (coeffs[idx] ** e)
        out[tuple(exponents)] = coeff
    return out


def _term_product(a: Mapping, b: Mapping, divided: bool) -> dict:
    """Product of two term dicts, zero terms dropped.

    With `divided`, monomials multiply as divided powers, picking up the
    factor prod C(a_i + b_i, a_i); otherwise as ordinary monomials.
    """
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exponents = tuple(x + y for x, y in zip(ea, eb))
            coeff = ca * cb
            if divided:
                factor = 1
                for x, y in zip(ea, eb):
                    if x and y:
                        factor *= comb(x + y, x)
                if factor != 1:
                    coeff = coeff * factor
            out[exponents] = out.get(exponents, 0) + coeff
    return {e: c for e, c in out.items() if c != 0}


def dp_substitute(f: Polynomial, images: Sequence[Sequence]) -> Polynomial:
    """Apply the divided-power ring map sending x_i to the linear form images[i].

    `images[i]` is a coefficient row over the target variables.  A divided
    monomial x^[b] maps to the divided-power product of the images' divided
    powers, which is the unique extension of the linear map to a map of
    divided-power rings.

    The map runs on ints (`scalars`): f = w / den and images = rows / D,
    and the divided power of degree k of a row / D is D^-k times that of
    the row, so x^[b] contributes w_b D^(top - |b|) / (den D^top), top
    being deg f.
    """
    if f.side != PRIMAL:
        raise ValueError("dp_substitute acts on primal polynomials")
    if len(images) != f.nvars:
        raise ValueError("one image per variable required")
    new_nvars = len(images[0]) if images else 0
    if any(len(row) != new_nvars for row in images):
        raise ValueError("image rows must have equal length")
    p = characteristic(f.terms.values(), *images)
    coeffs, den = to_integers(f.terms.values(), p)
    flat, D = to_integers([c for row in images for c in row], p)
    rows = [flat[i * new_nvars:(i + 1) * new_nvars] for i in range(len(images))]
    top = max(map(sum, f.terms), default=0)
    powers: dict = {}  # (i, k) -> divided k-th power of rows[i]
    total: dict = {}
    for exponents, coeff in zip(f.terms, coeffs):
        factors = []
        for i, e in enumerate(exponents):
            if e:
                power = powers.get((i, e))
                if power is None:
                    power = _linear_dp_power(rows[i], new_nvars, e)
                    if p:
                        power = {m: c % p for m, c in power.items()}
                    powers[i, e] = power
                factors.append(power)
        term = {(0,) * new_nvars: coeff * D ** (top - sum(exponents))}
        # smallest first: a unit row's power is one monomial, and multiplying
        # it into a dense product costs a pass over that product
        for power in sorted(factors, key=len):
            term = _term_product(term, power, True)
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    scalars = from_integers(total.values(), den * D ** top, p)
    return Polynomial(new_nvars, dict(zip(total, scalars)), PRIMAL)


class ChangeOfBasis(Record):
    """Audit record of an invertible linear change of variables.

    `old_to_new[i]` expresses old variable i as a linear form in the new
    variables (these are the substitution images); `new_to_old[k]` is the
    inverse map.  `dropped` counts trailing new variables removed because
    they do not occur in the transformed polynomial.
    """

    __match_args__ = ("old_to_new", "new_to_old", "dropped")

    def __init__(self, old_to_new: tuple, new_to_old: tuple, dropped: int = 0):
        setfield(self, "old_to_new", old_to_new)
        setfield(self, "new_to_old", new_to_old)
        setfield(self, "dropped", dropped)

    def unapply(self, f: Polynomial) -> Polynomial:
        return dp_substitute(f, self.new_to_old)


def dehomogenize(F: Polynomial, l: Polynomial):
    """Dehomogenize the form F at the linear form l.

    Completes l to a basis deterministically (pivot = lowest-index variable
    of l, remaining unit vectors in index order), rewrites F in the new
    coordinates, and sets the l-coordinate to 1.  Returns the result in one
    fewer variable together with the change-of-basis record.  Restricted to
    forms of degree d the map is injective onto polynomials of degree <= d.
    """
    if F.side != PRIMAL or l.side != PRIMAL:
        raise ValueError("dehomogenize expects primal polynomials")
    if F.nvars != l.nvars:
        raise ValueError("variable count mismatch")
    if not F.is_homogeneous():
        raise ValueError("F must be homogeneous")
    if l.is_zero():
        raise ValueError("l must be nonzero")
    if l.degree() != 1:
        raise ValueError("l must be linear")
    n = F.nvars
    one = one_like(next(iter(l.terms.values())))
    zero = one - one
    coeffs = [zero] * n
    for exponents, coeff in l.terms.items():
        coeffs[exponents.index(1)] = coeff
    pivot = next(i for i in range(n) if coeffs[i] != 0)
    units = [[one if j == i else zero for j in range(n)] for i in range(n)]
    # new coordinates: z_0 = l, then the other x_i in index order, so
    # x_i = z_k(i) for i != pivot (k(i) = i + 1 below the pivot, i above)
    # and x_pivot = (z_0 - sum_{i != pivot} c_i z_k(i)) / c_pivot
    new_to_old = [coeffs] + units[:pivot] + units[pivot + 1:]
    inverse = one / coeffs[pivot]
    solved = [inverse] + [-c * inverse for i, c in enumerate(coeffs) if i != pivot]
    old_to_new = units[1:pivot + 1] + [solved] + units[pivot + 1:]
    record = ChangeOfBasis(old_to_new=tuple(map(tuple, old_to_new)),
                           new_to_old=tuple(map(tuple, new_to_old)))
    return _drop_first(dp_substitute(F, old_to_new)), record


# -- parsing and printing -------------------------------------------------


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SIDE_LETTER = {PRIMAL: "x", DUAL: "y"}


def parse(text: str, nvars: int, side: str = PRIMAL, base: int = 1, field=RATIONALS) -> Polynomial:
    """Parse `coeff ('*' factor)*` terms joined by '+'/'-' into a Polynomial.

    Variables are written x<k> (primal) or y<k> (dual) with indices starting
    at `base`; exponent syntax is x1^3.  Exponent vectors denote divided-power
    basis monomials, so repeated factors add exponents without coefficients.
    """
    letter = _SIDE_LETTER[side]
    pos = 0
    size = len(text)

    def skip_ws(p: int) -> int:
        while p < size and text[p].isspace():
            p += 1
        return p

    def read_int(p: int):
        start = p
        while p < size and text[p].isdigit():
            p += 1
        if p == start:
            raise ParseError("expected an integer", start)
        return int(text[start:p]), p

    terms: dict = {}
    pos = skip_ws(pos)
    if pos == size:
        raise ParseError("empty input", pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos = skip_ws(pos + 1)
    while True:
        coeff = None
        exponents = [0] * nvars
        saw_factor = False
        while True:
            pos = skip_ws(pos)
            if pos < size and text[pos].isdigit():
                if coeff is not None or saw_factor:
                    raise ParseError("unexpected number", pos)
                num, pos = read_int(pos)
                den = 1
                if pos < size and text[pos] == "/":
                    den, pos = read_int(pos + 1)
                    if den == 0:
                        raise ParseError("division by zero in coefficient", pos)
                coeff = field(Fraction(num, den))
            elif pos < size and text[pos].isalpha():
                if text[pos] != letter:
                    raise ParseError(f"expected variable letter {letter!r}", pos)
                index, pos = read_int(pos + 1)
                index -= base
                if not 0 <= index < nvars:
                    raise ParseError(f"variable index out of range (nvars={nvars})", pos)
                exponent = 1
                if pos < size and text[pos] == "^":
                    exponent, pos = read_int(pos + 1)
                exponents[index] += exponent
                saw_factor = True
            else:
                raise ParseError("expected a coefficient or a variable", pos)
            pos = skip_ws(pos)
            if pos < size and text[pos] == "*":
                pos += 1
                continue
            break
        if coeff is None:
            coeff = field(1)
        key = tuple(exponents)
        terms[key] = terms.get(key, field.zero) + (coeff if sign > 0 else -coeff)
        pos = skip_ws(pos)
        if pos == size:
            break
        if text[pos] not in "+-":
            raise ParseError("expected '+' or '-'", pos)
        sign = -1 if text[pos] == "-" else 1
        pos = skip_ws(pos + 1)
        if pos == size:
            raise ParseError("dangling sign", pos)
    return Polynomial(nvars, terms, side)


def _monomial_str(exponents: Exponents, letter: str, base: int) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 0:
            continue
        parts.append(f"{letter}{i + base}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


def poly_str(f: Polynomial, base: int = 1) -> str:
    """Canonical rendering: descending grlex terms; round-trips with parse."""
    if f.is_zero():
        return "0"
    letter = _SIDE_LETTER[f.side]
    pieces = []
    for exponents, coeff in f.sorted_terms():
        mono = _monomial_str(exponents, letter, base)
        negative = isinstance(coeff, Fraction) and coeff < 0
        body = -coeff if negative else coeff
        if mono and body == 1:
            text = mono
        elif mono:
            text = f"{body}*{mono}"
        else:
            text = str(body)
        if not pieces:
            pieces.append(("-" if negative else "") + text)
        else:
            pieces.append(("- " if negative else "+ ") + text)
    return " ".join(pieces)
