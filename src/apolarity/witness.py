"""Constructive witnesses: hidden-variable extensions and the cusp scheme.

`exotic_extend` builds, from f in k variables and operators phi_1..phi_m of
order >= 2, the polynomial

    sum over (i_1..i_m >= 0) of x_{k+1}^{i_1} ... x_{k+m}^{i_m}
        * (phi_1^{i_1} ... phi_m^{i_m})(f),

which acquires the new variables without changing the Hilbert function or
the space of linear partials.

`cusp_witness` exhibits, for a cubic surface in normal form, a local apolar
scheme of length at most 7 at the cusp support, strictly below the length 8
of every natural apolar scheme of a general cubic.  Starting from a cubic
f(x0, x1, x2) with nonzero x2^3 coefficient, it forms

    F = f + x1^2*x3 + x0*x3^2,      g = x1^4 + F(x0 = 1),

so that G, the degree-4 homogenization of g, satisfies y0(G) = F.  The
scheme of g is then apolar to F and its length dim Diff(g) is certified
to be at most 7; equality holds for general f by a case analysis that is
not re-verified here, so reports state "<= 7 verified".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .apolar import _scheme, diff_space
from .apolar import is_apolar  # noqa: F401  perfbench/test_perfbench.py checks that its tracer rebinds witness.is_apolar
from .poly import (
    DUAL,
    PRIMAL,
    Polynomial,
    _apply,
    _contractions,
    _drop_first,
    contract,
    homogenize,
    monomials_of_degree,
    poly_str,
)
from .scalars import one_like

LENGTH_NOTE = "length <= 7 verified constructively; equality holds for general cubics"


def _spans_all_linear(f: Polynomial) -> bool:
    """Whether Diff(f)_1 contains 1 and every variable of the ring.

    Diff(f) of a nonzero f always holds a constant, so this is H(1) = nvars.
    """
    values = diff_space(f).hilbert_values()
    return (values[1] if len(values) > 1 else 0) == f.nvars


def exotic_extend(f: Polynomial, phis) -> Polynomial:
    """Extend f by one hidden variable per operator of order >= 2.

    Requires Diff(f)_1 = <1, x_1..x_k>; each phi must be a dual polynomial
    in the same k variables with no term of degree < 2.  The sum is finite
    because each application of phi lowers degree by at least 2.
    """
    if f.is_zero():
        raise ValueError("f must be nonzero")
    phis = list(phis)
    k = f.nvars
    for phi in phis:
        if phi.side != DUAL:
            raise ValueError("operators must be dual polynomials")
        if phi.nvars != k:
            raise ValueError("operators must live in the same variables as f")
        if phi.is_zero() or phi.order() < 2:
            raise ValueError(f"operator {poly_str(phi, base=1)} has order < 2")
    if not _spans_all_linear(f):
        raise ValueError("Diff(f)_1 must span 1 and all variables of f")
    m = len(phis)
    if m == 0:
        return f
    d = int(f.degree())
    nvars = k + m
    total: dict = {}
    bound = d // 2
    one = one_like(next(iter(f.terms.values())))
    table = _contractions(f.terms)
    for powers in product(range(bound + 1), repeat=m):
        operator = Polynomial.constant(k, one, DUAL)
        for phi, e in zip(phis, powers):
            for _ in range(e):
                operator = operator * phi
        suffix = tuple(powers)
        for exponents, coeff in _apply(operator.terms, table).items():
            if coeff != 0:
                key = exponents + suffix
                total[key] = total.get(key, 0) + coeff
    return Polynomial(nvars, total, PRIMAL)


@dataclass(frozen=True)
class WitnessReport:
    """Cusp construction outcome for one input cubic."""

    cubic: Polynomial
    form: Polynomial       # F = f + x1^2*x3 + x0*x3^2
    quartic: Polynomial    # G, homogenization of g = x1^4 + F(x0=1)
    length_f: int
    length_g: int
    local_hilbert_g: tuple
    apolar_ok: bool
    general_signature: bool  # H of F(x0=1) equals (1, 3, 3, 1)
    note: str = LENGTH_NOTE

    def as_dict(self) -> dict:
        return {
            "f": poly_str(self.cubic, base=0),
            "F": poly_str(self.form, base=0),
            "G": poly_str(self.quartic, base=0),
            "length_F_scheme": self.length_f,
            "length_G_scheme": self.length_g,
            "local_hilbert_G": list(self.local_hilbert_g),
            "apolar_ok": self.apolar_ok,
            "general_signature": self.general_signature,
            "note": self.note,
        }


def cusp_witness(f: Polynomial) -> WitnessReport:
    """Length <= 7 apolar witness for a cubic surface in cusp normal form.

    f must be a homogeneous cubic in three variables x0, x1, x2 with
    nonzero x2^3 coefficient.
    """
    if f.side != PRIMAL or f.nvars != 3:
        raise ValueError("f must be a primal cubic in the three variables x0, x1, x2")
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 3:
        raise ValueError("f must be homogeneous of degree 3")
    if f.coefficient((0, 0, 3)) == 0:
        raise ValueError("the coefficient of x2^3 must be nonzero")
    one = one_like(f.coefficient((0, 0, 3)))
    F = f.pad(4) + Polynomial(4, {(0, 2, 0, 1): one, (1, 0, 0, 2): one}, PRIMAL)
    f_l = _drop_first(F)  # F(x0 = 1); F carries x1^2*x3, so f_l is nonzero
    space_f = diff_space(f_l)
    g = f_l + Polynomial(3, {(4, 0, 0): one}, PRIMAL)
    G = homogenize(g, 4)
    if contract(Polynomial.variable(4, 0, DUAL), G) != F:
        raise AssertionError("homogenized witness does not contract back to F")
    _, length_g, hilbert_g, apolar_ok = _scheme(g, 4, F)
    return WitnessReport(
        cubic=f,
        form=F,
        quartic=G,
        length_f=space_f.dim,
        length_g=length_g,
        local_hilbert_g=hilbert_g,
        apolar_ok=apolar_ok,
        general_signature=space_f.hilbert_values() == (1, 3, 3, 1),
    )


def random_general_cubic(rng: random.Random) -> Polynomial:
    """Random rational cubic in x0, x1, x2 with nonzero x2^3 coefficient."""
    while True:
        terms = {}
        for exponents in monomials_of_degree(3, 3):
            value = Fraction(rng.randint(-4, 4))
            if rng.random() < 0.3:
                value += Fraction(rng.randint(-2, 2), 2)
            if value != 0:
                terms[exponents] = value
        if terms.get((0, 0, 3), 0) == 0:
            terms[(0, 0, 3)] = Fraction(rng.choice([1, 2, 3, -1, -2]))
        cubic = Polynomial(3, terms, PRIMAL)
        if not cubic.is_zero():
            return cubic
