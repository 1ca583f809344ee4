"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is a list of items.  Each item calls the library once
(`compute`), reduces the result to a JSON-able canonical form whose sha256
is compared with the digest recorded at the default seed, and checks
invariants that hold for every seed (`check`, which sees the results of
the whole pass so paired items can be compared).  The library only ever
receives the generated inputs; the seed never reaches it.

Each workload also names one CLI command a user would run for it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Items call the library through its modules, never through names bound
# here, so the tracer's wrappers (installed on the modules) see every call.
from apolarity import apolar, bounds, enumeration, hilbert, poly, witness
from apolarity.poly import (DUAL, PRIMAL, Polynomial, grlex_key, monomials_of_degree,
                            monomials_up_to, parse, poly_str)
from apolarity.scalars import PrimeField

DEFAULT_SEED = 0
GF = PrimeField(32003)
NAMES = ("verifier", "filtration", "generic")


@dataclass
class Item:
    name: str
    compute: Callable[[], object]
    canonical: Callable[[object], object]
    check: Callable[[object, dict], list]  # (result, results by name) -> problems
    field: str | None = None  # "QQ" or "GF" on the paired scalar items


@dataclass
class Workload:
    name: str
    items: list
    cli_args: list
    check_cli: Callable[[str], list]  # stdout -> problems
    seeded_inputs: bool  # whether the inputs depend on the seed


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int) -> Workload:
    """The workload's items for this seed.

    `verifier` and `filtration` run the paper's fixed instances, so the seed
    changes nothing there (not even the item order, which moves peak RSS);
    `generic` draws all of its inputs from the seed.
    """
    builder = {"verifier": _verifier, "filtration": _filtration, "generic": _generic}[name]
    return builder(random.Random(seed))


# -- verifier: the paper's cactus-rank computation ---------------------------

_SELFTEST_17 = {
    ((1, 8, 7, 1), ((1, 7, 7, 1), (0, 1, 0, 0))),
    ((1, 8, 6, 1, 1), ((1, 1, 1, 1, 1), (0, 5, 5, 0, 0), (0, 2, 0, 0, 0))),
    ((1, 8, 5, 1, 1, 1), ((1, 1, 1, 1, 1, 1), (0,) * 6, (0, 4, 4, 0, 0, 0), (0, 3, 0, 0, 0, 0))),
    ((1, 8, 5, 2, 1), ((1, 2, 3, 2, 1), (0, 2, 2, 0, 0), (0, 4, 0, 0, 0))),
    ((1, 8, 5, 2, 1), ((1, 2, 2, 2, 1), (0, 3, 3, 0, 0), (0, 3, 0, 0, 0))),
}


def _check_report(report, n):
    problems = []
    if any(row.margin != row.threshold - row.v for row in report.rows):
        problems.append("margin != threshold - v")
    if n == 7 and [(r.v, r.threshold) for r in report.rows] != [(97, 113)]:
        problems.append("n=7 must give one row with v=97, threshold=113")
    if n == 8 and not (report.passed and report.cactus_rank == 18 and report.rows):
        problems.append("n=8 must PASS with cactus rank 18")
    if n == 9 and (report.in_scope or not report.rows):
        problems.append("n=9 must be informational with rows")
    return problems


def _check_table_17(candidates, _):
    selected = {(tuple(c.hilbert), c.decomposition.rows)
                for c in candidates if c.hilbert[1] == 8 and c.hilbert[2] >= 5}
    return [] if selected == _SELFTEST_17 else ["length-17 table lacks the five selftest candidates"]


def _verifier(_rng) -> Workload:
    items = [
        Item(f"verify_theorem(n={n})", lambda n=n: bounds.verify_theorem(n),
             lambda r: r.as_dict(), lambda r, _, n=n: _check_report(r, n))
        for n in (7, 8, 9)
    ]
    items.append(Item("admissible_decompositions(17,8)",
                      lambda: enumeration.admissible_decompositions(17, 8),
                      lambda cs: [c.as_dict() for c in cs], _check_table_17))

    def check_cli(stdout):
        report = json.loads(stdout)
        ok = report["passed"] and report["cactus_rank"] == 18
        return [] if ok else ["verify-theorem --n 8 did not PASS with cactus rank 18"]

    return Workload("verifier", items, ["verify-theorem", "--n", "8", "--json"], check_cli, False)


# -- filtration: high socle degree, sparse inputs ----------------------------

def _filtration_inputs():
    """(text, f, expected H or None) for each sparse high-degree input."""
    out = [(f"x1^{e} + x2^{e}", 2, (1,) + (2,) * (e - 1) + (1,)) for e in (100, 150, 200)]
    out += [(f"x1^{e} + x1^{e // 2}*x2 + x2^{e // 3}", 2, None) for e in (60, 90)]
    out.append(("x1^12 + x2^11 + x3^10 + x1^3*x2^3*x3^2", 3, None))
    return [(text, parse(text, nvars), h) for text, nvars, h in out]


def _check_symmetric(dec, expected_h):
    d = dec.d
    problems = [f"Delta_{a} is not symmetric about (d-a)/2"
                for a, row in enumerate(dec.rows)
                if any(row[i] != row[d - a - i] for i in range(d - a + 1))]
    h = tuple(dec.hilbert())
    if expected_h is not None and h != expected_h:
        problems.append(f"H must be {expected_h}")
    if h[0] != 1 or h[-1] != 1:
        problems.append("H must start and end with 1")
    return problems


def _check_orders(space, _):
    d = space.socle_degree
    if any(o + g > d for o, g in zip(space.orders, space.degrees)):
        return ["a partial has order + degree above the socle degree"]
    return []


def _check_adapted(result, f):
    adapted, change = result
    restored = change.unapply(adapted.pad(f.nvars))
    return [] if restored == f else ["adapted coordinates do not map back to f"]


def _filtration(_rng) -> Workload:
    items = []
    for text, f, expected_h in _filtration_inputs():
        items.append(Item(f"symmetric_decomposition({text})",
                          lambda f=f: hilbert.symmetric_decomposition(f),
                          lambda dec: {"d": dec.d, "rows": [list(r) for r in dec.rows]},
                          lambda dec, _, h=expected_h: _check_symmetric(dec, h)))
        items.append(Item(f"orders({text})",
                          lambda f=f: _orders(f),
                          lambda s: {"degrees": list(s.degrees), "orders": list(s.orders)},
                          _check_orders))
        items.append(Item(f"adapt_coordinates({text})",
                          lambda f=f: hilbert.adapt_coordinates(f),
                          lambda r: {"f": poly_str(r[0]), "old_to_new": r[1].old_to_new,
                                     "dropped": r[1].dropped},
                          lambda r, _, f=f: _check_adapted(r, f)))

    def check_cli(stdout):
        first = stdout.splitlines()[0] if stdout else ""
        h = "(1," + "2," * 149 + "1)"
        return [] if first.startswith(h + " -> ") else ["hilbert CLI gave the wrong H"]

    return Workload("filtration", items,
                    ["hilbert", "--f", "x1^150 + x2^150", "--nvars", "2"], check_cli, False)


def _orders(f):
    space = apolar.diff_space(f)
    space.orders  # computed on demand; cached on the space
    return space


# -- generic: dense seeded inputs, the generic-cubic regime -------------------

def _nonzero(rng):
    return rng.randint(1, 5) * rng.choice((1, -1))


def _dense_form(rng, nvars, degree):
    monomials = monomials_of_degree(nvars, degree)
    return Polynomial(nvars, {m: Fraction(_nonzero(rng)) for m in monomials}, PRIMAL)


def _linear_form(rng, nvars):
    return Polynomial(nvars, {tuple(int(i == k) for i in range(nvars)): Fraction(_nonzero(rng))
                              for k in range(nvars)}, PRIMAL)


def _check_scheme(scheme, nvars):
    problems = []
    if scheme.length != 2 * nvars or sum(scheme.hilbert) != scheme.length:
        problems.append(f"local scheme length {scheme.length} != 2*{nvars} or sum of H")
    if not (scheme.apolarity_checked and scheme.stabilized):
        problems.append("local scheme not apolarity_checked and stabilized")
    if not _kills(scheme.annihilator, scheme.defining):
        problems.append("an annihilator generator does not kill the defining polynomial")
    return problems


def _check_cusp(report, _):
    return [] if report.length_g <= 7 and report.apolar_ok else ["cusp witness too long or not apolar"]


# The checks below test one random linear combination instead of every row
# or generator: contraction is linear, so a bad row or generator leaves the
# combination bad unless the random coefficients cancel it (a chance of at
# most 1 in 32003).  The coefficients come from a fixed generator, so a
# check always gives the same answer on the same output.

def _combine(polys):
    rng = random.Random(0)
    terms = {}
    for p in polys:
        c = rng.randint(1, 1 << 20)
        for m, v in p.terms.items():
            terms[m] = terms.get(m, 0) + c * v
    return terms


def _kills(generators, f):
    """Whether every generator contracts f to zero."""
    return poly.contract(Polynomial(f.nvars, _combine(generators), DUAL), f).is_zero()


def _lead(p):
    return max(p.terms, key=grlex_key)


def _remainder(terms, echelon):
    """`terms` minus its projection on rows with distinct leads, given lead-descending."""
    left = dict(terms)
    for lead, row in echelon:
        c = left.get(lead, 0)
        if c == 0:
            continue
        factor = c / row.terms[lead]
        for m, v in row.terms.items():
            left[m] = left.get(m, 0) - factor * v
    return {m: v for m, v in left.items() if v != 0}


def _check_pair(result, results, twin, f, degree):
    """diff_space(f) is Diff(f) and the kernel its annihilator, both as claimed."""
    space, kernel = result
    twin_space, twin_kernel = results[twin]
    problems = []
    if space.hilbert_values() != twin_space.hilbert_values() or len(kernel) != len(twin_kernel):
        problems.append("QQ and GF(32003) disagree on H or kernel dimension")
    rows = space.rows
    echelon = sorted(((_lead(r), r) for r in rows), key=lambda e: grlex_key(e[0]), reverse=True)
    if len({lead for lead, _ in echelon}) != len(rows) or len({_lead(g) for g in kernel}) != len(kernel):
        return problems + ["diff_space rows or kernel generators are not independent"]
    # the span contains f and is closed under contraction, so it holds Diff(f)
    combination = Polynomial(f.nvars, _combine(rows), PRIMAL)
    images = [f] + [poly.contract(Polynomial.monomial(tuple(int(i == k) for i in range(f.nvars)),
                                                      1, DUAL), combination)
                    for k in range(f.nvars)]
    if any(_remainder(image.terms, echelon) for image in images):
        problems.append("the diff_space rows do not span a space closed under contraction with f")
    if not _kills(kernel, f):
        problems.append("a kernel generator does not annihilate f")
    if sum(1 for _ in monomials_up_to(f.nvars, degree + 1)) - len(kernel) != len(rows):
        problems.append("kernel dimension + dim Diff(f) != number of dual monomials")
    return problems


def _space_and_kernel(f, degree):
    return apolar.diff_space(f), apolar.annihilator_generators(f, degree + 1)


def _pair_canonical(result):
    space, kernel = result
    return {"hilbert": list(space.hilbert_values()),
            "rows": [poly_str(r) for r in space.rows],
            "kernel": [poly_str(g) for g in kernel]}


def _generic(rng) -> Workload:
    items = []
    forms = []
    for index, nvars in enumerate((8, 9, 9)):
        form = _dense_form(rng, nvars, 3)
        support = _linear_form(rng, nvars)
        forms.append((form, support))
        items.append(Item(f"local_scheme#{index}(nvars={nvars})",
                          lambda F=form, l=support: apolar.local_scheme(F, l),
                          lambda s: s.as_dict(),
                          lambda s, _, n=nvars: _check_scheme(s, n)))
    for index in range(30):
        cubic = witness.random_general_cubic(rng)
        items.append(Item(f"cusp_witness#{index}", lambda f=cubic: witness.cusp_witness(f),
                          lambda r: r.as_dict(), _check_cusp))
    for nvars, degree in ((2, 16), (3, 6), (4, 5)):
        monomials = list(monomials_up_to(nvars, degree))
        values = [_nonzero(rng) for _ in monomials]
        label = f"nvars={nvars},deg={degree}"
        for field, coerce in (("QQ", Fraction), ("GF", GF)):
            f = Polynomial(nvars, {m: coerce(v) for m, v in zip(monomials, values)}, PRIMAL)
            twin = f"diff+annihilator[{'GF' if field == 'QQ' else 'QQ'}]({label})"
            items.append(Item(f"diff+annihilator[{field}]({label})",
                              lambda f=f, d=degree: _space_and_kernel(f, d),
                              _pair_canonical,
                              lambda r, results, twin=twin, f=f, d=degree:
                              _check_pair(r, results, twin, f, d),
                              field))
    form, support = forms[1]

    def check_cli(stdout):
        lines = stdout.splitlines()
        wanted = ["length = 18", "apolarity_checked = True", "stabilized = True"]
        return [] if all(w in lines for w in wanted) else ["local-length CLI output is wrong"]

    args = ["local-length", "--f", poly_str(form, base=0), "--nvars", "9",
            "--at", poly_str(support, base=0)]
    return Workload("generic", items, args, check_cli, True)


def coeff_bits(item, result) -> int:
    """Largest numerator or denominator bit length in a QQ item's basis rows."""
    if item.field != "QQ":
        return 0
    space, kernel = result
    coeffs = [c for g in list(space.rows) + kernel for c in g.terms.values()]
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
