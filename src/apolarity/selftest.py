"""Built-in checks re-running the worked examples behind the test suite.

Each check recomputes a published value (partial-space dimensions, the
decomposition tables, the enumeration instance, the bound evaluations, the
rank verification) and fails loudly on any mismatch.
"""

from __future__ import annotations

import random

from .apolar import apolar_length, diff_space, local_scheme
from .bounds import c_bound, v_bound, verify_theorem, w_bound
from .enumeration import admissible_decompositions, nonsmoothable_filter
from .hilbert import (
    SymmetricDecomposition,
    adapt_coordinates,
    embedding_dims,
    hilbert_function,
    symmetric_decomposition,
)
from .macaulay import is_o_sequence
from .poly import DUAL, contract, parse, poly_str
from .witness import cusp_witness, exotic_extend, random_general_cubic


def _expect(what: str, got, expected):
    """Raise naming `what` unless got == expected, also under `python -O`."""
    if got != expected:
        raise AssertionError(f"{what}: got {got!r}, expected {expected!r}")


def _check_contraction():
    f = parse("x1^2*x2 + x2^2", 2)
    _expect("y2(f)", poly_str(contract(parse("y2", 2, side=DUAL), f)), "x1^2 + x2")
    g = parse("x1^6 + x1^3*x2", 2)
    _expect("(-y2 + y1^3)(g)", poly_str(contract(parse("-y2 + y1^3", 2, side=DUAL), g)), "x2")


def _check_diff_dimensions():
    _expect("dim Diff", diff_space(parse("x1^2*x2 + x2^2", 2)).dim, 6)
    _expect("dim Diff", diff_space(parse("x1^4 + x1^2*x2 + x2^2", 2)).dim, 5)
    _expect("apolar length", apolar_length(parse("x1^6 + x1^3*x2", 2)), 8)


def _check_hilbert_tables():
    dec = symmetric_decomposition(parse("x1^6 + x1^3*x2", 2))
    _expect("H", tuple(dec.hilbert()), (1, 2, 1, 1, 1, 1, 1))
    _expect("Delta", dec.rows, ((1,) * 7, (0,) * 7, (0,) * 7, (0,) * 7, (0, 1, 0, 0, 0, 0, 0)))
    _expect("embedding dimensions", embedding_dims(dec), (1, 1, 1, 1, 2))
    dec2 = symmetric_decomposition(parse("x1^7 + x2^6 + x1^2*x2^2", 2))
    _expect("H", tuple(dec2.hilbert()), (1, 2, 3, 2, 2, 2, 1, 1))
    _expect("Delta_0", dec2.rows[0], (1, 1, 1, 1, 1, 1, 1, 1))
    _expect("Delta_1", dec2.rows[1], (0, 1, 1, 1, 1, 1, 0, 0))
    _expect("Delta_3", dec2.rows[3], (0, 0, 1, 0, 0, 0, 0, 0))


def _check_adapted_coordinates():
    f = parse("x1^6 + x1^3*x2", 2)
    adapted, change = adapt_coordinates(f)
    _expect("adapted form, dropped variables", (adapted, change.dropped), (f, 0))


def _check_macaulay():
    _expect("O-sequence", is_o_sequence((1, 8, 7, 1), strictly_positive=True), True)


def _check_enumeration():
    candidates = admissible_decompositions(17, 8)
    _expect("candidates of length 17, n = 8", len(candidates), 322)
    selected = [c for c in candidates if c.hilbert[1] == 8 and c.hilbert[2] >= 5]
    _expect("candidates with H(1) = 8, H(2) >= 5", len(selected), 5)
    expected = {
        ((1, 8, 7, 1), ((1, 7, 7, 1), (0, 1, 0, 0))),
        ((1, 8, 6, 1, 1), ((1, 1, 1, 1, 1), (0, 5, 5, 0, 0), (0, 2, 0, 0, 0))),
        (
            (1, 8, 5, 1, 1, 1),
            ((1, 1, 1, 1, 1, 1), (0,) * 6, (0, 4, 4, 0, 0, 0), (0, 3, 0, 0, 0, 0)),
        ),
        ((1, 8, 5, 2, 1), ((1, 2, 3, 2, 1), (0, 2, 2, 0, 0), (0, 4, 0, 0, 0))),
        ((1, 8, 5, 2, 1), ((1, 2, 2, 2, 1), (0, 3, 3, 0, 0), (0, 3, 0, 0, 0))),
    }
    got = {(tuple(c.hilbert), c.decomposition.rows) for c in selected}
    _expect("their (H, Delta)", got, expected)
    only = admissible_decompositions(14, 7, nonsmoothable_only=True)
    _expect("nonsmoothable length-14 H", [tuple(c.hilbert) for c in only], [(1, 6, 6, 1)])
    _expect("filter on (1,6,6,1)", nonsmoothable_filter((1, 6, 6, 1)), True)
    _expect("filter on (1,8,5,2,1)", nonsmoothable_filter((1, 8, 5, 2, 1)), False)


def _check_bounds():
    _expect("c(7), c(8)", (c_bound(7), c_bound(8)), (15, 18))
    _expect("w(14..17, 8)", [w_bound(l, 8) for l in (14, 15, 16, 17)], [130, 139, 148, 157])
    _expect("w(14, 7)", w_bound(14, 7), 113)
    worked = SymmetricDecomposition(
        d=6,
        rows=((1, 1, 1, 1, 1, 1, 1), (0,) * 7, (0, 3, 4, 3, 0, 0, 0), (0,) * 7, (0,) * 7),
    )
    report = v_bound(worked, 8)
    _expect("v, d_flag, v_theta", (report.v, report.d_flag, report.v_theta), (105, 19, 86))
    trivial = SymmetricDecomposition(d=3, rows=((1, 6, 6, 1), (0, 0, 0, 0)))
    _expect("v", v_bound(trivial, 7).v, 97)


def _check_verifier_n7():
    report = verify_theorem(7)
    _expect("verdict, rank", (report.passed, report.cactus_rank), (True, 15))
    _expect("rows", len(report.rows), 1)
    _expect("v, threshold", (report.rows[0].v, report.rows[0].threshold), (97, 113))


def _check_verifier_n8():
    report = verify_theorem(8)
    _expect("verdict, rank", (report.passed, report.cactus_rank), (True, 18))
    _expect("rows, worst margin", (len(report.rows), report.worst_margin), (565, 13))


def _check_exotic_extension():
    f = parse("x1^6 + x1^3*x2", 2)
    extended = exotic_extend(f, [parse("y1^2", 2, side=DUAL)])
    expected = parse("x1^6 + x1^4*x3 + x1^3*x2 + x1^2*x3^2 + x1*x2*x3 + x3^3", 3)
    _expect("extension", extended, expected)
    _expect("its H", hilbert_function(extended).values, hilbert_function(f).values)


def _check_cusp_witness():
    report = cusp_witness(parse("x0^3 + x1^3 + x2^3", 3, base=0))
    _expect("length(g) <= 7, apolar", (report.length_g <= 7, report.apolar_ok), (True, True))
    _expect("general, length(f)", (report.general_signature, report.length_f), (True, 8))
    h = report.local_hilbert_g
    _expect("local H", (len(h), h[0] == h[3] == h[4] == 1, h[2] <= h[1] <= 2), (5, True, True))
    rng = random.Random(2024)
    cubic = random_general_cubic(rng)
    scheme = local_scheme(report.form, parse("x0", 4, base=0))
    _expect("length, apolar", (scheme.length, scheme.apolarity_checked), (8, True))
    second = cusp_witness(cubic)
    _expect("length(g) <= 7, apolar", (second.length_g <= 7, second.apolar_ok), (True, True))


CHECKS = (
    ("contraction worked examples", _check_contraction),
    ("partial-space dimensions 6 / 5 / 8", _check_diff_dimensions),
    ("Hilbert decomposition tables", _check_hilbert_tables),
    ("coordinate adaptation fixed point", _check_adapted_coordinates),
    ("Macaulay admissibility of (1,8,7,1)", _check_macaulay),
    ("length-17 enumeration instance and length-14 uniqueness", _check_enumeration),
    ("bound evaluations c, w, v = 105 / 97", _check_bounds),
    ("rank verification n = 7 (rank 15)", _check_verifier_n7),
    ("rank verification n = 8 (rank 18)", _check_verifier_n8),
    ("hidden-variable extension, worked instance", _check_exotic_extension),
    ("cubic-surface cusp witness", _check_cusp_witness),
)


def run_selftest():
    """Run every check; returns the text lines, the JSON payload and the
    exit status of the report."""
    results = []
    failures = 0
    for name, check in CHECKS:
        try:
            check()
            results.append((name, True, ""))
        except Exception as exc:  # report and continue
            failures += 1
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
        for name, ok, detail in results
    ]
    lines.append(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    payload = {
        "passed": failures == 0,
        "checks": [{"name": n, "ok": ok, "detail": detail} for n, ok, detail in results],
    }
    return lines, payload, 0 if failures == 0 else 1
