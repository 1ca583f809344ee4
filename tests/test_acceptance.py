"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every expected value here is either a published worked value or was
computed by the independent oracles in the sibling test modules.
"""

from __future__ import annotations

import random
import time

from apolarity.apolar import diff_space, local_scheme
from apolarity.bounds import v_bound, verify_theorem, w_bound
from apolarity.enumeration import admissible_decompositions
from apolarity.hilbert import SymmetricDecomposition, hilbert_function, symmetric_decomposition
from apolarity.macaulay import binomial_expansion, is_o_sequence, macaulay_bound
from apolarity.poly import (
    DUAL,
    PRIMAL,
    Polynomial,
    _drop_first,
    contract,
    homogenize,
    parse,
)
from apolarity.witness import cusp_witness, exotic_extend, random_general_cubic

from conftest import random_dual_operator, random_polynomial, terms_of_degree
from test_enumeration import brute_force
from test_macaulay import all_expansions
from test_witness import spanning_polynomial


def report(number: int, elapsed: float, description: str):
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {description}")


def test_criterion_01_partials_dimensions():
    start = time.perf_counter()
    assert diff_space(parse("x1^2*x2 + x2^2", 2)).dim == 6
    assert diff_space(parse("x1^4 + x1^2*x2 + x2^2", 2)).dim == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, "dim Diff = 6 and 5 on the worked quartic pair")


def test_criterion_02_decomposition_tables():
    start = time.perf_counter()
    first = symmetric_decomposition(parse("x1^6 + x1^3*x2", 2))
    assert first.rows == (
        (1, 1, 1, 1, 1, 1, 1),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
    )
    first_elapsed = time.perf_counter() - start
    start2 = time.perf_counter()
    second = symmetric_decomposition(parse("x1^7 + x2^6 + x1^2*x2^2", 2))
    assert second.rows == (
        (1, 1, 1, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 1, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    )
    second_elapsed = time.perf_counter() - start2
    assert first_elapsed < 1.0 and second_elapsed < 1.0
    report(2, first_elapsed + second_elapsed, "both decomposition tables exact")


def test_criterion_03_enumeration_instance():
    start = time.perf_counter()
    candidates = admissible_decompositions(17, 8)
    selected = [
        (tuple(c.hilbert), c.decomposition.rows)
        for c in candidates
        if c.hilbert[1] == 8 and c.hilbert[2] >= 5
    ]
    assert selected == [
        ((1, 8, 7, 1), ((1, 7, 7, 1), (0, 1, 0, 0))),
        ((1, 8, 5, 2, 1), ((1, 2, 2, 2, 1), (0, 3, 3, 0, 0), (0, 3, 0, 0, 0))),
        ((1, 8, 5, 2, 1), ((1, 2, 3, 2, 1), (0, 2, 2, 0, 0), (0, 4, 0, 0, 0))),
        ((1, 8, 6, 1, 1), ((1, 1, 1, 1, 1), (0, 5, 5, 0, 0), (0, 2, 0, 0, 0))),
        (
            (1, 8, 5, 1, 1, 1),
            ((1, 1, 1, 1, 1, 1), (0,) * 6, (0, 4, 4, 0, 0, 0), (0, 3, 0, 0, 0, 0)),
        ),
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, elapsed, "length-17 instance: exactly the 5 decompositions, stated order")


def test_criterion_04_bound_worked_example():
    start = time.perf_counter()
    decomposition = SymmetricDecomposition(
        d=6,
        rows=(
            (1, 1, 1, 1, 1, 1, 1),
            (0,) * 7,
            (0, 3, 4, 3, 0, 0, 0),
            (0,) * 7,
            (0,) * 7,
        ),
    )
    result = v_bound(decomposition, 8)
    assert result.v == 105
    assert result.d_flag == 19
    elapsed = time.perf_counter() - start
    report(4, elapsed, "v = 105 with flag dimension 19 on the worked sextic")


def test_criterion_05_rank_verification_n7():
    start = time.perf_counter()
    result = verify_theorem(7)
    assert result.passed and result.cactus_rank == 15
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.hilbert == (1, 6, 6, 1)
    assert row.v == 97 and row.threshold == 113
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, elapsed, "n = 7: single candidate (1,6,6,1), 97 < 113, rank 15")


def test_criterion_06_rank_verification_n8():
    start = time.perf_counter()
    assert [w_bound(l, 8) for l in (14, 15, 16, 17)] == [130, 139, 148, 157]
    result = verify_theorem(8)
    assert result.passed and result.cactus_rank == 18
    assert result.rows, "no comparison rows generated"
    assert all(row.v < row.threshold for row in result.rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, elapsed, f"n = 8: {len(result.rows)} strict comparisons, rank 18")


def test_criterion_07_property_suite():
    start = time.perf_counter()
    rng = random.Random(170)
    checked = 0
    while checked < 200:
        nvars = rng.randint(1, 5)
        degree = rng.randint(1, 6)
        f = random_polynomial(rng, nvars, degree, max_terms=4)
        checked += 1
        decomposition = symmetric_decomposition(f)
        h = hilbert_function(f)
        d = decomposition.d
        # (a) rows sum to the Hilbert function
        assert tuple(decomposition.hilbert()) == h.values
        # (b) symmetry of every row about (d - a) / 2
        for a, row in enumerate(decomposition.rows):
            for i in range(d + 1):
                mirror = d - a - i
                assert row[i] == (row[mirror] if 0 <= mirror <= d else 0)
        # (c) every partial sum satisfies Macaulay growth
        running = [0] * (d + 1)
        for row in decomposition.rows:
            running = [x + y for x, y in zip(running, row)]
            assert is_o_sequence(running)
        # (d) tail comparison of the two contraction routes
        extra = rng.randint(0, 1)
        F = homogenize(f, int(f.degree()) + extra)
        psi_degree = rng.randint(0, int(F.degree()))
        Psi = random_polynomial(rng, nvars + 1, psi_degree, side=DUAL, homogeneous=True)
        cutoff = int(F.degree()) - psi_degree
        lhs = _pi(contract(Psi, F))
        rhs = contract(_drop_first(Psi), _pi(F))
        if cutoff >= 0:
            lhs_tail = terms_of_degree(lhs, lambda k: k <= cutoff)
            assert lhs_tail == terms_of_degree(rhs, lambda k: k <= cutoff)
        else:
            assert lhs.is_zero()
        # (e) the natural local scheme is apolar
        scheme = local_scheme(F, Polynomial.variable(nvars + 1, 0))
        assert scheme.apolarity_checked
    elapsed = time.perf_counter() - start
    report(7, elapsed, f"{checked} random polynomials, properties (a)-(e), zero failures")


def _pi(F: Polynomial) -> Polynomial:
    terms: dict = {}
    for exponents, coeff in F.terms.items():
        key = exponents[1:]
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(F.nvars - 1, terms, PRIMAL)


def test_criterion_08_exotic_invariance():
    start = time.perf_counter()
    f = parse("x1^6 + x1^3*x2", 2)
    extended = exotic_extend(f, [parse("y1^2", 2, side=DUAL)])
    assert extended == parse(
        "x1^6 + x1^4*x3 + x1^3*x2 + x1^2*x3^2 + x1*x2*x3 + x3^3", 3
    )
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        nvars = rng.randint(1, 3)
        base = spanning_polynomial(rng, nvars, rng.randint(2, 5))
        m = rng.randint(1, 2)
        phis = [random_dual_operator(rng, nvars, int(base.degree())) for _ in range(m)]
        lifted = exotic_extend(base, phis)
        checked += 1
        assert hilbert_function(lifted).values == hilbert_function(base).values
        base_linear = _linear_rows(base, extra=m)
        assert _linear_rows(lifted) == base_linear
    elapsed = time.perf_counter() - start
    report(8, elapsed, f"{checked} extensions preserve H and the linear partials")


def _linear_rows(f: Polynomial, extra: int = 0):
    space = diff_space(f)
    rows = []
    for row, degree in zip(space.rows, space.degrees):
        if degree <= 1:
            rows.append(
                tuple(sorted({e + (0,) * extra: c for e, c in row.terms.items()}.items()))
            )
    return sorted(rows)


def test_criterion_09_cusp_witness():
    start = time.perf_counter()
    fixed = cusp_witness(parse("x0^3 + x1^3 + x2^3", 3, base=0))
    assert fixed.length_g <= 7 and fixed.apolar_ok
    assert fixed.general_signature and fixed.length_f == 8
    rng = random.Random(909)
    general = 0
    for _ in range(100):
        cubic = random_general_cubic(rng)
        result = cusp_witness(cubic)
        assert result.length_g <= 7
        assert result.apolar_ok
        if result.general_signature:
            general += 1
            assert result.length_f == 8
    elapsed = time.perf_counter() - start
    report(9, elapsed, f"100 draws: length <= 7, apolar; {general} general draws at length 8")


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    for length in range(4, 9):
        for n in (2, 3):
            expected = brute_force(length, n)
            got = {
                (tuple(c.hilbert), c.decomposition.rows)
                for c in admissible_decompositions(length, n)
            }
            assert got == expected, (length, n)
    for i in (1, 2, 3, 4):
        for value in range(0, 51):
            expansions = all_expansions(value, i)
            if value:
                assert len(expansions) == 1
                assert binomial_expansion(value, i).terms == expansions[0]
                shifted = sum(
                    _comb(m + 1, k + 1) for m, k in expansions[0]
                )
                assert macaulay_bound(value, i) == shifted
            else:
                assert macaulay_bound(0, i) == 0
    elapsed = time.perf_counter() - start
    report(10, elapsed, "enumerator and Macaulay bound agree with brute-force oracles")


def _comb(n: int, k: int) -> int:
    from math import comb

    return comb(n, k)
