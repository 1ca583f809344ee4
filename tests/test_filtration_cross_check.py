"""Cross-validation of the double-filtration dimension table.

The decomposition machinery counts dim(Diff(f)_i ∩ O_j) by reading pivot
degrees off level snapshots of one incremental reduction.  Here the same
dimensions are recomputed the slow way: materialize both subspaces and
intersect them with an explicit kernel computation, in spans that share
no code with the library's elimination kernel.
"""

from __future__ import annotations

from fractions import Fraction

from apolarity.apolar import diff_space
from apolarity.poly import DUAL, Polynomial, contract, monomials_up_to, parse

from conftest import BackSubstitutingSpan, random_polynomial


def explicit_m_table(f: Polynomial, i: int, j: int) -> int:
    """dim(Diff_i ∩ O_j) via dim A + dim B - dim(A + B)."""
    degree_span = BackSubstitutingSpan()
    order_span = BackSubstitutingSpan()
    joint_span = BackSubstitutingSpan()
    top = int(f.degree())
    for alpha in monomials_up_to(f.nvars, top):
        image = contract(Polynomial.monomial(alpha, Fraction(1), DUAL), f)
        if image.is_zero():
            continue
        if sum(alpha) >= j:
            order_span.insert(dict(image.terms))
            joint_span.insert(dict(image.terms))
    # Diff_i basis: echelon rows of Diff(f) with pivot degree <= i
    space = diff_space(f)
    for row, degree in zip(space.rows, space.degrees):
        if degree <= i:
            degree_span.insert(dict(row.terms))
            joint_span.insert(dict(row.terms))
    return degree_span.dim + order_span.dim - joint_span.dim


class TestMTableAgainstExplicitIntersection:
    def test_worked_sextic(self):
        f = parse("x1^6 + x1^3*x2", 2)
        space = diff_space(f)
        d = space.socle_degree
        for i in range(d + 1):
            for j in range(d + 2):
                assert space.m_table(i, j) == explicit_m_table(f, i, j), (i, j)

    def test_random_instances(self, rng):
        for _ in range(8):
            f = random_polynomial(rng, rng.randint(1, 3), rng.randint(1, 5), max_terms=3)
            space = diff_space(f)
            d = space.socle_degree
            for i in range(d + 1):
                for j in range(d + 2):
                    assert space.m_table(i, j) == explicit_m_table(f, i, j), (
                        str(f), i, j,
                    )

    def test_monotonicity(self, rng):
        for _ in range(10):
            f = random_polynomial(rng, 3, 4, max_terms=4)
            space = diff_space(f)
            d = space.socle_degree
            for i in range(d + 1):
                for j in range(d + 1):
                    assert space.m_table(i, j) >= space.m_table(i, j + 1)
                    assert space.m_table(i, j) >= space.m_table(i - 1, j)

    def test_boundary_values(self, rng):
        f = random_polynomial(rng, 2, 4)
        space = diff_space(f)
        d = space.socle_degree
        assert space.m_table(d, 0) == space.dim
        assert space.m_table(-1, 0) == 0
        assert space.m_table(d, d + 1) == 0
        # partials of order >= j have degree <= d - j
        for j in range(d + 1):
            assert space.m_table(d - j, j) == space.m_table(d, j)
