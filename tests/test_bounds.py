"""Dimension bounds and the cactus-rank verifier."""

from __future__ import annotations

import hashlib
import json
from math import comb

import pytest

from apolarity import bounds
from apolarity.bounds import (
    c_bound,
    d_flag,
    d_infty,
    v_bound,
    verify_theorem,
    w_bound,
)
from apolarity.enumeration import admissible_decompositions
from apolarity.hilbert import SymmetricDecomposition, embedding_dims

WORKED = SymmetricDecomposition(
    d=6,
    rows=((1, 1, 1, 1, 1, 1, 1), (0,) * 7, (0, 3, 4, 3, 0, 0, 0), (0,) * 7, (0,) * 7),
)
TRIVIAL_1661 = SymmetricDecomposition(d=3, rows=((1, 6, 6, 1), (0, 0, 0, 0)))


class TestScalarBounds:
    def test_c_values(self):
        assert c_bound(7) == 15
        assert c_bound(8) == 18
        assert c_bound(4) == min(-(-35 // 5), 10) == 7

    def test_w_table(self):
        assert [w_bound(l, 8) for l in (14, 15, 16, 17)] == [130, 139, 148, 157]
        assert w_bound(14, 7) == 113
        assert w_bound(17, 8) == comb(11, 3) - 8

    def test_w_at_top_length(self):
        for n in (4, 5, 6, 7, 8, 9):
            assert w_bound(c_bound(n) - 1, n) == comb(n + 3, 3) - n

    def test_smallest_n(self):
        assert c_bound(1) == min(-(-4 // 2), 4) == 2
        with pytest.raises(ValueError):
            c_bound(0)

    def test_w_at_length_1(self):
        # the smallest length in range, where 1 <= length is an equality
        assert w_bound(1, 8) == comb(11, 3) - 8 - 9 * (18 - 1 - 1) == 13
        assert w_bound(1, 1) == comb(4, 3) - 1 - 2 * (2 - 1 - 1) == 3

    def test_w_range_is_named(self):
        with pytest.raises(ValueError, match=r"^length must lie in 1\.\.17 for n = 8$"):
            w_bound(18, 8)

    def test_w_range_errors(self):
        with pytest.raises(ValueError):
            w_bound(0, 8)
        with pytest.raises(ValueError):
            w_bound(18, 8)


class TestExoticAndFlagDimensions:
    def test_pure_first_row_gives_zero(self):
        dec = SymmetricDecomposition(d=3, rows=((1, 4, 4, 1), (0, 0, 0, 0)))
        assert d_infty(dec, 4) == 0
        assert d_flag(dec, 4) == 0

    def test_worked_example_totals(self):
        assert d_infty(WORKED, 8) == 51
        assert d_flag(WORKED, 8) == 19

    def test_trivial_length_14(self):
        assert d_infty(TRIVIAL_1661, 7) == (7 - 6) * 6 + (7 - 6)
        assert d_flag(TRIVIAL_1661, 7) == 6 * (7 - 6)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            d_infty(TRIVIAL_1661, 5)
        with pytest.raises(ValueError):
            d_flag(TRIVIAL_1661, 5)

    def test_n_is_checked_against_h1_not_the_row_below(self):
        # embedding dims (7, 8): n = 7 is enough for n_{d-3}, not for H(1)
        dec = SymmetricDecomposition(d=3, rows=((1, 7, 7, 1), (0, 1, 0, 0)))
        assert embedding_dims(dec) == (7, 8)
        for bound in (d_infty, d_flag):
            with pytest.raises(ValueError, match=r"n = 7 is smaller than H\(1\) = 8"):
                bound(dec, 7)


class TestVBound:
    def test_worked_105(self):
        report = v_bound(WORKED, 8)
        assert report.v == 105
        assert report.d_flag == 19
        assert report.v_theta == 86
        assert report.embedding == (1, 1, 4, 4, 4)

    def test_trivial_97_and_110(self):
        assert v_bound(TRIVIAL_1661, 7).v == 97
        assert v_bound(TRIVIAL_1661, 8).v == 110

    def test_extremal_candidates_hand_checked(self):
        # (1,7,7,1) at n = 8: 84 + 28 + 9 + 7 + 7
        dec = SymmetricDecomposition(d=3, rows=((1, 7, 7, 1), (0, 0, 0, 0)))
        assert v_bound(dec, 8).v == 135
        # (1,6,6,1,1) at n = 8: 56 + 21 + 9 + 12 + 12 + 7
        dec2 = SymmetricDecomposition(
            d=4,
            rows=((1, 1, 1, 1, 1), (0, 5, 5, 0, 0), (0, 0, 0, 0, 0)),
        )
        assert v_bound(dec2, 8).v == 117

    def test_unsimplified_sum_agrees(self):
        # re-derive the closed form from its definition, term by term
        for n in (7, 8, 9):
            for length in (14, 15):
                for candidate in admissible_decompositions(length, n):
                    dec = candidate.decomposition
                    d = dec.d
                    dims = embedding_dims(dec)
                    h = dec.hilbert()
                    exotic_sum = sum(
                        (n - dims[i]) * sum(dec.entry(j, d - i - 1) for j in range(i))
                        for i in range(1, d - 1)
                    )
                    flag = sum(dec.entry(j, 1) * (n - dims[j]) for j in range(d - 1))
                    unsimplified = (
                        comb(dims[d - 3] + 2, 3)
                        + comb(dims[d - 2] + 1, 2)
                        + n
                        + 1
                        + exotic_sum
                        + flag
                    )
                    report = v_bound(dec, n)
                    assert report.v == unsimplified
                    assert report.v == report.v_theta + report.d_flag

    def test_monotone_in_n(self):
        for candidate in admissible_decompositions(14, 7):
            previous = None
            for n in range(7, 11):
                value = v_bound(candidate.decomposition, n).v
                if previous is not None:
                    assert value >= previous
                previous = value

    def test_low_socle_degree_rejected(self):
        dec = SymmetricDecomposition(d=2, rows=((1, 3, 1),))
        with pytest.raises(ValueError):
            v_bound(dec, 4)


class TestVerifyTheorem:
    def test_n7(self):
        report = verify_theorem(7)
        assert report.passed
        assert report.cactus_rank == 15
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.hilbert == (1, 6, 6, 1)
        assert row.v == 97 and row.threshold == 113 and row.margin == 16
        assert report.worst_margin == 16

    def test_n8(self):
        report = verify_theorem(8)
        assert report.passed
        assert report.cactus_rank == 18
        assert all(row.margin > 0 for row in report.rows)
        # thresholds at l = r reproduce the comparison table
        base = {row.r: row.threshold for row in report.rows if row.l == row.r}
        assert base == {14: 157, 15: 157, 16: 157, 17: 157}
        # margins against the published per-length targets
        for row in report.rows:
            if row.l == 17:
                assert row.threshold == w_bound(row.r, 8)

    def test_n8_extremal_observation(self):
        report = verify_theorem(8)
        for r, (h, matches) in report.conjectured_extremal.items():
            assert matches, (r, h)

    def test_filter_disabled_still_reports(self):
        report = verify_theorem(7, nonsmoothable_only=False)
        assert not report.filtered
        assert len(report.rows) > 1
        assert report.worst_margin is not None


class TestVerdictComparison:
    """The verdict and `max_v_by_length` with `_v` replaced by a constant,
    so that the comparisons meet their edge cases."""

    @staticmethod
    def constant_v(monkeypatch, v):
        monkeypatch.setattr(bounds, "_v", lambda decomposition, n, h: (v,))

    @pytest.mark.parametrize("v,passed", [(113, False), (112, True), (114, False)])
    def test_a_zero_margin_fails(self, monkeypatch, v, passed):
        # n = 7 has one row, threshold 113: margin 0 fails, margin 1 passes
        self.constant_v(monkeypatch, v)
        report = verify_theorem(7)
        assert [row.margin for row in report.rows] == [113 - v]
        assert report.passed is passed

    def test_max_v_keeps_the_first_of_equal_candidates(self, monkeypatch):
        self.constant_v(monkeypatch, 1)
        report = verify_theorem(8)
        several = []
        for r, (h, v) in report.max_v_by_length.items():
            candidates = admissible_decompositions(r, 8, nonsmoothable_only=True)
            assert (h, v) == (candidates[0].hilbert.values, 1)
            if len({c.hilbert.values for c in candidates}) > 1:
                several.append(r)
        assert several == [15, 16, 17]  # r = 14 has only (1, 6, 6, 1)


class TestInformationalReports:
    """Full verifier reports outside the paper's range, pinned by digest.

    The digests are sha256 of the sorted-key JSON of `as_dict()`, recorded
    with the closure-based enumerator that searched every H separately.
    """

    @pytest.mark.parametrize("n,rows,worst,digest", [
        (9, 2393, 19, "c8bf80e94964375b89f1d448d12a9c00d07dc5033879639dfe743f9814f416ef"),
        (10, 7584, 26, "0656523ea589b5e390a1c982453386f6f9e7203e103aa5245d010ee88bea4f6d"),
    ])
    def test_report_digest(self, n, rows, worst, digest):
        report = verify_theorem(n)
        assert not report.in_scope
        assert len(report.rows) == rows
        assert report.worst_margin == worst
        payload = json.dumps(report.as_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestUnfilteredVerdicts:
    """The paper's PASS without the nonsmoothable filter, pinned by digest.

    The filter only removes candidates, so these runs show that the verdict
    needs only the fact that Gorenstein schemes of length <= 13 are
    smoothable.  Digests are sha256 of the sorted-key JSON of `as_dict()`.
    """

    @pytest.mark.parametrize("n,rows,worst,rank,digest", [
        (7, 101, 16, 15, "a3a3b06b230b8c4043e4d5c6b344174d028f8315131ce73ea8ab63f70708a874"),
        (8, 1653, 13, 18, "a4dd0ae3800fea2c667619619840ee2679f41fe76548b3c938ab3c487839bf52"),
    ])
    def test_report_digest(self, n, rows, worst, rank, digest):
        report = verify_theorem(n, nonsmoothable_only=False)
        assert report.in_scope
        assert not report.filtered
        assert report.passed
        assert report.cactus_rank == rank
        assert len(report.rows) == rows
        assert report.worst_margin == worst
        payload = json.dumps(report.as_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest
