"""Admissible decomposition enumeration against an independent brute force."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from apolarity import enumeration
from apolarity.bounds import verify_theorem
from apolarity.enumeration import (
    _feasible,
    _hilbert_candidates,
    _last_rows,
    _rows,
    admissible_decompositions,
    nonsmoothable_filter,
)
from apolarity.hilbert import HilbertFunction, SymmetricDecomposition, symmetric_decomposition
from apolarity.macaulay import is_o_sequence
from apolarity.poly import parse


def brute_force(length: int, n: int):
    """Independent generator: cross product of symmetric rows, post-filtered.

    Builds every table row by row (including row 0) from all symmetric
    candidates bounded cellwise by H, then keeps tables whose columns sum
    to H and whose partial sums all satisfy Macaulay growth.
    """
    results = set()
    for d in range(3, length):
        for h in _compositions(length, d, n):
            row_choices = []
            for a in range(d - 1):
                row_choices.append(_symmetric_rows_bounded(d, a, h))
            for rows in itertools.product(*row_choices):
                if rows[0][0] != 1 or rows[0][d] != 1:
                    continue
                if any(sum(col) != target for col, target in zip(zip(*rows), h)):
                    continue
                running = [0] * (d + 1)
                ok = True
                for row in rows:
                    running = [x + y for x, y in zip(running, row)]
                    if not is_o_sequence(running):
                        ok = False
                        break
                if ok:
                    results.add((h, rows))
    return results


def _compositions(length: int, d: int, n: int):
    interior = length - 2
    slots = d - 1
    if interior < slots:
        return
    for cuts in itertools.combinations(range(interior - 1), slots - 1):
        parts = []
        previous = -1
        for cut in cuts:
            parts.append(cut - previous)
            previous = cut
        parts.append(interior - 1 - previous)
        h = (1,) + tuple(parts) + (1,)
        if h[1] <= n and is_o_sequence(h, strictly_positive=True):
            yield h


def _symmetric_rows_bounded(d: int, a: int, h):
    width = d - a
    rows = []
    free = width // 2
    ranges = []
    for i in range(1, free + 1):
        ranges.append(range(0, min(h[i], h[width - i]) + 1))
    for values in itertools.product(*ranges) if free else [()]:
        row = [0] * (d + 1)
        if a == 0:
            row[0] = row[width] = 1
        for i, v in enumerate(values, start=1):
            row[i] = v
            row[width - i] = v
        rows.append(tuple(row))
    return rows


class TestAgainstBruteForce:
    @pytest.mark.parametrize("length,n", [(4, 3), (5, 2), (6, 3), (7, 3), (8, 3), (8, 2)])
    def test_identical_output_sets(self, length, n):
        expected = brute_force(length, n)
        got = {
            (tuple(c.hilbert), c.decomposition.rows)
            for c in admissible_decompositions(length, n)
        }
        assert got == expected


def _symmetric_rows(d: int, a: int, ceiling):
    """All symmetric candidate rows Delta_a bounded entrywise by `ceiling`."""
    width = d - a
    free = width // 2  # indices 1..free determine the row
    if free == 0:
        yield (0,) * (d + 1)
        return
    ranges = []
    for i in range(1, free + 1):
        mirror = width - i
        ranges.append(range(min(ceiling[i], ceiling[mirror]) + 1))
    for values in itertools.product(*ranges):
        row = [0] * (d + 1)
        for i, v in enumerate(values, start=1):
            row[i] = v
            row[width - i] = v
        yield tuple(row)


def _decompositions_for(h: tuple):
    """All valid symmetric decompositions of H with socle degree >= 3."""
    d = len(h) - 1
    results = []

    def descend(a: int, remainder: tuple, chosen: list):
        if a == 0:
            row0 = remainder
            if row0[0] != 1 or row0[d] != 1:
                return
            if any(row0[i] != row0[d - i] for i in range(d + 1)):
                return
            rows = [row0] + list(reversed(chosen))
            results.append(SymmetricDecomposition(d=d, rows=tuple(rows)))
            return
        for row in _symmetric_rows(d, a, remainder):
            new_remainder = tuple(r - v for r, v in zip(remainder, row))
            if any(v < 0 for v in new_remainder):
                continue
            if not is_o_sequence(new_remainder):
                continue
            chosen.append(row)
            descend(a - 1, new_remainder, chosen)
            chosen.pop()

    descend(d - 2, h, [])
    return results


def unshared_descent(length: int, n: int):
    """Reference enumerator: one independent row-chain search per H, no memo.

    `_decompositions_for` above is the closure-based search the enumerator
    used before the row chains were shared across Hilbert functions.
    """
    return {
        (h, dec.rows)
        for d in range(3, length)
        for h in _hilbert_candidates(length, n, d)
        for dec in _decompositions_for(h)
    }


class TestAgainstUnsharedDescent:
    @pytest.mark.parametrize("length,n", [(14, 8), (15, 8), (16, 8), (17, 8), (15, 9)])
    def test_identical_output_sets(self, length, n):
        candidates = admissible_decompositions(length, n)
        got = {(tuple(c.hilbert), c.decomposition.rows) for c in candidates}
        assert len(got) == len(candidates)
        assert got == unshared_descent(length, n)


class TestRowBuilder:
    def test_rows_match_filtered_symmetric_rows(self):
        # every d <= 6, a in 1..d-2 and O-sequence remainder
        # (1, m_1, ..., m_{d-1}, 1) with m_i in 0..4, the only remainders
        # the search passes: the rows `_rows` builds are the symmetric rows
        # whose new remainder `is_o_sequence` accepts
        cases = 0
        for d in range(3, 7):
            for a in range(1, d - 1):
                for middle in itertools.product(range(5), repeat=d - 1):
                    remainder = (1,) + middle + (1,)
                    if not is_o_sequence(remainder):
                        continue
                    expected = set()
                    for row in _symmetric_rows(d, a, remainder):
                        new_remainder = tuple(r - v for r, v in zip(remainder, row))
                        if is_o_sequence(new_remainder):
                            expected.add((row, new_remainder))
                    got = _rows(d, a, remainder)
                    assert len(got) == len(set(got)), (d, a, remainder)
                    assert set(got) == expected, (d, a, remainder)
                    cases += 1
        assert cases == 725

    @pytest.mark.parametrize("length", [14, 15, 16, 17])
    def test_program_passes_only_o_sequence_remainders(self, length, monkeypatch):
        seen = []

        def recording_rows(d, a, remainder):
            seen.append(remainder)
            return _rows(d, a, remainder)

        monkeypatch.setattr(enumeration, "_rows", recording_rows)
        monkeypatch.setattr(enumeration, "_CHAINS", {})  # a warm memo calls no `_rows`
        admissible_decompositions(length, 8)
        assert seen
        assert all(is_o_sequence(remainder) for remainder in seen)


def _o_sequence_remainders(d: int):
    """Every O-sequence (1, m_1, ..., m_{d-1}, 1) with m_i in 0..4."""
    for middle in itertools.product(range(5), repeat=d - 1):
        remainder = (1,) + middle + (1,)
        if is_o_sequence(remainder):
            yield remainder


def _level_one_by_row_builder(remainder: tuple) -> set:
    """The chains (Delta_0, Delta_1) the row builder finds: its rows Delta_1
    whose remainder, Delta_0, is a palindrome."""
    d = len(remainder) - 1
    return {(new, row) for row, new in _rows(d, 1, remainder) if new == new[::-1]}


def _run_the_program(monkeypatch, prune: bool) -> dict:
    """`_CHAINS` after a cold `verify_theorem(7..9)` and every length up to
    18 at n = 9, which covers every n <= 9; without `prune`, `_feasible`
    passes every remainder."""
    monkeypatch.setattr(enumeration, "_CHAINS", {})
    if not prune:
        monkeypatch.setattr(enumeration, "_feasible", lambda a, remainder: True)
    for n in (7, 8, 9):
        verify_theorem(n)
    for length in range(3, 19):
        admissible_decompositions(length, 9)
    return enumeration._CHAINS


def _level_one_remainders(monkeypatch, prune: bool) -> list:
    return [key[1] for key in _run_the_program(monkeypatch, prune)
            if len(key) == 2 and key[0] == 1]


class TestLastRows:
    """Delta_1 and Delta_0 in closed form against `_rows(d, 1, .)` and the
    palindrome test that they replace."""

    @staticmethod
    def check(remainder):
        got = _last_rows(remainder)
        assert len(got) <= 1, remainder
        assert set(got) == _level_one_by_row_builder(remainder), remainder
        return len(got)

    def test_every_small_o_sequence_remainder(self):
        cases = accepted = 0
        for d in range(3, 7):
            for remainder in _o_sequence_remainders(d):
                accepted += self.check(remainder)
                cases += 1
        assert (cases, accepted) == (221, 68)

    def test_feasible_at_level_one_is_positive_delta_0(self):
        # at a = 1 the window bounds say Delta_1, the running sum of R(i) -
        # R(d - i), is at least 0 inside and Delta_0 = R - Delta_1 at least 1
        cases = feasible = 0
        for d in range(3, 7):
            for remainder in _o_sequence_remainders(d):
                run, positive = 0, True
                for i in range(1, d):
                    run += remainder[i] - remainder[d - i]
                    positive = positive and run >= 0 and remainder[i] - run >= 1
                got = _feasible(1, remainder)
                assert got == positive, remainder
                feasible += got
                cases += 1
        # the 68 remainders with a chain are among the 109 that pass
        assert (cases, feasible) == (221, 109)

    def test_every_remainder_the_program_reaches(self, monkeypatch):
        # the unpruned search, which reaches every remainder the rows allow
        reached = _level_one_remainders(monkeypatch, prune=False)
        accepted = sum(self.check(remainder) for remainder in reached)
        assert (len(reached), accepted) == (1806, 203)

    def test_the_pruned_search_reaches_the_same_chains(self, monkeypatch):
        reached = _level_one_remainders(monkeypatch, prune=True)
        accepted = sum(self.check(remainder) for remainder in reached)
        assert (len(reached), accepted) == (403, 203)


class TestTailMemo:
    """H from the memo of Macaulay tails against filtered compositions."""

    def test_matches_filtered_compositions(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_TAILS", {})
        total = 0
        for length in range(1, 17):
            for d in range(3, length):
                every = sorted(_compositions(length, d, 9))
                for n in range(1, 10):
                    got = list(_hilbert_candidates(length, n, d))
                    assert got == [h for h in every if h[1] <= n], (length, n, d)
                    total += len(got)
        assert total == 4242


class TestCandidateMemo:
    """Each (H, Delta) is built and validated once per process."""

    @staticmethod
    def counting(monkeypatch, built):
        real = enumeration.SymmetricDecomposition

        def counted(**fields):
            built.append(fields["rows"])
            return real(**fields)

        monkeypatch.setattr(enumeration, "SymmetricDecomposition", counted)
        monkeypatch.setattr(enumeration, "_CHAINS", {})

    def test_each_candidate_is_built_once(self, monkeypatch):
        built = []
        self.counting(monkeypatch, built)
        first = admissible_decompositions(17, 8)
        assert len(built) == len(first) == 322
        admissible_decompositions(17, 8, nonsmoothable_only=True)
        admissible_decompositions(17, 7)
        assert len(built) == 322
        wider = admissible_decompositions(17, 9)
        assert len(built) == len(wider)  # only those with H(1) = 9 are new
        shared = {id(c) for c in wider}
        assert all(id(c) in shared for c in first)

    def test_clearing_the_chain_memo_clears_them(self, monkeypatch):
        built = []
        self.counting(monkeypatch, built)
        first = admissible_decompositions(15, 8)
        monkeypatch.setattr(enumeration, "_CHAINS", {})
        again = admissible_decompositions(15, 8)
        assert again == first
        assert len(built) == 2 * len(first)
        assert all(a is not b for a, b in zip(first, again))


class TestWorkCounts:
    """Deterministic counts of the work of one cold verifier pass, which
    show changes that its timings on a shared host cannot resolve."""

    def test_verify_theorem_9(self, monkeypatch):
        levels = []
        hilbert_functions = [0]
        checked = [0]
        validate = HilbertFunction.__post_init__

        def counting_rows(d, a, remainder):
            levels.append(a)
            return _rows(d, a, remainder)

        def counting_feasible(a, remainder):
            checked[0] += 1
            return _feasible(a, remainder)

        def counting_validate(self):
            hilbert_functions[0] += 1
            validate(self)

        monkeypatch.setattr(enumeration, "_rows", counting_rows)
        monkeypatch.setattr(enumeration, "_feasible", counting_feasible)
        monkeypatch.setattr(enumeration, "_CHAINS", {})
        monkeypatch.setattr(enumeration, "_TAILS", {})
        monkeypatch.setattr(HilbertFunction, "__post_init__", counting_validate)
        verify_theorem(9)
        # a remainder already in `_CHAINS` is not checked again (5,635 checks
        # when every one was)
        assert checked[0] == 3773
        # one per H, built with its candidates; v reads them, builds none
        assert hilbert_functions[0] == 665  # an H with no chain is never built
        assert 1 not in levels  # Delta_1 is solved, not searched
        assert len(levels) == 2494
        stored = Counter(key[0] if len(key) == 2 else "H" for key in enumeration._CHAINS)
        assert 0 not in stored
        assert (stored["H"], stored[1], len(enumeration._CHAINS)) == (1006, 331, 3831)
        dead = [key for key, chains in enumeration._CHAINS.items() if len(key) == 2 and not chains]
        assert len(dead) == 1261
        assert len(enumeration._TAILS) == 1859


class TestFeasibleIsSound:
    """`_feasible` is a necessary condition: in the unpruned search, every
    remainder that has a chain passes it, and so does every H with one."""

    def test_every_live_remainder_passes(self, monkeypatch):
        chains = _run_the_program(monkeypatch, prune=False)
        live, dead = [], []
        for key, found in chains.items():
            # an H is the remainder at level d - 2
            (live if found else dead).append(key if len(key) == 2 else (len(key) - 3, key))
        assert all(_feasible(a, remainder) for a, remainder in live)
        rejected = sum(not _feasible(a, remainder) for a, remainder in dead)
        assert (len(live), len(dead), rejected) == (3971, 6130, 4274)


class TestChainMemo:
    """The process-wide `_CHAINS` memo changes no output, only the work."""

    GRID = [(14, 7, True), (15, 8, False), (17, 8, False), (16, 9, True)]

    @staticmethod
    def payload(length, n, filtered):
        return [c.as_dict() for c in admissible_decompositions(length, n, filtered)]

    def test_output_does_not_depend_on_memo_state(self, monkeypatch):
        cold = {}
        for case in self.GRID:
            monkeypatch.setattr(enumeration, "_CHAINS", {})
            cold[case] = self.payload(*case)
        monkeypatch.setattr(enumeration, "_CHAINS", {})
        verify_theorem(9)
        for length in (13, 16, 18):
            admissible_decompositions(length, 8)
        assert enumeration._CHAINS
        for case in self.GRID:
            assert self.payload(*case) == cold[case], case

    def test_repeat_call_builds_no_rows(self, monkeypatch):
        calls = []

        def counting_rows(d, a, remainder):
            calls.append((d, a, remainder))
            return _rows(d, a, remainder)

        monkeypatch.setattr(enumeration, "_rows", counting_rows)
        monkeypatch.setattr(enumeration, "_CHAINS", {})
        first = self.payload(16, 8, False)
        assert calls
        calls.clear()
        assert self.payload(16, 8, False) == first
        self.payload(16, 7, True)  # a smaller n and the filter ask only for stored chains
        assert calls == []

    @pytest.mark.parametrize("length", [14, 15, 16, 17])
    @pytest.mark.parametrize("n", [7, 8])
    def test_n_only_caps_h1(self, length, n, monkeypatch):
        # why n is not part of the memo key: the candidates for n are exactly
        # those for n + 1 whose H(1) is at most n
        def pairs(m):
            monkeypatch.setattr(enumeration, "_CHAINS", {})
            return {(tuple(c.hilbert), c.decomposition.rows)
                    for c in admissible_decompositions(length, m)}

        wider = pairs(n + 1)
        assert pairs(n) == {(h, rows) for h, rows in wider if h[1] <= n}
        assert any(h[1] == n + 1 for h, _ in wider)


class TestWorkedInstances:
    def test_length_17_restriction(self):
        candidates = admissible_decompositions(17, 8)
        selected = [c for c in candidates if c.hilbert[1] == 8 and c.hilbert[2] >= 5]
        rows = [(tuple(c.hilbert), c.decomposition.rows) for c in selected]
        assert rows == [
            ((1, 8, 7, 1), ((1, 7, 7, 1), (0, 1, 0, 0))),
            ((1, 8, 5, 2, 1), ((1, 2, 2, 2, 1), (0, 3, 3, 0, 0), (0, 3, 0, 0, 0))),
            ((1, 8, 5, 2, 1), ((1, 2, 3, 2, 1), (0, 2, 2, 0, 0), (0, 4, 0, 0, 0))),
            ((1, 8, 6, 1, 1), ((1, 1, 1, 1, 1), (0, 5, 5, 0, 0), (0, 2, 0, 0, 0))),
            ((1, 8, 5, 1, 1, 1), (
                (1, 1, 1, 1, 1, 1), (0, 0, 0, 0, 0, 0), (0, 4, 4, 0, 0, 0), (0, 3, 0, 0, 0, 0),
            )),
        ]

    def test_length_14_unique_nonsmoothable(self):
        only = admissible_decompositions(14, 7, nonsmoothable_only=True)
        assert len(only) == 1
        assert tuple(only[0].hilbert) == (1, 6, 6, 1)
        assert only[0].decomposition.rows == ((1, 6, 6, 1), (0, 0, 0, 0))

    def test_small_length_empty(self):
        assert admissible_decompositions(4, 3, nonsmoothable_only=True) == []
        assert admissible_decompositions(1, 1) == []

    @pytest.mark.parametrize("length,n", [(0, 1), (1, 0)])
    def test_length_and_n_must_be_positive(self, length, n):
        with pytest.raises(ValueError):
            admissible_decompositions(length, n)

    def test_sorted_deterministically(self):
        candidates = admissible_decompositions(15, 8)
        keys = [(c.d, tuple(c.hilbert), c.decomposition.rows) for c in candidates]
        assert keys == sorted(keys)


class TestSoundness:
    def test_candidates_revalidate(self):
        for candidate in admissible_decompositions(14, 8, nonsmoothable_only=True):
            h = tuple(candidate.hilbert)
            assert sum(h) == 14
            assert h[1] <= 8
            assert is_o_sequence(h, strictly_positive=True)
            running = [0] * (candidate.d + 1)
            for row in candidate.decomposition.rows:
                running = [x + y for x, y in zip(running, row)]
                assert is_o_sequence(running)
            assert tuple(running) == h

    def test_worked_polynomials_appear(self):
        # decompositions computed from actual polynomials occur in the list
        for text, nvars in (
            ("x1^6 + x1^3*x2", 2),
            ("x1^7 + x2^6 + x1^2*x2^2", 2),
            ("x1^2*x2 + x2^2", 2),
        ):
            f = parse(text, nvars)
            dec = symmetric_decomposition(f)
            length = sum(dec.hilbert())
            matches = [
                c
                for c in admissible_decompositions(length, nvars)
                if c.decomposition.rows == dec.rows
            ]
            assert matches, text

    def test_random_realized_decompositions_appear(self, rng):
        # realization closure on random instances of enumerable size
        from conftest import random_polynomial

        checked = 0
        while checked < 15:
            f = random_polynomial(rng, rng.randint(1, 3), rng.randint(3, 5), max_terms=3)
            dec = symmetric_decomposition(f)
            length = sum(dec.hilbert())
            if dec.d < 3 or length > 12:
                continue
            checked += 1
            matches = [
                c
                for c in admissible_decompositions(length, f.nvars)
                if c.decomposition.rows == dec.rows
            ]
            assert matches, str(f)


class TestNonsmoothableFilter:
    def test_known_values(self):
        assert nonsmoothable_filter((1, 6, 6, 1))
        assert not nonsmoothable_filter((1, 8, 5, 2, 1))  # b = 5, c = 2
        assert not nonsmoothable_filter((1, 6, 5, 1))  # length 13
        assert not nonsmoothable_filter((1, 3, 6, 3, 1))  # length 14, wrong shape
        assert nonsmoothable_filter((1, 6, 6, 1, 1))  # length 15, b = 6
        assert nonsmoothable_filter((1, 5, 5, 3, 1))  # length 15, c = 3
        assert not nonsmoothable_filter((1, 12, 1))  # length 14, socle degree 2

    def test_all_length_13_rejected(self):
        for c in admissible_decompositions(13, 8):
            assert not nonsmoothable_filter(tuple(c.hilbert))
