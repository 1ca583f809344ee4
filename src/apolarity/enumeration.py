"""Exhaustive generation of admissible Hilbert functions with decompositions.

A candidate for length l in n variables is a strictly positive Hilbert
function H with H(0) = H(d) = 1, H(1) <= n, sum l, satisfying Macaulay
growth, together with a symmetric decomposition whose every partial sum
Delta_{<= alpha} is again an O-sequence (zero tails allowed there).  Socle
degrees below 3 are excluded: such algebras cannot carry a cubic tail and
play no role in the dimension comparison.

The search branches only where a choice exists, and each piece of work is
done once per process:

* H is 1, H(1) <= n, then a Macaulay tail.  The tails depend only on the
  previous value, its position, the sum left and the slots left, so
  `_TAILS` keeps them for every length, socle degree and n.
* Rows Delta_a, a >= 2, are built entry by entry by `_rows`, pruned by
  Macaulay growth as each entry is placed; `_CHAINS` keeps the row chains
  below each (a, remainder).
* Rows Delta_1 and Delta_0 are forced by their symmetries (`_last_rows`).
* A remainder below a placed row is searched only if it passes
  `_feasible`, the window bounds that the rows' symmetries and Delta_0 >= 1
  put on it, so most remainders with no chain are never stored.
* Each H's validated candidates are built once, and `_CHAINS` keeps them
  under H, so clearing it clears them too.

The nonsmoothable filter encodes three classification facts as
predicates, each naming Hilbert functions whose local Gorenstein algebras
are all smoothable:

* length <= 13: Casnati-Jelisiejew-Notari, Algebra & Number Theory 9
  (2015), the one fact the PASS of n = 7 and 8 needs;
* (1,a,b,c,...) with b <= 5 and c <= 2;
* length exactly 14 and H other than (1,6,6,1).

No source in this repository confirms the last two.  The rows the
verifier reports by default, and its PASS line, which it decides on those
rows, rest on them (see `nonsmoothable_filter`).
"""

from __future__ import annotations

from ._record import Record, setfield
from .hilbert import HilbertFunction, SymmetricDecomposition
from .macaulay import _step, is_o_sequence, macaulay_bound


class DecompositionCandidate(Record):
    """An admissible (H, Delta) pair at socle degree d."""

    __match_args__ = ("hilbert", "decomposition")

    def __init__(self, hilbert: HilbertFunction, decomposition: SymmetricDecomposition):
        setfield(self, "hilbert", hilbert)
        setfield(self, "decomposition", decomposition)

    @property
    def d(self) -> int:
        return self.decomposition.d

    def as_dict(self) -> dict:
        return {
            "H": list(self.hilbert),
            "deltas": [list(row) for row in self.decomposition.trimmed_rows()],
            "d": self.d,
        }


def nonsmoothable_filter(values) -> bool:
    """Whether H could belong to a nonsmoothable local Gorenstein algebra.

    False when a smoothability fact covers every algebra with Hilbert
    function H:

    * length <= 13 (Casnati-Jelisiejew-Notari, Algebra & Number Theory 9,
      2015: the Gorenstein locus of the Hilbert scheme of at most 13
      points is irreducible);
    * H(2) <= 5 and H(3) <= 2;
    * length 14 and H other than (1,6,6,1).

    The last two are stated without a source that anything in this
    repository confirms.  `verify_theorem` reports the candidates kept
    here and decides PASS on them, so its rows and its PASS line rest on
    those two facts; without the filter the verdicts for n = 7 and 8 are
    the same (`tests/test_bounds.py::TestUnfilteredVerdicts`).
    """
    values = tuple(values)
    length = sum(values)
    if length < 14:
        return False
    b = values[2] if len(values) > 2 else 0
    c = values[3] if len(values) > 3 else 0
    if b <= 5 and c <= 2:
        return False
    if length == 14 and values != (1, 6, 6, 1):
        return False
    return True


# (prev, i, left, slots) -> `_tails(prev, i, left, slots)`, keyed by ints and
# kept for the process; every argument is below the largest length asked for.
_TAILS: dict = {}


def _tails(prev: int, i: int, left: int, slots: int) -> tuple:
    """All (H(i+1), ..., H(i+slots)), slots >= 1, of positive values summing
    to `left` that grow from H(i) = prev by Macaulay steps, in lex order."""
    key = (prev, i, left, slots)
    tails = _TAILS.get(key)
    if tails is None:
        if slots == 1:
            tails = ((left,),) if 1 <= left <= macaulay_bound(prev, i) else ()
        else:
            high = min(left - slots + 1, macaulay_bound(prev, i))
            tails = tuple((v,) + tail for v in range(1, high + 1)
                          for tail in _tails(v, i + 1, left - v, slots - 1))
        _TAILS[key] = tails
    return tails


def _hilbert_candidates(length: int, n: int, d: int):
    """Strictly positive Macaulay-admissible H of socle degree d >= 3 with
    H(1) <= n, in lex order.  The final step into H(d) = 1 always holds."""
    interior = length - 2  # H(1) + ... + H(d - 1)
    for first in range(1, min(n, interior - d + 2) + 1):
        for tail in _tails(first, 1, interior - first, d - 2):
            yield (1, first) + tail + (1,)


def _rows(d: int, a: int, remainder: tuple) -> list:
    """The rows Delta_a, a >= 1, that leave an O-sequence under `remainder`,
    as (row, new remainder) pairs; no rejected row is built.

    Row a of width w = d - a is fixed by v_1, ..., v_free (free = w // 2),
    and v_i lowers remainder positions i and w - i.  Position 0 of every
    remainder is 1, since rows a >= 1 vanish there, so `is_o_sequence` of
    the new remainder is exactly the conjunction of its steps, and each is
    checked once, with final values: the steps past w are H's own, since
    the rows a' > a before it touch only positions <= w - 2, and H is an
    O-sequence; the step into i bounds v_i (from above by the remainder,
    from below by Macaulay growth when i >= 2); the step into w - i + 1 is
    final once v_i is placed, and the middle step (into free + 1) once
    v_free is.  So on the O-sequence remainders the program passes, these
    are the symmetric rows whose remainder `is_o_sequence` accepts, no more
    and no fewer, in no particular order.
    """
    out = []
    _place(1, d - a, list(remainder), [0] * (d + 1), out)
    return out


def _place(i: int, w: int, new: list, row: list, out: list) -> None:
    """Place v_i, then v_{i+1}, ..., of a row of width w (see `_rows`)."""
    j = w - i
    ri, rj, after = new[i], new[j], new[j + 1]
    low = max(0, ri - macaulay_bound(new[i - 1], i - 1)) if i > 1 else 0
    for v in range(low, min(ri, rj) + 1):
        if not _step(rj - v, after, j + 1):
            break  # Macaulay growth is monotone, so no larger v passes
        if j == i + 1 and not _step(ri - v, rj - v, j):
            continue  # the middle step of an odd width
        new[i], new[j] = ri - v, rj - v
        row[i] = row[j] = v
        if i == w // 2:
            out.append((tuple(row), tuple(new)))
        else:
            _place(i + 1, w, new, row, out)
    new[i], new[j] = ri, rj  # for the caller's next v; `row` is rewritten before use


def _last_rows(remainder: tuple) -> tuple:
    """The chains (Delta_0, Delta_1) summing to `remainder`: one or none.

    Delta_0 is symmetric about d/2 and Delta_1 about (d-1)/2 with
    Delta_1(0) = 0, so remainder(i) - remainder(d - i) = Delta_1(i) -
    Delta_1(i - 1) for i >= 1, and Delta_1 is the running sum of these
    differences.  That sum is symmetric about (d-1)/2 and vanishes at d - 1
    and d, and the remainder's ends are H(0) = H(d) = 1, so Delta_0 is a
    palindrome by construction.  What is left to check is what `_rows` and
    `_place` check: Delta_1 >= 0 and Delta_0 is an O-sequence.
    """
    d = len(remainder) - 1
    row = [0] * (d + 1)
    base = list(remainder)
    run = 0
    for i in range(1, d):
        run += remainder[i] - remainder[d - i]
        if run < 0:
            return ()
        row[i] = run
        base[i] -= run
    return ((tuple(base), tuple(row)),) if is_o_sequence(base) else ()


def _feasible(a: int, remainder: tuple) -> bool:
    """Whether the level-a remainder R = Delta_0 + ... + Delta_a, a >= 1,
    passes a necessary condition for having a chain: with T(i) = sum over
    k <= i of R(k) - R(d - k), every 1 <= i <= d - 1 has 0 <= T(i) <= the
    sum of R(k) - 1 over the window max(1, i - a + 1) <= k <= i.

    Delta_0 is symmetric about d/2, so it adds nothing to T.  Delta_b, b >=
    1, is symmetric about (d - b)/2, Delta_b(d - k) = Delta_b(k - b), and
    vanishes at k <= 0, so it adds the sum of Delta_b(k) - Delta_b(k - b)
    over 1 <= k <= i: the window of its b entries ending at i, which is
    nonnegative, so T(i) >= 0.  Rows are nonnegative and b <= a, so T(i) is
    at most the sum over the window of length a of R(k) - Delta_0(k).
    Delta_0 is an O-sequence with Delta_0(d) = 1, so Delta_0(k) >= 1 for k
    <= d, which gives the upper bound.  At a = 1, T is Delta_1 and the
    condition is exactly Delta_1(i) >= 0 and Delta_0(i) >= 1.
    """
    d = len(remainder) - 1
    run = window = 0
    for i in range(1, d):
        run += remainder[i] - remainder[d - i]
        window += remainder[i] - 1
        if i > a:
            window -= remainder[i - a] - 1
        if not 0 <= run <= window:
            return False
    return True


# (a, remainder) -> `_chains(a, remainder)`, and H -> `_candidates(H)`, keyed
# by ints and kept for the process, so it grows with the largest length
# asked for.  The keys cannot meet: a remainder pair has 2 items, H at least 4.
_CHAINS: dict = {}


def _chains(a: int, remainder: tuple) -> tuple:
    """All row chains (Delta_0, ..., Delta_a), a >= 1, summing to `remainder`.

    Every partial sum below Delta_a is the Hilbert function of a quotient
    Q(a), so the chains depend only on (a, remainder), not on the length,
    n or the filter: `_CHAINS` keeps them, dead ends as (), across calls.
    A remainder below Delta_a that fails `_feasible` has no chain and is
    neither searched nor stored; one already stored is not checked again.
    """
    key = (a, remainder)
    chains = _CHAINS.get(key)
    if chains is None:
        if a == 1:
            chains = _last_rows(remainder)
        else:
            chains = tuple(chain + (row,)
                           for row, new_remainder in _rows(len(remainder) - 1, a, remainder)
                           if (a - 1, new_remainder) in _CHAINS or _feasible(a - 1, new_remainder)
                           for chain in _chains(a - 1, new_remainder))
        _CHAINS[key] = chains
    return chains


def _candidates(h: tuple) -> tuple:
    """H's candidates, validated once and sorted by their rows; H itself is
    validated only when it has one."""
    candidates = _CHAINS.get(h)
    if candidates is None:
        d = len(h) - 1
        chains = sorted(_chains(d - 2, h))
        hilbert = HilbertFunction(h) if chains else None
        candidates = _CHAINS[h] = tuple(
            DecompositionCandidate(hilbert, SymmetricDecomposition(d=d, rows=rows))
            for rows in chains)
    return candidates


def admissible_decompositions(length: int, n: int, nonsmoothable_only: bool = False) -> list:
    """All admissible (H, Delta) candidates of the given length.

    Complete and duplicate-free over socle degrees 3 <= d <= length - 1,
    sorted by socle degree, then H lexicographically, then the row matrix
    lexicographically: the order in which they are generated.
    """
    if length < 1 or n < 1:
        raise ValueError("length and n must be positive")
    candidates = []
    for d in range(3, length):
        for h in _hilbert_candidates(length, n, d):
            if not nonsmoothable_only or nonsmoothable_filter(h):
                candidates.extend(_candidates(h))
    return candidates
