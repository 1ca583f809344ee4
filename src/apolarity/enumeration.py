"""Exhaustive generation of admissible Hilbert functions with decompositions.

A candidate for length l in n variables is a strictly positive Hilbert
function H with H(0) = H(d) = 1, H(1) <= n, sum l, satisfying Macaulay
growth, together with a symmetric decomposition whose every partial sum
Delta_{<= alpha} is again an O-sequence (zero tails allowed there).  Socle
degrees below 3 are excluded: such algebras cannot carry a cubic tail and
play no role in the dimension comparison.

The nonsmoothable filter encodes two known classification facts as
predicates: every local Gorenstein algebra of length <= 13 is smoothable,
and so is every one with Hilbert function (1,a,b,c,...) when b <= 5 and
c <= 2; at length exactly 14 the nonsmoothable ones all have Hilbert
function (1,6,6,1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hilbert import HilbertFunction, SymmetricDecomposition
from .macaulay import _step, macaulay_bound


@dataclass(frozen=True)
class DecompositionCandidate:
    """An admissible (H, Delta) pair at socle degree d."""

    hilbert: HilbertFunction
    decomposition: SymmetricDecomposition

    @property
    def d(self) -> int:
        return self.decomposition.d

    def sort_key(self):
        return (self.d, tuple(self.hilbert), self.decomposition.rows)

    def as_dict(self) -> dict:
        return {
            "H": list(self.hilbert),
            "deltas": [list(row) for row in self.decomposition.trimmed_rows()],
            "d": self.d,
        }


def nonsmoothable_filter(values) -> bool:
    """Whether H could belong to a nonsmoothable local Gorenstein algebra."""
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


def _hilbert_candidates(length: int, n: int, d: int):
    """Strictly positive Macaulay-admissible H of socle degree d >= 3.

    `fill` enforces every Macaulay growth step and keeps every entry >= 1.
    """
    interior = length - 2
    slots = d - 1
    if interior < slots:
        return

    def fill(prefix, remaining, index):
        if index == slots:
            if remaining == 0:
                yield tuple(prefix)
            return
        low = 1
        high = remaining - (slots - index - 1)
        if index == 0:
            high = min(high, n)
        else:
            high = min(high, macaulay_bound(prefix[-1], index))
        for v in range(low, high + 1):
            prefix.append(v)
            yield from fill(prefix, remaining - v, index + 1)
            prefix.pop()

    for middle in fill([], interior, 0):
        yield (1,) + middle + (1,)


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
    and no fewer; `admissible_decompositions` sorts, so their order reaches
    no output.
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
    new[i], new[j] = ri, rj
    row[i] = row[j] = 0


# (a, remainder) -> `_chains(a, remainder)`, keyed by ints and kept for the
# process, so it grows with the largest length asked for.
_CHAINS: dict = {}


def _chains(a: int, remainder: tuple) -> tuple:
    """All row chains (Delta_0, ..., Delta_a) summing to `remainder`.

    Every partial sum below Delta_a is the Hilbert function of a quotient
    Q(a), so the chains depend only on (a, remainder), not on the length,
    n or the filter: `_CHAINS` keeps them, dead ends as (), across calls.
    """
    key = (a, remainder)
    chains = _CHAINS.get(key)
    if chains is not None:
        return chains
    if a == 0:
        # the remainder's ends are H(0) = H(d) = 1: no row a >= 1 reaches them
        chains = ((remainder,),) if remainder == remainder[::-1] else ()
    else:
        chains = tuple(chain + (row,)
                       for row, new_remainder in _rows(len(remainder) - 1, a, remainder)
                       for chain in _chains(a - 1, new_remainder))
    _CHAINS[key] = chains
    return chains


def admissible_decompositions(length: int, n: int, nonsmoothable_only: bool = False) -> list:
    """All admissible (H, Delta) candidates of the given length.

    Complete and duplicate-free over socle degrees 3 <= d <= length - 1,
    sorted by socle degree, then H lexicographically, then the row matrix
    lexicographically.
    """
    if length < 1 or n < 1:
        raise ValueError("length and n must be positive")
    candidates = []
    for d in range(3, length):
        for h in _hilbert_candidates(length, n, d):
            if nonsmoothable_only and not nonsmoothable_filter(h):
                continue
            candidates.extend(
                DecompositionCandidate(HilbertFunction(h), SymmetricDecomposition(d=d, rows=rows))
                for rows in _chains(d - 2, h)  # memoized in _CHAINS
            )
    candidates.sort(key=DecompositionCandidate.sort_key)
    return candidates
