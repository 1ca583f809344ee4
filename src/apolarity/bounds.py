"""Dimension bounds for families of cubic tails, and the rank verifier.

For a decomposition Delta with embedding dimensions n_0 <= ... <= n_{d-2},
the family of cubic tails of polynomials realizing Delta in n variables
has dimension at most

    v(3, Delta, n) = C(n_{d-3}+2, 3) + C(n_{d-2}+1, 2) + n + 1
                     + sum_{i=1}^{d-1} (n - n_{d-i-1}) H(i),

equivalently v_theta + d_flag, where v_theta collects the coordinate-fixed
family (cubic in n_{d-3} variables, quadric in n_{d-2}, the hidden-variable
term d_infty) and d_flag is the dimension of the compatible variable flags.
The grouping C(n_{d-3}+2, 3) is the authoritative one: it gives the
paper's worked values 105 (n = 8) and 97 (n = 7), which C(n_{d-3}+3, 3)
does not.

The verifier compares v against the thresholds
C(n+3, 3) - n - (n+1)(l - r) for all 14 <= r <= l <= c(n) - 1; strict
inequality everywhere bounds the cactus rank of a generic cubic below by
c(n) = min(ceil(C(n+3,3) / (n+1)), 2n+2), which for n = 7 and 8 is also an
established upper bound (see `c_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

from .enumeration import admissible_decompositions
from .hilbert import SymmetricDecomposition, embedding_dims


def c_bound(n: int) -> int:
    """c(n) = min(ceil(C(n+3,3)/(n+1)), 2n+2), the paper's cactus rank of a
    general cubic in n+1 variables.  The upper half is cited, not computed,
    and established for n = 7 (15 is the generic Waring rank of cubics in 8
    variables, Alexander-Hirschowitz, J. Algebraic Geom. 4, 1995) and n = 8
    (2n+2 = 18 is the length of the paper's local scheme, H <= (1, n, n, 1)).
    It is no upper bound at n = 4, where it gives 7: the tangent spaces at 7
    general points of v_3(P^4) span only 34 of the 35 cubics (Terracini).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return min(ceil(comb(n + 3, 3) / (n + 1)), 2 * n + 2)


def w_bound(length: int, n: int) -> int:
    """Comparison target C(n+3,3) - n - (n+1)(c(n) - length - 1)."""
    c = c_bound(n)
    if not 1 <= length <= c - 1:
        raise ValueError(f"length must lie in 1..{c - 1} for n = {n}")
    return comb(n + 3, 3) - n - (n + 1) * (c - length - 1)


def _require_dims(decomposition: SymmetricDecomposition, n: int):
    dims = embedding_dims(decomposition)
    if n < dims[-1]:  # n_{d-2} sums Delta_a(1) over every row: H(1)
        raise ValueError(f"n = {n} is smaller than H(1) = {dims[-1]}")
    return dims


def d_infty(decomposition: SymmetricDecomposition, n: int) -> int:
    """Dimension bound for the hidden-variable (exotic) summand family."""
    return _d_infty(decomposition, n, _require_dims(decomposition, n))


def _d_infty(decomposition: SymmetricDecomposition, n: int, dims: tuple) -> int:
    d = decomposition.d
    rows = decomposition.rows
    total = 0
    for i in range(1, d - 1):
        total += (n - dims[i]) * sum(row[d - i - 1] for row in rows[:i])
    return total + n - dims[d - 2]


def d_flag(decomposition: SymmetricDecomposition, n: int) -> int:
    """Dimension of the flag of variable subspaces compatible with Delta."""
    return _d_flag(decomposition, n, _require_dims(decomposition, n))


def _d_flag(decomposition: SymmetricDecomposition, n: int, dims: tuple) -> int:
    # Delta_j(1) = n_j - n_{j-1}, so the rows themselves are not needed
    return sum((m - previous) * (n - m) for m, previous in zip(dims, (0,) + dims))


@dataclass(frozen=True)
class DimBoundReport:
    """Evaluation of the cubic-tail dimension bound for one decomposition."""

    n: int
    length: int
    d: int
    hilbert: tuple
    deltas: tuple
    embedding: tuple
    v_theta: int
    d_infty: int
    d_flag: int
    v: int
    w: int | None
    margin: int | None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "length": self.length,
            "d": self.d,
            "H": list(self.hilbert),
            "deltas": [list(r) for r in self.deltas],
            "embedding_dims": list(self.embedding),
            "v_theta": self.v_theta,
            "d_infty": self.d_infty,
            "d_flag": self.d_flag,
            "v": self.v,
            "w": self.w,
            "margin": self.margin,
        }


def v_bound(decomposition: SymmetricDecomposition, n: int) -> DimBoundReport:
    """Dimension bound v(3, Delta, n) with both composition routes recorded.

    The closed form over H and the v_theta + d_flag route are computed
    independently and must agree; a mismatch is a programming error.
    """
    h = decomposition.hilbert().values
    dims, exotic, flag, v_theta, closed = _v(decomposition, n, h)
    length = sum(h)
    c = c_bound(n)
    if 1 <= length <= c - 1:
        w = w_bound(length, n)
        margin = w - closed
    else:
        w = None
        margin = None
    return DimBoundReport(
        n=n,
        length=length,
        d=decomposition.d,
        hilbert=h,
        deltas=decomposition.rows,
        embedding=dims,
        v_theta=v_theta,
        d_infty=exotic,
        d_flag=flag,
        v=closed,
        w=w,
        margin=margin,
    )


def _v(decomposition: SymmetricDecomposition, n: int, h: tuple) -> tuple:
    """(embedding dims, d_infty, d_flag, v_theta, v) of a
    decomposition whose H values are h, as `v_bound` reports them; both
    routes to v are computed and compared."""
    d = decomposition.d
    if d < 3:
        raise ValueError("the bound needs socle degree at least 3")
    dims = _require_dims(decomposition, n)
    exotic = _d_infty(decomposition, n, dims)
    flag = _d_flag(decomposition, n, dims)
    v_theta = comb(dims[d - 3] + 2, 3) + comb(dims[d - 2] + 1, 2) + dims[d - 2] + 1 + exotic
    closed = (
        comb(dims[d - 3] + 2, 3)
        + comb(dims[d - 2] + 1, 2)
        + n
        + 1
        + sum((n - dims[d - i - 1]) * h[i] for i in range(1, d))
    )
    if v_theta + flag != closed:
        raise AssertionError("bound composition routes disagree")
    return dims, exotic, flag, v_theta, closed


@dataclass(frozen=True)
class TheoremRow:
    """One (l, r, candidate) comparison row of the verifier."""

    l: int
    r: int
    hilbert: tuple
    deltas: tuple
    v: int
    threshold: int
    margin: int

    def as_dict(self) -> dict:
        return {
            "l": self.l,
            "r": self.r,
            "H": list(self.hilbert),
            "deltas": [list(x) for x in self.deltas],
            "v": self.v,
            "threshold": self.threshold,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the generic-cubic cactus-rank verification for one n."""

    n: int
    cactus_rank: int
    passed: bool
    rows: tuple
    worst_margin: int | None
    max_v_by_length: dict
    conjectured_extremal: dict
    in_scope: bool
    filtered: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "cactus_rank": self.cactus_rank,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "in_scope": self.in_scope,
            "nonsmoothable_filter": self.filtered,
            "rows": [row.as_dict() for row in self.rows],
            "max_v_by_length": {
                str(r): {"H": list(h), "v": v} for r, (h, v) in self.max_v_by_length.items()
            },
            "conjectured_extremal": {
                str(r): {"H": list(h), "matches": m}
                for r, (h, m) in self.conjectured_extremal.items()
            },
        }


def _conjectured_h(length: int) -> tuple:
    if length % 2 == 0:
        k = length // 2 - 1
        return (1, k, k, 1)
    k = (length - 1) // 2 - 1
    return (1, k, k, 1, 1)


def verify_theorem(n: int, nonsmoothable_only: bool = True) -> TheoremReport:
    """Check v < C(n+3,3) - n - (n+1)(l - r) over all candidate lengths.

    Candidates of length r, 14 <= r <= c(n)-1, come from the enumerator
    (nonsmoothable ones by default); every pair r <= l <= c(n)-1 yields a
    comparison row.  PASS means every margin is strictly positive, which
    pins the cactus rank of a generic cubic at c(n).
    """
    c = c_bound(n)
    rows = []
    max_v: dict = {}
    passed = True
    for r in range(14, c):
        for candidate in admissible_decompositions(r, n, nonsmoothable_only=nonsmoothable_only):
            h = candidate.hilbert.values
            v = _v(candidate.decomposition, n, h)[-1]
            deltas = tuple(candidate.decomposition.trimmed_rows())
            if r not in max_v or v > max_v[r][1]:
                max_v[r] = (h, v)
            for l in range(r, c):
                threshold = comb(n + 3, 3) - n - (n + 1) * (l - r)
                margin = threshold - v
                if margin <= 0:
                    passed = False
                rows.append(TheoremRow(l=l, r=r, hilbert=h, deltas=deltas, v=v,
                                       threshold=threshold, margin=margin))
    worst = min((row.margin for row in rows), default=None)
    conjecture = {
        r: (h_v[0], h_v[0] == _conjectured_h(r)) for r, h_v in max_v.items()
    }
    return TheoremReport(
        n=n,
        cactus_rank=c,
        passed=passed,
        rows=tuple(rows),
        worst_margin=worst,
        max_v_by_length=max_v,
        conjectured_extremal=conjecture,
        in_scope=n in (7, 8),
        filtered=nonsmoothable_only,
    )
