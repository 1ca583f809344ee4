"""The reference job: fixed pure-Python work that uses no part of the library.

    python3 perfbench/reference.py

`run.py` times it from outside in a fresh interpreter, like the set-up
samples, between its other samples.  Its time moves only with the speed of
the host, so it gives the scale that turns measured times into times at a
fixed host speed.
"""

import argparse  # noqa: F401  (imports are part of the job, as in set-up)
import dataclasses  # noqa: F401
import itertools
import json
import math
import statistics  # noqa: F401
from fractions import Fraction


def job():
    # exact elimination on a fixed rational matrix
    n = 30
    rows = [[Fraction((i * j) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    # sparse dicts keyed by exponent tuples, and binomial sums
    terms = {e: sum(e) % 7 + 1 for e in itertools.product(range(12), repeat=3)}
    for _ in range(12):
        terms = {(a, b, c - 1) if c else (a, b, c): v * 3 % 32003 for (a, b, c), v in sorted(terms.items())}
    total = sum(math.comb(a + 10, a) for a in range(3000))
    return json.dumps([str(rows[-1][-1]), len(terms), total % 1000003])


if __name__ == "__main__":
    job()
