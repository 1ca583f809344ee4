"""The benchmark's own unittest suite passes against this source tree.

A change under `src` can break `perfbench/test_perfbench.py` (for instance by
removing a name its tracer rebinds) while every other tier-1 test stays
green, so the suite runs here too, as its README runs it: from the
repository root, in a fresh interpreter.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_unittest_suite_passes():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
