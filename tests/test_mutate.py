"""tools/mutate.py: a mutant's time bound scales with the unmutated run."""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"

# The first run, on the unmutated copy, leaves a marker and exits at once;
# every later run, a mutant's, finds the marker and sleeps far past any bound.
SLEEPER = ("import os, sys, time\n"
           "seen = os.path.exists(sys.argv[1])\n"
           "open(sys.argv[1], 'a').close()\n"
           "time.sleep(300 if seen else 0)\n")


def load_tool():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_looping_mutant_is_cut_at_the_scaled_bound(tmp_path, capsys):
    mutate = load_tool()
    start = time.monotonic()
    status = mutate.main(["--files", "macaulay.py", "--sample", "1", "--workdir", str(tmp_path),
                          "--", sys.executable, "-c", SLEEPER, str(tmp_path / "ran")])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out.splitlines()
    assert status == 0  # a timeout kills the mutant
    # the bound is printed once; a run this short gets the floor
    assert sum("timeout per mutant" in line for line in out) == 1
    assert out[0].endswith(f"timeout per mutant {mutate.TIMEOUT_FLOOR:.1f} s")
    assert out[1].startswith("timeout  macaulay.py:")
    assert out[-1] == "killed 1 of 1 mutants (100%)"
    assert mutate.TIMEOUT_FLOOR <= elapsed < 30
