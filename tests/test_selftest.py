"""The selftest's checks hold in every interpreter mode."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import apolarity
from apolarity import selftest

BROKEN_BOUND = """\
import apolarity.selftest as selftest
selftest.c_bound = lambda n: 99
lines, _, status = selftest.run_selftest()
print(lines[-1])
raise SystemExit(status)
"""


def test_a_broken_check_fails_under_optimize():
    # `python -O` strips `assert` statements; the checks must fail regardless
    package_root = str(Path(apolarity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", BROKEN_BOUND],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 1, result.stderr
    assert result.stdout == "selftest: 10/11 checks passed\n"


def test_no_bare_assert_in_selftest():
    tree = ast.parse(Path(selftest.__file__).read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
