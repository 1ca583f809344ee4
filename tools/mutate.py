"""Seeded AST mutation pass: which one-point changes to the library a test
command notices.

A mutant changes one node of one module under `src/apolarity`:

* a comparison operator is swapped (`<` and `<=`, `>` and `>=`, `==` and
  `!=`, `in` and `not in`, `is` and `is not`);
* an arithmetic or boolean operator is swapped (`+` and `-`, `*` and `//`,
  `/` to `*`, `%` to `//`, `and` and `or`);
* an int constant 0, 1 or 2 is raised by one.

The tree is copied once into a work directory, each module to mutate in its
`ast.unparse` form, so a mutant differs from the baseline by its one change.
Each mutant is written into the copy on its own, the command runs there with
`src` on `PYTHONPATH`, and the module is restored.  A nonzero exit or a
timeout kills the mutant; the timeout is TIMEOUT_FACTOR times the command's
run on the unmutated copy, and at least TIMEOUT_FLOOR seconds.  Run from the
root of the repository:

    python3 tools/mutate.py --files apolar.py
    python3 tools/mutate.py --sample 40 --seed 7 --workdir /tmp/mut
    python3 tools/mutate.py --files apolar.py -- python3 -m apolarity selftest

The default command is the tier-1 suite, stopping at the first failure.
Prints one line per mutant and the kill rate; exits 1 if any mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "apolarity"
TIMEOUT_FACTOR = 4  # a mutant's run may take this many times the unmutated run
TIMEOUT_FLOOR = 3.0  # seconds, so that a short command's noise kills no mutant
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.AST):
    """(walk index, slot, line, description) of every mutable point; slot
    is the index of the operator in a comparison, or None."""
    for index, node in enumerate(ast.walk(tree)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                yield index, slot, line, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            yield index, None, line, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and 0 <= node.value <= 2):
            yield index, None, line, f"{node.value} -> {node.value + 1}"


def _mutant(source: str, index: int, slot) -> str:
    """The source with the site at walk `index` changed."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree) + "\n"


def _run(command: list, cwd: Path, timeout: float | None) -> str:
    """'killed', 'timeout' or 'survived'; a timed-out run loses its whole
    process group, so no test subprocess outlives it.  No bytecode is
    written: two mutants of one size within a second would share a stale
    .pyc."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        status = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return "timeout"
    return "killed" if status else "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", nargs="*", help="module file names under src/apolarity "
                        "(default: every module)")
    parser.add_argument("--sample", type=int, help="mutate this many sites, drawn by --seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, help="where the copy goes (default: a "
                        "temporary directory, removed afterwards)")
    parser.add_argument("command", nargs="*", help="test command after `--` "
                        "(default: the tier-1 suite with -x)")
    args = parser.parse_args(argv)
    names = args.files or sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    sources = {name: (ROOT / PACKAGE / name).read_text() for name in names}
    plain = {name: ast.unparse(ast.parse(source)) + "\n" for name, source in sources.items()}
    sites = [(name, *site) for name in names for site in _sites(ast.parse(sources[name]))]
    if args.sample is not None:
        sites = random.Random(args.seed).sample(sites, min(args.sample, len(sites)))
    sites.sort(key=lambda site: (site[0], site[3], site[1]))  # file, line, walk index
    work = args.workdir or Path(tempfile.mkdtemp(prefix="mutate-"))
    copy = work / "tree"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache"))
    for name in names:
        (copy / PACKAGE / name).write_text(plain[name])
    command = args.command or TIER1
    survivors = 0
    try:
        start = time.monotonic()
        if _run(command, copy, None) != "survived":
            print("the command fails on the unmutated tree", file=sys.stderr)
            return 2
        baseline = time.monotonic() - start
        timeout = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * baseline)
        print(f"unmutated run {baseline:.1f} s; timeout per mutant {timeout:.1f} s", flush=True)
        for name, index, slot, line, description in sites:
            target = copy / PACKAGE / name
            target.write_text(_mutant(sources[name], index, slot))
            start = time.monotonic()
            try:
                outcome = _run(command, copy, timeout)
            finally:
                target.write_text(plain[name])
            survivors += outcome == "survived"
            print(f"{outcome:8} {name}:{line} {description} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
    total = len(sites)
    print(f"killed {total - survivors} of {total} mutants "
          f"({100 * (total - survivors) / max(total, 1):.0f}%)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
