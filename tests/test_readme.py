"""The examples in README.md: Python ones as doctests, CLI ones through `cli.run`;
and the names in its "Library overview" table, which must all exist."""

from __future__ import annotations

import builtins
import doctest
import fractions
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import apolarity
from apolarity import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def readme_cli_examples() -> list:
    """Arguments of every `apolarity ...` line in README's sh blocks, once each."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [shlex.split(line, comments=True)[1:] for block in blocks
             for line in block.splitlines() if line.startswith("apolarity ")]
    return list(dict.fromkeys(map(tuple, lines)))


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_succeeds(argv, capsys):
    assert cli.run(list(argv)) == 0
    assert capsys.readouterr().err == ""


ANNIHILATOR_TEXT = """\
kernel dimension (degree <= 2) = 1
stabilized = False
  y2^2
"""

ANNIHILATOR_JSON = """\
{
  "max_degree": 2,
  "generators": [
    "y2^2"
  ],
  "stabilized": false
}
"""


@pytest.mark.parametrize("extra,expected", [((), ANNIHILATOR_TEXT), (("--json",), ANNIHILATOR_JSON)],
                         ids=["text", "json"])
def test_readme_annihilator_example_output(extra, expected, capsys):
    argv = next(argv for argv in readme_cli_examples() if argv[0] == "annihilator")
    assert cli.run(list(argv + extra)) == 0
    assert capsys.readouterr().out == expected


# -- the "Library overview" table names only what the package defines ---------

SUBMODULES = {info.name: importlib.import_module(f"apolarity.{info.name}")
              for info in pkgutil.iter_modules(apolarity.__path__)
              if info.name != "__main__"}  # importing it runs the CLI


def overview_names() -> list:
    """The Python names backticked in the table, once each: a dotted name,
    alone or called (`MonomialSpan(p)`, `back_substitute()`)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", "\n".join(line for line in section.splitlines()
                                                 if line.startswith("|")))
    names = [m.group(0) for span in spans
             if (m := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?=\(|$)", span))]
    return list(dict.fromkeys(names))


def scopes():
    """The submodules and the classes defined in them."""
    for module in SUBMODULES.values():
        yield module
        yield from (value for value in vars(module).values()
                    if inspect.isclass(value) and value.__module__ == module.__name__)


def resolves(name: str) -> bool:
    """Whether the dotted name starts at `apolarity`, a submodule, an
    attribute of a submodule or of a class defined in one, or a `builtins` or
    `fractions` name, and each further part is an attribute of the last."""
    head, *rest = name.split(".")
    if head == "apolarity":
        starts = [apolarity]
    else:
        starts = [SUBMODULES[head]] if head in SUBMODULES else []
        starts += [getattr(scope, head) for scope in (*scopes(), builtins, fractions)
                   if hasattr(scope, head)]
    return any(_has_path(value, rest) for value in starts)


def _has_path(value, parts) -> bool:
    for part in parts:
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


def test_overview_table_names_resolve():
    names = overview_names()
    assert {"apolarity.apolar", "MonomialSpan", "ChangeOfBasis.unapply"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


def test_a_missing_name_does_not_resolve():
    assert resolves("scalars.characteristic") and resolves("int_row") and resolves("Fraction")
    assert not resolves("_closure")
    assert not resolves("MonomialSpan.closure")
    assert not resolves("apolarity.nothing")
