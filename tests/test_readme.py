"""The examples in README.md: Python ones as doctests, CLI ones through `cli.run`."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import pytest

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
