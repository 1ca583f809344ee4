"""`apolarity.__all__` lists only names the program uses, or names kept for a
stated reason.

A name counts as used when some module of the package other than
`__init__.py` loads it, as a bare name or as an attribute; the syntax tree
is read, so words in docstrings and comments ("cubic tail") do not count,
and neither do imports or definitions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import apolarity

PACKAGE = Path(apolarity.__file__).resolve().parent

# exported although nothing in the package loads them
KEPT = {
    "PrimeField": "how a user names GF(p) for `parse(..., field=PrimeField(p))`; "
                  "the program reads the field from the coefficients",
    "is_apolar": "the public apolarity check of generators against a form; local schemes "
                 "run the same check on int terms, and perfbench's rebinding test requires "
                 "it in `apolar` and `witness`",
    "annihilator_generators": "the kernel of the contraction map as dual polynomials; "
                              "`local_scheme` and the `annihilator` command build the same "
                              "polynomials from the int relations of the span they read the "
                              "length from, and perfbench's generic workload calls it",
    "representative_operator": "the paper's psi with psi(f) = g; tier-1 uses it as the "
                               "reference for `FilteredSpace.orders`",
}


def loaded_names() -> set:
    """Every name and attribute loaded in the package outside `__init__.py`."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_or_kept():
    assert sorted(set(apolarity.__all__) - loaded_names() - set(KEPT)) == []


def test_kept_names_are_exported_and_unused():
    # a kept name that the package starts using, or stops exporting, leaves KEPT
    assert set(KEPT) <= set(apolarity.__all__)
    assert sorted(set(KEPT) & loaded_names()) == []
    assert all(reason for reason in KEPT.values())

