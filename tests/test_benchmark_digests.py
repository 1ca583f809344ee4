"""Every benchmark item reproduces its recorded digest and passes its check.

`perfbench/expected.json` records, per workload, the sha256 of each item's
canonical output at the workload's recorded seed.  The benchmark compares
them only in its own long runs; here each item is computed once in-process,
so a change that moves any output fails tier-1.  The generic workload's
checks hold at every seed, so its items are also checked at a second seed,
where no digest is recorded.  The files under `perfbench/` are read, never
written.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their annotations there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_items_match_recorded_digests_and_pass_their_checks(name):
    recorded = EXPECTED[name]
    seed = recorded["seed"]
    workload = workloads.build(name, 0 if seed is None else seed)
    results = {item.name: item.compute() for item in workload.items}
    digests = recorded["items"]
    assert sorted(results) == sorted(digests)
    mismatched = [item.name for item in workload.items
                  if workloads.digest(item.canonical(results[item.name])) != digests[item.name]]
    assert mismatched == []
    problems = [(item.name, p) for item in workload.items
                for p in item.check(results[item.name], results)]
    assert problems == []


def test_generic_items_pass_their_checks_at_a_second_seed():
    workload = workloads.build("generic", 1)
    results = {item.name: item.compute() for item in workload.items}
    problems = [(item.name, p) for item in workload.items
                for p in item.check(results[item.name], results)]
    assert problems == []
