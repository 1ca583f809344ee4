"""Per-layer metrics: what the traced run reports, and what each should move.

Layers are the library's modules.  Each group below names its metrics, the
end-to-end metrics and workloads it is predicted to move, and the
workloads on which its call counts are predicted to be zero.  The metric
names are those of `BENCHMARK.json`'s `per_layer` list, in order.
"""

from __future__ import annotations

import importlib

MODULES = ("scalars", "poly", "linalg", "apolar", "hilbert", "macaulay",
           "enumeration", "bounds", "witness", "cli")


def traced_modules():
    return {short: importlib.import_module(f"apolarity.{short}") for short in MODULES}


GROUPS = [
    {"layer": "macaulay",
     "metrics": ["macaulay.macaulay_bound.calls", "macaulay.macaulay_bound.distinct_args",
                 "macaulay.macaulay_bound.self_s", "macaulay.is_o_sequence.calls",
                 "macaulay.is_o_sequence.accept_ratio", "macaulay.is_o_sequence.self_s",
                 "macaulay.binomial_expansion.calls", "macaulay.binomial_expansion.self_s"],
     "moves": {"verifier": ["wall_s", "cli_s"]},
     "zero_on": {"filtration": ["macaulay.macaulay_bound.calls", "macaulay.is_o_sequence.calls",
                                "macaulay.binomial_expansion.calls"],
                 "generic": ["macaulay.macaulay_bound.calls", "macaulay.is_o_sequence.calls",
                             "macaulay.binomial_expansion.calls"]}},
    {"layer": "enumeration",
     "metrics": ["enumeration.admissible_decompositions.calls",
                 "enumeration.admissible_decompositions.total_s",
                 "enumeration.admissible_decompositions.self_s", "enumeration.candidates"],
     "moves": {"verifier": ["wall_s"]}, "zero_on": {}},
    {"layer": "bounds",
     "metrics": ["bounds.v_bound.calls", "bounds.v_bound.self_s", "bounds.verify_theorem.total_s",
                 "bounds.verify_theorem.self_s", "bounds.rows"],
     "moves": {"verifier": ["wall_s", "cli_s"]}, "zero_on": {}},
    {"layer": "apolar (filtration tables)",
     "metrics": ["apolar.FilteredSpace.m_table.calls", "apolar.FilteredSpace.m_table.total_s",
                 "apolar.FilteredSpace.orders.total_s"],
     "moves": {"filtration": ["wall_s", "cli_s"]},
     "zero_on": {w: ["apolar.FilteredSpace.m_table.calls", "apolar.FilteredSpace.m_table.total_s",
                     "apolar.FilteredSpace.orders.total_s"] for w in ("verifier", "generic")}},
    {"layer": "apolar (closure)",
     "metrics": ["apolar.diff_space.calls", "apolar.diff_space.total_s", "apolar.diff_space.self_s"],
     "moves": {"filtration": ["wall_s"], "generic": ["wall_s"]}, "zero_on": {}},
    {"layer": "apolar (annihilators and schemes)",
     "metrics": ["apolar.annihilator_generators.calls", "apolar.annihilator_generators.self_s",
                 "apolar.is_apolar.calls", "apolar.is_apolar.self_s",
                 "apolar.local_scheme.total_s", "apolar.local_scheme.self_s"],
     "moves": {"generic": ["wall_s", "cli_s"]},
     "zero_on": {"verifier": ["apolar.is_apolar.calls"], "filtration": ["apolar.is_apolar.calls"]}},
    {"layer": "hilbert",
     "metrics": ["hilbert.symmetric_decomposition.total_s", "hilbert.symmetric_decomposition.self_s",
                 "hilbert.adapt_coordinates.total_s", "hilbert.adapt_coordinates.self_s"],
     "moves": {"filtration": ["wall_s", "cli_s"]}, "zero_on": {}},
    {"layer": "linalg",
     "metrics": ["linalg.MonomialSpan.insert.calls", "linalg.MonomialSpan.insert.self_s",
                 "linalg.MonomialSpan.insert.independent_ratio",
                 "linalg.MonomialSpan.contains.calls", "linalg.MonomialSpan.contains.true_ratio",
                 "linalg.MonomialSpan.reduce.self_s", "linalg.WitnessSpan.insert.calls",
                 "linalg.WitnessSpan.insert.self_s", "linalg.WitnessSpan.insert.relation_ratio"],
     "moves": {"filtration": ["wall_s"], "generic": ["wall_s"]}, "zero_on": {}},
    {"layer": "poly",
     "metrics": ["poly.contract.calls", "poly.contract.self_s", "poly.Polynomial.__mul__.calls",
                 "poly.Polynomial.__mul__.self_s", "poly.dp_substitute.calls",
                 "poly.dp_substitute.self_s", "poly.dehomogenize.self_s"],
     "moves": {"generic": ["wall_s", "cli_s"]}, "zero_on": {}},
    {"layer": "scalars",
     "metrics": ["scalars.qq_s", "scalars.gf_s", "scalars.coeff_bits_max"],
     "moves": {"generic": ["wall_s"]}, "zero_on": {}},
    {"layer": "witness",
     "metrics": ["witness.cusp_witness.calls", "witness.cusp_witness.total_s",
                 "witness.cusp_witness.self_s"],
     "moves": {"generic": ["wall_s"]}, "zero_on": {}},
    {"layer": "cli",
     "metrics": ["cli.run.total_s", "cli.run.self_s"],
     "moves": {w: ["cli_s"] for w in ("verifier", "filtration", "generic")}, "zero_on": {}},
    {"layer": "trace",
     "metrics": ["trace.overhead_ratio"], "moves": {}, "zero_on": {}},
]

METRICS = [name for group in GROUPS for name in group["metrics"]]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


class Observed:
    """Outcome counters taken from the results of traced calls."""

    def __init__(self, tracer):
        self.bound_args = set()
        self.tally = dict.fromkeys(("o_sequences_accepted", "candidates", "rows",
                                    "independent_inserts", "contains_true", "relations"), 0)
        tally = self.tally

        def add(key, amount):
            tally[key] += amount

        tracer.observers.update({
            "macaulay.macaulay_bound": lambda a, k, r: self.bound_args.add(a + tuple(k.items())),
            "macaulay.is_o_sequence": lambda a, k, r: add("o_sequences_accepted", bool(r)),
            "enumeration.admissible_decompositions": lambda a, k, r: add("candidates", len(r)),
            "bounds.verify_theorem": lambda a, k, r: add("rows", len(r.rows)),
            "linalg.MonomialSpan.insert": lambda a, k, r: add("independent_inserts", r is not None),
            "linalg.MonomialSpan.contains": lambda a, k, r: add("contains_true", bool(r)),
            "linalg.WitnessSpan.insert": lambda a, k, r: add("relations", r[1] is not None),
        })

    def counters(self) -> dict:
        return dict(self.tally, distinct_bound_args=len(self.bound_args))


def _ratio(part, whole):
    return part / whole if whole else 0.0


def metrics(untraced: dict, traced: dict, cli: dict) -> dict:
    """Every per-layer metric from one untraced pass, one traced pass and one traced CLI run."""
    stats, counters = traced["stats"], traced["counters"]

    def stat(name, field):
        entry = (cli["stats"] if name.startswith("cli.") else stats).get(name, [0, 0.0, 0.0])
        return entry[("calls", "total_s", "self_s").index(field)]

    derived = {
        "macaulay.macaulay_bound.distinct_args": counters["distinct_bound_args"],
        "macaulay.is_o_sequence.accept_ratio": _ratio(
            counters["o_sequences_accepted"], stat("macaulay.is_o_sequence", "calls")),
        "enumeration.candidates": counters["candidates"],
        "bounds.rows": counters["rows"],
        "linalg.MonomialSpan.insert.independent_ratio": _ratio(
            counters["independent_inserts"], stat("linalg.MonomialSpan.insert", "calls")),
        "linalg.MonomialSpan.contains.true_ratio": _ratio(
            counters["contains_true"], stat("linalg.MonomialSpan.contains", "calls")),
        "linalg.WitnessSpan.insert.relation_ratio": _ratio(
            counters["relations"], stat("linalg.WitnessSpan.insert", "calls")),
        "scalars.qq_s": sum(i["seconds"] for i in untraced["items"] if i["field"] == "QQ"),
        "scalars.gf_s": sum(i["seconds"] for i in untraced["items"] if i["field"] == "GF"),
        "scalars.coeff_bits_max": max(i["coeff_bits"] for i in untraced["items"]),
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    out = {}
    for name in METRICS:
        if name in derived:
            out[name] = derived[name]
        else:
            base, field = name.rsplit(".", 1)
            out[name] = stat(base, field)
    return out


def zero_violations(workload: str, values: dict) -> list:
    """Predicted-zero metrics that are not zero on this workload."""
    return [name for group in GROUPS for name in group["zero_on"].get(workload, ())
            if values[name] != 0]
