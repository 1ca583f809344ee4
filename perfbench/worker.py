"""One measured pass, run in a fresh interpreter so no cache survives it.

    python3 perfbench/worker.py pass --workload NAME --seed N [--trace]
    python3 perfbench/worker.py cli --workload NAME --seed N

`pass` runs every item of the workload once, then checks each output, and
prints one JSON object: the wall time of the computation (checks not
included), the process's peak RSS, and per item its seconds, digest and
problems.  With `--trace` the library's public callables are wrapped while
the items compute (not while they are checked) and the span aggregates and
layer counters are added.  `cli` runs the
workload's CLI command in-process under the tracer, for the `cli` layer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import apolarity.cli  # noqa: E402  (the path above must come first)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Installation, Tracer  # noqa: E402

KEEP_SPANS_S = 0.005
SPANS_DIR = Path(__file__).resolve().parent / "out"


def _install(tracer):
    return Installation(tracer, "apolarity", layers.traced_modules())


def _compute(item):
    start = time.perf_counter()
    try:
        return item.compute(), None, time.perf_counter() - start
    except Exception:  # an item failure is reported, never fatal to the pass
        traceback.print_exc()
        return None, f"{item.name}: {traceback.format_exc(limit=1).strip().splitlines()[-1]}", 0.0


def run_pass(workload, trace: bool) -> dict:
    tracer = Tracer(keep_spans_s=KEEP_SPANS_S) if trace else None
    observed = layers.Observed(tracer) if trace else None
    start = time.perf_counter()
    installed = _install(tracer) if trace else None
    try:
        computed = [(item, *_compute(item)) for item in workload.items]
    finally:
        if installed is not None:
            installed.restore()
    wall_s = time.perf_counter() - start  # the checks below are not timed
    results = {item.name: result for item, result, error, _ in computed}
    items = []
    for item, result, error, seconds in computed:
        problems = [error] if error else []
        digest = None
        bits = 0
        if not problems:
            try:
                digest = workloads.digest(item.canonical(result))
                problems = item.check(result, results)
                bits = workloads.coeff_bits(item, result)
            except Exception:  # a failing check is a failed item, reported
                traceback.print_exc()
                problems = [f"{item.name}: check raised"]
        items.append({"name": item.name, "seconds": seconds, "digest": digest,
                      "problems": problems, "field": item.field, "coeff_bits": bits})
    out = {"wall_s": wall_s, "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "items": items}
    if trace:
        out["stats"] = tracer.stats
        out["counters"] = observed.counters()
        _write_spans(tracer, workload.name)
    return out


def run_cli(workload) -> dict:
    tracer = Tracer()
    installed = _install(tracer)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            status = apolarity.cli.run(workload.cli_args)
    finally:
        installed.restore()
    return {"status": status, "stdout": stdout.getvalue(), "stats": tracer.stats}


def _write_spans(tracer, name):
    SPANS_DIR.mkdir(exist_ok=True)
    spans = [span._asdict() for span in tracer.spans]
    (SPANS_DIR / f"spans-{name}.json").write_text(json.dumps(spans) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("pass", "cli"))
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    if args.mode == "pass":
        out = run_pass(workload, args.trace)
    else:
        out = run_cli(workload)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
