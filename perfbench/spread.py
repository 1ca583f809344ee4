"""Repeat the benchmark over seeds and summarise it into a result file.

    python3 perfbench/spread.py --label NAME

For every workload of `BENCHMARK.json` it runs `run.py --trace 0` once per
seed 1-10, then two `run.py --trace 1` at seed 1, whose call counts must
agree.  It writes `perfbench/results/NAME.json` with, per end-to-end
metric, the ten values, their median and quartiles and the spread
(q3 - q1) / median; the traced per-layer snapshot; the layer predictions;
and the machine.  Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def bench(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    out = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "run_seconds": SPEC["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(bench(workload, seed, 0))
            print(workload, seed, json.dumps(results[-1]), flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                           for m in SPEC["end_to_end"]},
        }
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}",
                  flush=True)
        # a traced run whose predicted zeros do not hold is not correct
        traced = [bench(workload, SEEDS[0], 1) for _ in range(2)]
        values = [{name: m["value"] for name, m in t["metrics"].items()} for t in traced]
        counts = [n for n in layers.METRICS if layers.unit(n) == "count"]
        entry["per_layer"] = values[0]
        entry["traced_correct"] = all(t["correct"] for t in traced)
        entry["traced_counts_repeat"] = all(values[0][n] == values[1][n] for n in counts)
        out["workloads"][workload] = entry
    out["predictions"] = layers.GROUPS
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
