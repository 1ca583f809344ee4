"""Outside-in benchmark of the apolarity library and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The library is imported from `src`
(no installation needed): workers get `src` on `sys.path`, and the CLI runs
as `python -m apolarity` with `PYTHONPATH=src`.

The load is a closed loop: one measurement at a time from this single
process.  With `--trace 0` it repeats rounds of [set-up samples, each after
a sample of the reference job, one pass in a fresh worker, CLI runs] while
at least half a round fits in `--seconds` (and at least MIN_ROUNDS rounds),
and reports the medians of the end-to-end metrics.  Times are reported at
a fixed host speed: scaled by REFERENCE_S / the reference job's median.
With `--trace 1` it repeats [untraced pass, traced pass, traced CLI run]
and reports the per-layer metrics.  Every output is checked; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
REFERENCE = HERE / "reference.py"

MIN_ROUNDS = 3
SETUP_PER_ROUND = 3
CLI_PER_ROUND = 3
SETUP_CODE = "import apolarity.cli; apolarity.cli.build_parser()"
# The reported times are those of a host on which the reference job takes
# this long.  A shared host's speed can drift by tens of percent over
# minutes, and every time sample moves with it; the reference job, sampled
# through the same run, moves the same way, so the scaled times do not.
REFERENCE_S = 0.15
HARD_LIMIT_S = 170  # every run ends well inside the 180 s the harness allows


class Run:
    """Samples, item counts and problems gathered during one benchmark run."""

    def __init__(self, workload, seed, expected, seconds):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        # digests are fixed per item when the inputs do not depend on the seed,
        # and known only for the default seed otherwise
        applies = expected is not None and (expected["seed"] is None or expected["seed"] == seed)
        self.expected = expected if applies else None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference_s = None  # median time of the reference job, in an untraced run

    def elapsed(self):
        return time.perf_counter() - self.start

    def record(self, problems, attempted=1):
        """Count `attempted` checked items, all failed when there are problems."""
        self.attempted += attempted
        if problems:
            self.failed += attempted
            self.problems += problems

    def python(self, argv):
        """Run a fresh interpreter; returns (wall seconds, completed process)."""
        timeout = max(5.0, HARD_LIMIT_S - self.elapsed())
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=timeout)
        return time.perf_counter() - start, done

    def setup(self):
        return self.timed_python(["-c", SETUP_CODE], "set-up")

    def reference(self):
        return self.timed_python([str(REFERENCE)], "reference job")

    def timed_python(self, argv, what):
        """Wall seconds of a fresh interpreter running `argv`, or None when it failed."""
        seconds, done = self.python(argv)
        ok = done.returncode == 0
        self.record([] if ok else [f"{what} failed: {done.stderr.strip()[-300:]}"])
        return seconds if ok else None

    def pass_(self, trace=False):
        """One pass in a fresh worker; returns its report, or None when it crashed."""
        argv = [str(HERE / "worker.py"), "pass", "--workload", self.workload.name,
                "--seed", str(self.seed)] + (["--trace"] if trace else [])
        _, done = self.python(argv)
        report = _last_json(done)
        if report is None:
            self.record([f"worker crashed: {done.stderr.strip()[-500:]}"],
                        attempted=len(self.workload.items))
            return None
        for item in report["items"]:
            problems = list(item["problems"])
            want = self.expected["items"].get(item["name"]) if self.expected else None
            if want is not None and item["digest"] != want:
                problems.append(f"{item['name']}: digest {item['digest']} != recorded {want}")
            self.record(problems)
        return report

    def cli(self):
        """The workload's CLI command as a user runs it; returns wall seconds."""
        seconds, done = self.python(["-m", "apolarity", *self.workload.cli_args])
        self.check_cli(done.returncode, done.stdout, done.stderr)
        return seconds

    def check_cli(self, status, stdout, stderr=""):
        problems = [] if status == 0 else [f"CLI exit status {status}: {stderr.strip()[-300:]}"]
        if not problems:
            problems = self.workload.check_cli(stdout)
            want = self.expected["cli"] if self.expected else None
            got = _sha256(stdout)
            if want is not None and got != want:
                problems.append(f"CLI stdout digest {got} != recorded {want}")
        self.record(problems)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _last_json(done):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _another_round_fits(run, round_start):
    """Whether at least half of a round as long as the last one fits before the deadline."""
    now = time.perf_counter()
    return now + (now - round_start) / 2 <= run.deadline


def timed(run: Run) -> dict:
    """End-to-end samples from untraced rounds, times scaled to the reference speed."""
    run.python(["-c", SETUP_CODE])  # warm-up: writes bytecode caches, not counted
    samples = {"setup_s": [], "wall_s": [], "cli_s": [], "peak_rss_mib": []}
    reference = []
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            reference.append(run.reference())
            samples["setup_s"].append(run.setup())
        report = run.pass_()
        if report is not None:
            samples["wall_s"].append(report["wall_s"])
            samples["peak_rss_mib"].append(report["rss_mib"])
        for _ in range(CLI_PER_ROUND):
            samples["cli_s"].append(run.cli())
        rounds += 1
        if rounds >= MIN_ROUNDS and not _another_round_fits(run, round_start):
            break
    samples = {name: [v for v in values if v is not None] for name, values in samples.items()}
    reference = [v for v in reference if v is not None]
    if not reference:
        return {}
    run.reference_s = statistics.median(reference)
    scale = REFERENCE_S / run.reference_s
    return {name: [v * scale for v in values] if UNITS[name] == "s" else values
            for name, values in samples.items()}


def traced(run: Run) -> dict:
    """Per-layer metrics from [untraced pass, traced pass, traced CLI] rounds."""
    import layers

    rounds = []
    while True:
        round_start = time.perf_counter()
        untraced = run.pass_()
        traced_pass = run.pass_(trace=True)
        argv = [str(HERE / "worker.py"), "cli", "--workload", run.workload.name,
                "--seed", str(run.seed)]
        _, done = run.python(argv)
        cli = _last_json(done)
        if cli is None:
            run.record([f"traced CLI crashed: {done.stderr.strip()[-500:]}"])
        else:
            run.check_cli(cli["status"], cli["stdout"])
        if untraced and traced_pass:
            digests = [i["digest"] for i in untraced["items"]]
            same = digests == [i["digest"] for i in traced_pass["items"]]
            run.record([] if same else ["traced pass did not reproduce the untraced digests"])
        if untraced and traced_pass and cli:
            rounds.append(layers.metrics(untraced, traced_pass, cli))
        if not rounds or not _another_round_fits(run, round_start):
            break
    if not rounds:
        return {}
    check_rounds(run, rounds)
    # counts are the same in every round (checked above): report them as counts
    return {name: ([rounds[0][name]] if layers.unit(name) == "count" else [r[name] for r in rounds],
                   layers.unit(name)) for name in layers.METRICS}


def check_rounds(run, rounds):
    """Two checked items: call counts repeat across rounds, and predicted zeros hold."""
    import layers

    counts = [name for name in layers.METRICS if layers.unit(name) == "count"]
    run.record([f"{name} differs between traced passes" for name in counts
                if len({r[name] for r in rounds}) > 1])
    run.record([f"predicted zero {name} is {rounds[0][name]}"
                for name in layers.zero_violations(run.workload.name, rounds[0])])


UNITS = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "peak_rss_mib": "MiB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apolarity" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library sources at {SRC}; run from a source tree\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}\n")
        return 2
    expected = json.loads(EXPECTED.read_text()).get(args.workload) if EXPECTED.is_file() else None
    run = Run(workloads.build(args.workload, args.seed), args.seed, expected, args.seconds)
    if args.trace:
        measured = traced(run)
    else:
        measured = {name: (values, UNITS[name]) for name, values in timed(run).items()}
    for problem in run.problems:
        sys.stderr.write(f"problem: {problem}\n")
    if not measured or any(not values for values, _ in measured.values()):
        sys.stderr.write("error: a metric has no valid sample\n")
        return 1
    report(run, measured, args)
    return 0


def report(run, measured, args):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{run.elapsed():.1f} s elapsed")
    print(f"{'metric':<48} {'median':>14} {'unit':<6} {'n':>3} {'q1':>12} {'q3':>12}")
    metrics = {}
    for name, (values, unit) in measured.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        print(f"{name:<48} {median:>14.6g} {unit:<6} {len(values):>3} {q1:>12.6g} {q3:>12.6g}")
        metrics[name] = {"value": median, "unit": unit}
    if run.reference_s is not None:
        label = f"reference job, unscaled (scale {REFERENCE_S / run.reference_s:.4g})"
        print(f"{label:<48} {run.reference_s:>14.6g} {'s':<6}")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"{'failed_frac':<48} {frac:>14.6g} {'ratio':<6} ({run.failed} of {run.attempted} "
          f"checked items failed)")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
