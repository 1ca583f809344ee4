"""Record the digests that later runs check outputs against.

    python3 perfbench/record.py

Runs one untraced pass of every workload at the default seed and the
workload's CLI command, and writes `expected.json`: per item the sha256
of its canonical output, and the sha256 of the CLI's stdout.  Run it only
on a commit whose outputs are known to be right; a later change whose
digests differ changes behaviour.
"""

from __future__ import annotations

import json
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))
import workloads  # noqa: E402


def main() -> int:
    expected = {}
    for name in workloads.NAMES:
        run = bench.Run(workloads.build(name, workloads.DEFAULT_SEED), workloads.DEFAULT_SEED,
                        None, 0)
        report = run.pass_()
        _, done = run.python(["-m", "apolarity", *run.workload.cli_args])
        run.check_cli(done.returncode, done.stdout, done.stderr)
        if report is None or run.failed:
            sys.stderr.write(f"{name}: {run.problems}\n")
            return 1
        expected[name] = {
            "seed": workloads.DEFAULT_SEED if run.workload.seeded_inputs else None,
            "items": {item["name"]: item["digest"] for item in sorted(
                report["items"], key=lambda item: item["name"])},
            "cli": bench._sha256(done.stdout),
        }
    bench.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
