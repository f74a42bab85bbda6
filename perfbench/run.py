"""Run the loopdet benchmark.

    python3 perfbench/run.py --workload revisit_dense --seed 3 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  The package is imported from the
checkout's own ``src/``; the BLAS and OpenMP thread counts are pinned to one
before numpy loads.  Each run prints a ``perfbench env`` and a ``perfbench
report`` line (environment, correctness output, failure accounting,
diagnostics), then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process and prints each
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_all(spec: dict, args) -> int:
    status = 0
    for workload in spec["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(f"== {workload['name']}: {workload['why']}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr.strip() or "no output")
            status = 1
            continue
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        print(f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:38s} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "loopdet" / "__init__.py").is_file():
        print(f"perfbench: no loopdet sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(spec, args)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import loopdet

    if not Path(loopdet.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: loopdet imported from {loopdet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report, metrics = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    result = harness.result_line(report, metrics, spec["per_layer" if args.trace else "end_to_end"])
    print("perfbench env " + json.dumps(report.pop("environment")))
    print("perfbench report " + json.dumps(report))
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
