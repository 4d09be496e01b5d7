#!/usr/bin/env python3
"""End-to-end benchmark of the MaxRS stream monitor.

Run from the repository root; the program is imported from ``src/``.

One workload, one fresh process (the last stdout line is the JSON
result; the lines before it name every metric with unit and samples)::

    python3 perfbench/run.py --workload fleet_durable --seed 1 \
        --seconds 10 --trace 0

Every workload, each in its own process, then a table of every
end-to-end metric (``--trace 1``: the traced per-layer table)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads, rates and the layer predictions are documented in
``perfbench/workloads.py``.  The WAL and checkpoints are written under
``.perfbench_work/`` (removed at exit); traced runs write their spans
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fleet_durable", "multi_tenant")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            trace_out = (ROOT / ".perfbench_out"
                         / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics, ledger, lines = measure.traced_run(
                workload, args.seed, args.seconds, workdir, trace_out)
        else:
            metrics, ledger, lines = measure.measured_run(
                workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 1 if ledger.failed else 0


def _run_child(name: str, args: argparse.Namespace):
    """One workload in a fresh process: (report lines, JSON result), or
    None when it produced no result."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"{name}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    return lines[:-1], json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, then one table of all.  With
    tracing, each workload runs in a second fresh process too, and the
    run fails unless its work counts repeat exactly."""
    from measure import COUNT_METRICS

    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        child = _run_child(name, args)
        if child is None:
            return 1
        report, results[name] = child
        print("\n".join(report))
        if not results[name]["correct"]:
            status = 1
        if args.trace:
            again = _run_child(name, args)
            if again is None:
                return 1
            first, second = results[name]["metrics"], again[1]["metrics"]
            differ = [metric for metric in COUNT_METRICS
                      if first[metric]["value"] != second[metric]["value"]]
            print(f"  counts repeat across two fresh processes: "
                  f"{not differ}" + (f" (differ: {differ})" if differ else ""))
            if differ:
                status = 1
    metric_names = list(next(iter(results.values()))["metrics"])
    print()
    print(f"{'metric':<30} {'unit':<6}"
          + "".join(f"{name:>16}" for name in results))
    for metric in metric_names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric:<30} {unit:<6}" + "".join(
            f"{r['metrics'][metric]['value']:>16.4f}"
            for r in results.values()))
    print(f"{'error_rate':<30} {'':<6}" + "".join(
        f"{r['failed'] / r['attempted']:>16.6f}" for r in results.values()))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}/repro; run "
              f"from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
