"""Assemble a BENCH_<n>.json: the benchmark of two source checkouts, side by side.

Usage, from anywhere:

    python3 tools/bench_record.py --parent ../parent --change . \
        --workload bkoc-evppi=10 --workload synth1-run=5 --out BENCH_6.json

For each workload of ``perfbench/run.py`` (all three, 10 pairs each, unless
``--workload NAME=PAIRS`` names some) it runs pairs of parent and change,
alternating which side runs first, each ``--trace 0`` for ``--seconds``,
and keeps the report line and the metrics line that each run prints. It
then runs the adaptive driver of each checkout over ``--seeds`` seeds at the
fixed targets in COST_RUNS and records the median, quartiles and range of
``total_cost``. Both checkouts run on the same machine, one process at a
time; the machine record of every run is in its report line. Only the
standard library is used; each checkout needs its own ``src/voimc``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("synth1-run", "bkoc-evppi", "synth2-levels")

# Fixed targets of the cost-over-seeds record: the two adaptive workloads'
# models and targets, on seeds 1..N instead of their pinned seed.
COST_RUNS = {
    "synthetic1 eps=0.0008": ("synthetic1", None, 0.0008),
    "bkoc (5,14) eps=6": ("bkoc", (5, 14), 6.0),
}

COST_CODE = """\
import json, sys
from voimc import RandomStream, make_model
from voimc.mlmc import MlmcConfig, mlmc_run
name, outer, eps, seeds = json.loads(sys.argv[1])
model = make_model(name, outer=tuple(outer) if outer else None)
print(json.dumps([
    mlmc_run(model, MlmcConfig(epsilon=eps), RandomStream(seed)).total_cost
    for seed in range(1, seeds + 1)
]))
"""


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    report, metrics = done.stdout.strip().splitlines()[-2:]
    return {"report": json.loads(report), "metrics": json.loads(metrics)}


def costs_over_seeds(tree: Path, seeds: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    out = {}
    for label, (name, outer, eps) in COST_RUNS.items():
        done = subprocess.run(
            [sys.executable, "-c", COST_CODE, json.dumps([name, outer, eps, seeds])],
            env=env, capture_output=True, text=True, check=True,
        )
        costs = json.loads(done.stdout)
        q1, median, q3 = statistics.quantiles(costs, n=4)
        out[label] = {
            "seeds": f"1..{seeds}",
            "median": median,
            "quartiles": [q1, q3],
            "iqr_over_median": (q3 - q1) / median,
            "range": [min(costs), max(costs)],
            "total_cost": costs,
        }
    return out


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs of one side."""
    out = {}
    for name in runs[0]["metrics"]["metrics"]:
        values = [r["metrics"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "quartiles": [q1, q3]}
    return out


def workload_pairs(spec: str) -> tuple[str, int]:
    name, _, pairs = spec.partition("=")
    if name not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}")
    return name, int(pairs or 10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--workload", action="append", type=workload_pairs)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    workloads = {}
    for workload, pairs in args.workload or [(name, 10) for name in WORKLOADS]:
        runs = {"parent": [], "change": []}
        for pair in range(pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(bench_once(trees[side], workload, pair + 1, args.seconds))
                print(workload, side, pair + 1, file=sys.stderr, flush=True)
        solve = {
            side: [r["metrics"]["metrics"]["solve_s"]["value"] for r in side_runs]
            for side, side_runs in runs.items()
        }
        wins = sum(c < p for p, c in zip(solve["parent"], solve["change"]))
        workloads[workload] = {
            "pairs": pairs,
            "solve_s_pairs_won_by_change": wins,
            "summary": {side: summary(r) for side, r in runs.items()},
            "runs": runs,
        }
    record = {
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "order": "pairs alternate which side runs first, parent first in pair 1",
        "workloads": workloads,
        "total_cost_over_seeds": {
            side: costs_over_seeds(tree, args.seeds) for side, tree in trees.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
