"""Assemble a BENCH_<n>.json: the benchmark of two source checkouts, side by side.

Usage, from anywhere:

    python3 tools/bench_record.py --parent ../parent --change . \
        --workload bkoc-evppi=10 --workload synth1-run=5 --out BENCH_6.json

For each workload of ``perfbench/run.py`` (all three, 10 pairs each, unless
``--workload NAME=PAIRS`` names some) it runs pairs of parent and change,
alternating which side runs first, each ``--trace 0`` for ``--seconds``,
and keeps the report line and the metrics line that each run prints. For
each end-to-end metric of the change's ``BENCHMARK.json`` it records the
change/parent ratio of the medians, the parent's interquartile range, and
whether the change's median stays within the metric's bound, and prints
that table to stderr. It then runs the adaptive driver of each checkout
over ``--seeds`` seeds at the fixed targets in COST_RUNS and records the
median, quartiles and range of ``total_cost``, and the plain-MC EVPI over
the seeds of EVPI_RUN, folded from the block map of its blocks as the EVPPI
report folds them, for the spread of its estimates against its median
reported error. Last, it runs each checkout once with ``--trace 1`` on
TRACE_WORKLOAD and keeps its per-layer metrics, with the driver's time,
the EVPI blocks the driver's passes carried and those mapped after it, and
the report's tail after the driver, read from the spans of the last traced
call (see ``evpi_timeline``). Before
that it records the ``tracemalloc`` peak of one full block per level of
MEMORY_LEVELS for each of MEMORY_MODELS, and of one full EVPI block, each
in its own process (see ``block_memory``), beside the end-to-end
``peak_rss_mb`` of the pairs. Finally it
runs each command of SAME_BYTES_COMMANDS on both checkouts at 1, 2 and 3
threads and records the sha256 of every output file, with a
``same_bytes`` flag per command and one for the whole list. It also
records the line count of each checkout's ``src/voimc/*.py``
(``src_lines``). Both checkouts run on the same machine, one process at a time; the machine record of every run is in
its report line. Only the standard library is used; each checkout needs
its own ``src/voimc``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
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


# The EVPI-over-seeds record: model, partition, joint draws per estimate,
# and the number of seeds (1..N).
EVPI_RUN = ("bkoc", (5, 14), 50_000, 40)

EVPI_CODE = """\
import json, sys
from voimc import RandomStream, make_model
from voimc.estimators import _evpi_blocks, _fold_regrets, _map_blocks
name, outer, n, seeds = json.loads(sys.argv[1])
model = make_model(name, outer=tuple(outer))
estimates = [
    _fold_regrets(model, _map_blocks(_evpi_blocks(model, n, RandomStream(seed))))
    for seed in range(1, seeds + 1)
]
print(json.dumps([[e.value, e.std_error] for e in estimates]))
"""


# The block-memory record: the tracemalloc peak, in MB, of one full level
# block through the public ``accumulate_level`` at each of MEMORY_LEVELS for
# each model, and of one full EVPI block, each in its own subprocess. The
# levels reach past both models' switch to one-draw blocks (bkoc at 16,
# synthetic1 at 19).
MEMORY_MODELS = {"bkoc (5,14)": ("bkoc", (5, 14)), "synthetic1": ("synthetic1", None)}
MEMORY_LEVELS = range(1, 21)

MEMORY_CODE = """\
import json, sys, tracemalloc
from voimc import MomentAccumulator, RandomStream, make_model
from voimc.estimators import _block_size, _evpi_blocks, _fold_regrets, _map_blocks
from voimc.estimators import accumulate_level
name, outer, level = json.loads(sys.argv[1])
model = make_model(name, outer=tuple(outer) if outer else None)
tracemalloc.start()
if level is None:
    _fold_regrets(model, _map_blocks(_evpi_blocks(model, _block_size(model, 1, unit=2),
                                                  RandomStream(1))))
else:
    n = _block_size(model, 1 << level)
    accumulate_level(model, level, n, RandomStream(1), MomentAccumulator(), MomentAccumulator())
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


# The traced record: one ``--trace 1`` run per checkout of this workload.
TRACE_WORKLOAD = "bkoc-evppi"

# The same-bytes record: the three workloads' CLI calls (perfbench/run.py,
# without their --threads) and an EVPPI call whose EVPI has more blocks than
# the driver has passes, so that some are mapped after the driver. Each runs
# at every count of SAME_BYTES_THREADS.
SAME_BYTES_COMMANDS = (
    ("run", "--model", "synthetic1", "--epsilon", "0.0008", "--seed", "7"),
    ("evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "6", "--seed", "1"),
    ("levels", "--model", "synthetic2", "--max-level", "12", "--n", "2000", "--seed", "1"),
    ("evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "20", "--seed", "1",
     "--n", "2000000"),
)
SAME_BYTES_THREADS = (1, 2, 3)


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


def evpi_over_seeds(tree: Path) -> dict:
    """The spread of the EVPI's estimates over seeds 1..N against the median
    of the standard errors it reports; a calibrated error gives a ratio
    near 1."""
    name, outer, n, seeds = EVPI_RUN
    done = subprocess.run(
        [sys.executable, "-c", EVPI_CODE, json.dumps([name, outer, n, seeds])],
        env=dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, check=True,
    )
    values, errors = zip(*json.loads(done.stdout))
    spread = statistics.stdev(values)
    median_error = statistics.median(errors)
    return {
        "model": f"{name} {tuple(outer)} n={n}",
        "seeds": f"1..{seeds}",
        "mean": statistics.fmean(values),
        "spread": spread,
        "median_reported_error": median_error,
        "spread_over_reported": spread / median_error,
    }


def block_memory(tree: Path) -> dict:
    """The tracemalloc peak (MB) of one full block per level and model, and
    of one full EVPI block of the first model, each in a fresh process."""

    def peak(name, outer, level):
        done = subprocess.run(
            [sys.executable, "-c", MEMORY_CODE, json.dumps([name, outer, level])],
            env=dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, check=True,
        )
        return float(done.stdout)

    record = {
        label: {str(level): peak(name, outer, level) for level in MEMORY_LEVELS}
        for label, (name, outer) in MEMORY_MODELS.items()
    }
    label, (name, outer) = next(iter(MEMORY_MODELS.items()))
    record[f"evpi {label}"] = peak(name, outer, None)
    return record


def evpi_timeline(spans: list[dict]) -> dict:
    """Seconds of one traced EVPPI call, and where its EVPI blocks ran. An
    EVPI block is an ``estimators.block`` span whose joint draws have one
    inner draw per outer draw: its ``models.sample_inner`` children count
    as many values as its ``models.sample_outer`` ones, where a level
    block's count 2^l times as many. Those the finishing call maps once the
    driver has returned have the ``mlmc.evppi_report`` span itself as
    parent; the others ran in the driver's passes. The tail is the report's
    time after the driver returns."""
    draws: dict = {}
    for s in spans:
        if s["name"] in ("models.sample_outer", "models.sample_inner"):
            outer_inner = draws.setdefault(s["parent"], [0, 0])
            outer_inner[s["name"] == "models.sample_inner"] += s["count"]
    evpi = [
        s for s in spans
        if s["name"] == "estimators.block" and len(set(draws.get(s["id"], [0, 1]))) == 1
    ]
    driver = next(s for s in spans if s["name"] == "mlmc.mlmc_run")
    report = next(s for s in spans if s["name"] == "mlmc.evppi_report")
    after = sum(s["parent"] == report["id"] for s in evpi)
    return {
        "driver_s": driver["end"] - driver["start"],
        "evpi_blocks_carried_by_passes": len(evpi) - after,
        "evpi_blocks_mapped_after_driver": after,
        "evpi_tail_after_driver_s": report["end"] - driver["end"],
    }


def trace_once(tree: Path, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", TRACE_WORKLOAD, "--seed", "1",
         "--seconds", str(seconds), "--trace", "1"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    report, metrics = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    spans = json.loads((tree / report["spans_file"]).read_text())
    return {
        "workload": TRACE_WORKLOAD,
        "failed": metrics["failed"],
        "metrics": {name: m["value"] for name, m in metrics["metrics"].items()},
        "last_traced_call": evpi_timeline(spans),
    }


def output_digests(tree: Path) -> list[dict]:
    """Per command of SAME_BYTES_COMMANDS, the sha256 of its output file at
    each thread count, run from the checkout's own source."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    digests = []
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        for argv in SAME_BYTES_COMMANDS:
            by_threads = {}
            for threads in SAME_BYTES_THREADS:
                subprocess.run(
                    [sys.executable, "-m", "voimc.cli", *argv, "--threads", str(threads),
                     "--output", str(out)],
                    env=env, cwd=scratch, capture_output=True, check=True,
                )
                by_threads[str(threads)] = hashlib.sha256(out.read_bytes()).hexdigest()
            digests.append(by_threads)
    return digests


def same_bytes(trees: dict) -> dict:
    """Whether every command writes the same bytes on both checkouts at
    every thread count, with the digests behind each answer."""
    digests = {side: output_digests(tree) for side, tree in trees.items()}
    commands = []
    for k, argv in enumerate(SAME_BYTES_COMMANDS):
        sha256 = {side: digests[side][k] for side in trees}
        same = len({h for by_threads in sha256.values() for h in by_threads.values()}) == 1
        commands.append({"argv": list(argv), "same_bytes": same, "sha256": sha256})
        print("same bytes" if same else "BYTES DIFFER", *argv, file=sys.stderr)
    return {
        "threads": list(SAME_BYTES_THREADS),
        "same_bytes": all(c["same_bytes"] for c in commands),
        "commands": commands,
    }


def src_lines(tree: Path) -> int:
    """Lines of the checkout's ``src/voimc/*.py``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "voimc").glob("*.py"))


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs of one side."""
    out = {}
    for name in runs[0]["metrics"]["metrics"]:
        values = [r["metrics"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "quartiles": [q1, q3]}
    return out


def comparison(summaries: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: the change/parent ratio of the medians, the
    parent's interquartile range, and whether the change's median is worse
    than the parent's by no more than the metric's bound."""
    out = {}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        parent, change = summaries["parent"][name], summaries["change"][name]
        q1, q3 = parent["quartiles"]
        ratio = change["median"] / parent["median"]
        worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
        out[name] = {
            "change_over_parent": ratio,
            "parent_iqr": q3 - q1,
            "bound": bound,
            "within_bound": worse_by <= bound,
        }
    return out


def print_table(workloads: dict) -> None:
    print(f"{'workload':<14} {'metric':<20} {'parent median':>14} {'change median':>14} "
          f"{'ratio':>7} {'parent IQR':>11} within", file=sys.stderr)
    for workload, record in workloads.items():
        for name, row in record["comparison"].items():
            parent = record["summary"]["parent"][name]["median"]
            change = record["summary"]["change"][name]["median"]
            print(f"{workload:<14} {name:<20} {parent:>14.6g} {change:>14.6g} "
                  f"{row['change_over_parent']:>7.4f} {row['parent_iqr']:>11.4g} "
                  f"{'yes' if row['within_bound'] else 'NO'}", file=sys.stderr)


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
    end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

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
        summaries = {side: summary(r) for side, r in runs.items()}
        workloads[workload] = {
            "pairs": pairs,
            "solve_s_pairs_won_by_change": wins,
            "summary": summaries,
            "comparison": comparison(summaries, end_to_end),
            "runs": runs,
        }
    print_table(workloads)
    record = {
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "order": "pairs alternate which side runs first, parent first in pair 1",
        "workloads": workloads,
        "total_cost_over_seeds": {
            side: costs_over_seeds(tree, args.seeds) for side, tree in trees.items()
        },
        "evpi_over_seeds": {
            side: evpi_over_seeds(tree) for side, tree in trees.items()
        },
        "block_memory_mb": {side: block_memory(tree) for side, tree in trees.items()},
        "trace": {side: trace_once(tree, args.seconds) for side, tree in trees.items()},
        "same_bytes": same_bytes(trees),
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
