"""The voimc benchmark: one workload per invocation, run through ``voimc.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload synth1-run --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the command runs once to warm up and is then repeated,
with tracing off, for as long as another repetition fits in ``--seconds``;
a fixed calibration kernel is timed between repetitions, and the reported
times are scaled by it to a reference machine speed (see ``Calibration``).
With ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics of the traced ones are reported. Every repetition's
output is checked for correctness. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full report, with the machine record.
Spans of traced runs are written under ``.perfbench_work/``.

The workloads pin the CLI seeds that make ``total_cost`` an exact count and
every correctness check deterministic; ``--seed`` is recorded in the report
but selects no draws. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread per sampling thread: the bkoc workload's 2 threads then use
# 2 CPUs, not 2 x nproc. Output bytes do not depend on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# Fresh interpreters per run for setup_s; a single import varies by nearly 2x.
SETUP_REPEATS = 7

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import voimc
outer = tuple(int(i) for i in sys.argv[2].split(",")) if sys.argv[2] else None
voimc.make_model(name=sys.argv[1], outer=outer)
print(repr(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    reference: str
    suffix: str

    def value(self, flag: str, default: str = "") -> str:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else default


WORKLOADS = {
    "synth1-run": Workload(
        argv=("run", "--model", "synthetic1", "--epsilon", "0.0008", "--seed", "7",
              "--threads", "1"),
        reference="synthetic1", suffix="json",
    ),
    "bkoc-evppi": Workload(
        argv=("evppi", "--model", "bkoc", "--outer", "5,14", "--epsilon", "6", "--seed", "1",
              "--threads", "2"),
        reference="bkoc_5_14", suffix="json",
    ),
    "synth2-levels": Workload(
        argv=("levels", "--model", "synthetic2", "--max-level", "12", "--n", "2000",
              "--seed", "1", "--threads", "1"),
        reference="synthetic2", suffix="csv",
    ),
}


@dataclass
class Solve:
    code: int
    seconds: float
    output: bytes
    stdout: str


@dataclass
class Checked:
    errors: list[str]
    inner_samples: int
    total_cost: int
    error_over_eps: float


# ---------------------------------------------------------------------------
# Correctness checks


def _within(estimate: float, ref: dict, tolerance: float, what: str, errors: list[str]) -> None:
    limit = tolerance + 3.0 * ref["std_error"]
    if not abs(estimate - ref["value"]) <= limit:
        errors.append(f"{what} {estimate!r} is not within {limit:.4g} of {ref['value']!r}")


def check_run(w: Workload, s: Solve, refs: dict) -> Checked:
    data = json.loads(s.output)
    eps = float(w.value("--epsilon"))
    errors = [] if data["converged"] else ["driver did not converge"]
    ref = refs["gap"]
    _within(data["estimate"], ref, 3.0 * eps, "estimate", errors)
    if data["total_cost"] != sum(row["n"] * row["cost"] for row in data["levels"]):
        errors.append("total_cost disagrees with the level rows")
    return Checked(
        errors, data["total_cost"], data["total_cost"], abs(data["estimate"] - ref["value"]) / eps
    )


def check_evppi(w: Workload, s: Solve, refs: dict) -> Checked:
    data = json.loads(s.output)
    eps = float(w.value("--epsilon"))
    errors = [] if data["converged"] else ["driver did not converge"]
    _within(data["difference"], refs["gap"], 3.0 * eps, "difference", errors)
    _within(data["evpi"], refs["evpi"], 3.0 * data["evpi_std_error"], "evpi", errors)
    if data["evppi"] != data["evpi"] - data["difference"]:
        errors.append("evppi != evpi - difference")
    return Checked(
        errors,
        data["total_cost"] + data["n_evpi"],
        data["total_cost"],
        abs(data["difference"] - refs["gap"]["value"]) / eps,
    )


def check_levels(w: Workload, s: Solve, refs: dict) -> Checked:
    lines = s.output.decode().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    errors = []
    n = int(w.value("--n"))
    if [int(r["level"]) for r in rows] != list(range(int(w.value("--max-level")) + 1)):
        errors.append("level rows are not 0..max-level")
    if any(r["n"] != n for r in rows):
        errors.append("a level row does not hold --n draws")
    first = rows[0]
    if any(first[k] != 0.0 for k in ("mean_z", "var_z", "mean_p", "var_p")):
        errors.append("level-0 row is not exactly zero")
    rates = re.search(r"alpha=(\S+) beta=(\S+)", s.stdout)
    if rates is None:
        errors.append("no fitted rates in the summary line")
    else:
        alpha, beta = float(rates.group(1)), float(rates.group(2))
        if not 0.5 <= alpha <= 0.8:
            errors.append(f"fitted alpha {alpha} outside [0.5, 0.8]")
        if not 0.9 <= beta <= 1.35:
            errors.append(f"fitted beta {beta} outside [0.9, 1.35]")
    cost = sum(int(r["n"]) * int(r["cost"]) for r in rows)
    # No eps is given to a sweep; use the one its variance would meet under the
    # driver's rule Var <= eps^2 / 2.
    eps = math.sqrt(2.0 * sum(r["var_z"] / r["n"] for r in rows))
    gap = math.fsum(r["mean_z"] for r in rows)
    return Checked(errors, cost, cost, abs(gap - refs["gap"]["value"]) / eps)


CHECKS = {"run": check_run, "evppi": check_evppi, "levels": check_levels}


# ---------------------------------------------------------------------------
# Measurement


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class Calibration:
    """A fixed kernel, independent of voimc, timed between the measured steps.

    The shared machine's speed drifts by 10-25% over minutes, and a slower
    machine slows the calibration kernel as much as the workload. Each
    measured step is divided by the mean of the calibrations just before and
    just after it and multiplied by REFERENCE_S, which reports the step in
    seconds at the machine speed where the kernel takes REFERENCE_S. A change
    to voimc moves the step and not the kernel, so it shows in full.

    With ``threads`` > 1 that many copies run at once, so the kernel sees
    contention on every CPU the workload uses.
    """

    SIZE = 1 << 18
    REFERENCE_S = 0.12

    def __init__(self, threads: int):
        import numpy
        from scipy.special import ndtri

        self._numpy, self._ndtri = numpy, ndtri
        self._u = numpy.random.default_rng(0).random(self.SIZE)
        # Buffers are allocated once, so the kernel adds a fixed amount to
        # peak_rss_mb and no allocator churn of its own.
        self._buffers = [(numpy.empty(self.SIZE), numpy.empty(self.SIZE)) for _ in range(threads)]
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self._threads = threads
        self.seconds: list[float] = []
        self._kernel()

    def _kernel(self, copy: int = 0) -> float:
        # numpy and scipy release the GIL here, so copies on threads overlap.
        np = self._numpy
        z, tmp = self._buffers[copy]
        total = 0.0
        for _ in range(16):
            self._ndtri(self._u, out=z)
            total += float(z.reshape(-1, 64).max(axis=1).sum())
            np.multiply(z, z, out=tmp)
            tmp *= -0.5
            np.exp(tmp, out=tmp)
            total += float(tmp.sum())
        for i in range(50_000):
            total += i & 7
        return total

    def measure(self) -> float:
        start = time.perf_counter()
        if self._pool is None:
            self._kernel()
        else:
            list(self._pool.map(self._kernel, range(self._threads)))
        self.seconds.append(time.perf_counter() - start)
        return self.seconds[-1]

    def scaled(self, step) -> tuple[float, float]:
        """Runs ``step()``, which returns seconds, after the last calibration and
        before a new one; returns its raw and its scaled seconds."""
        before = self.seconds[-1] if self.seconds else self.measure()
        raw = step()
        after = self.measure()
        return raw, raw * self.REFERENCE_S / ((before + after) / 2.0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def setup_seconds(w: Workload, calibration: Calibration) -> tuple[list[float], list[float]]:
    """Import plus model build in fresh interpreters, raw and scaled; the first
    compiles the bytecode cache and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, w.value("--model"), w.value("--outer")]

    def once() -> float:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    once()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        r, s = calibration.scaled(once)
        raw.append(r)
        scaled.append(s)
    return raw, scaled


def solve(cli, w: Workload, out: Path) -> Solve:
    """One in-process CLI call; an exception counts as a failed solve."""
    argv = [*w.argv, "--output", str(out)]
    out.unlink(missing_ok=True)
    captured = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            crash = traceback.format_exc()
        seconds = time.perf_counter() - start
    if crash:
        print(crash, file=sys.stderr)
    output = out.read_bytes() if out.exists() else b""
    return Solve(code, seconds, output, captured.getvalue())


class Session:
    """Runs one workload's solves, checks each, and keeps the tallies."""

    def __init__(self, name: str, refs: dict, out: Path):
        self.workload = WORKLOADS[name]
        self.refs = refs
        self.out = out
        self.check = CHECKS[self.workload.argv[0]]
        self.first_output: bytes | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.checked: Checked | None = None

    def run(self, cli) -> Solve:
        s = solve(cli, self.workload, self.out)
        errors = [] if s.code == 0 else [f"exit code {s.code}"]
        if not errors:
            self.checked = self.check(self.workload, s, self.refs)
            errors += self.checked.errors
        if self.first_output is None:
            self.first_output = s.output
        elif s.output != self.first_output:
            errors.append("output bytes differ from the first run's")
        self.record(errors)
        return s

    def record(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failures.append("; ".join(errors))


def timed(session: Session, cli, seconds: float) -> dict:
    start = time.perf_counter()
    warmup = session.run(cli).seconds
    calibration = Calibration(int(session.workload.value("--threads", "1")))
    try:
        times, scaled = [], []
        while True:
            raw, s = calibration.scaled(lambda: session.run(cli).seconds)
            times.append(raw)
            scaled.append(s)
            if time.perf_counter() - start + statistics.median(times) > seconds:
                break
        setup_raw, setup_scaled = setup_seconds(session.workload, calibration)
    finally:
        calibration.close()
    solve_s = statistics.median(scaled)
    c = session.checked
    return {
        "metrics": {
            "solve_s": solve_s,
            "inner_samples_per_s": c.inner_samples / solve_s if c else 0.0,
            "total_cost": c.total_cost if c else 0,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "warmup_seconds": warmup,
        "solve_seconds": times,
        "solve_scaled_seconds": scaled,
        "setup_seconds": setup_raw,
        "setup_scaled_seconds": setup_scaled,
        "calibration_seconds": calibration.seconds,
    }


def traced(session: Session, cli, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer, layer_metrics

    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        plain_solve = session.run(cli)
        tracer = Tracer()
        tracer.install()
        try:
            traced_solve = solve(cli, session.workload, session.out)
        finally:
            tracer.uninstall()
        plain.append(plain_solve.seconds)
        with_trace.append(traced_solve.seconds)
        metrics = layer_metrics(tracer.spans, traced_solve.seconds, threading.get_ident())
        errors = [] if traced_solve.code == 0 else [f"traced exit code {traced_solve.code}"]
        if traced_solve.output != plain_solve.output:
            errors.append("traced output bytes differ from untraced")
        if metrics["trace.coverage"] < 0.99:
            errors.append(f"trace coverage {metrics['trace.coverage']:.4f} < 0.99")
        if session.checked and metrics["estimators.inner_samples"] != session.checked.inner_samples:
            errors.append("traced inner samples disagree with the output")
        session.record(errors)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    tracer.write(spans_path)
    metrics["mlmc.error_over_eps"] = session.checked.error_over_eps if session.checked else 0.0
    metrics["trace.overhead_frac"] = statistics.median(with_trace) / statistics.median(plain) - 1
    return {
        "metrics": metrics,
        "solve_seconds": plain,
        "traced_solve_seconds": with_trace,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "voimc" / "__init__.py").is_file():
        print(f"no voimc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import voimc
    from voimc import cli

    if Path(voimc.__file__).resolve().parent != SRC / "voimc":
        print(f"imported voimc from {voimc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    refs = json.loads((BENCH / "references.json").read_text())
    w = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    session = Session(args.workload, refs[w.reference], work / f"output.{w.suffix}")

    if args.trace:
        body = traced(session, cli, args.seconds, work / "spans.json")
    else:
        body = timed(session, cli, args.seconds)
    units = declared_units(args.trace)
    if set(units) != set(body["metrics"]):
        print(f"computed metrics {sorted(body['metrics'])} differ from the declared "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    metrics = {k: {"value": v, "unit": units[k]} for k, v in body["metrics"].items()}

    failed = len(session.failures)
    report = {
        "workload": args.workload,
        "argv": list(w.argv),
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        "failed_frac": failed / session.attempted,
        "failures": session.failures,
        **body,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
