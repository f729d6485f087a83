"""Command-line front end.

Four subcommands drive the library: ``run`` (the adaptive estimator at one
accuracy target), ``levels`` (a per-level statistics sweep), ``compare``
(multilevel cost against the modeled standard-MC cost over several
targets), and ``evppi`` (the EVPI / EVPPI summary for one partition).

Every command writes one output file (CSV or JSON) and prints a one-line
summary. Output bytes are a pure function of the flags and the seed; worker
count and wall clock never leak into them. Each command opens one worker
pool (none at ``--threads 1``) and passes it to the library as ``pool=``.
Exit codes: 0 success, 2 usage, 3 configuration, 4 driver non-convergence
(outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import Executor
from pathlib import Path
from typing import Sequence

from .diagnostics import LevelStats, fit_rates, level_sweep
from .errors import ConfigError, InsufficientDataError, VoimcError
from .estimators import worker_pool
from .mlmc import MlmcConfig, cost_comparison, evppi_report, mlmc_run
from .models import BkocModel, DecisionModel, MODEL_NAMES, make_model
from .streams import RandomStream

# Fixed default so bare invocations are reproducible run to run.
DEFAULT_SEED = 101

SCHEMA_VERSION = "1"

OUTPUT_DIR_ENV = "VOIMC_OUTPUT_DIR"

# --threads is refused above this many workers per CPU the process may run on.
THREADS_PER_CPU = 4

_LEVEL_COLUMNS = ("level", "n", "mean_z", "var_z", "kurtosis_z", "mean_p", "var_p", "cost")
_COMPARE_COLUMNS = ("epsilon", "mlmc_cost", "std_cost_model", "ratio")
_EVPPI_COLUMNS = (
    "evpi",
    "evpi_std_error",
    "difference",
    "difference_rms_error",
    "evppi",
    "evppi_rms_error",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voimc",
        description="Estimate the expected value of perfect and partial "
        "perfect information by multilevel Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, epsilon: str = "", plot: bool = False) -> None:
        if epsilon:
            p.add_argument("--epsilon", action="append", type=float, help=epsilon)
        p.add_argument("--model", help=f"built-in model name ({', '.join(MODEL_NAMES)})")
        p.add_argument("--config", help="path to a JSON model configuration file")
        p.add_argument(
            "--outer",
            help="comma-separated 1-based indices of the observed variables "
            "(models with a configurable partition only)",
        )
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help=f"worker threads for sampling, at most {THREADS_PER_CPU} per CPU; "
            "never affects the output bytes",
        )
        p.add_argument(
            "--output",
            help=f"output file path (default: derived name under ${OUTPUT_DIR_ENV} "
            "or the working directory)",
        )
        p.add_argument("--format", choices=("csv", "json"), help="output file format")
        if plot:
            p.add_argument(
                "--emit-plot-script",
                action="store_true",
                help="also write a gnuplot script next to the CSV output",
            )

    p_run = sub.add_parser("run", help="adaptive estimate of EVPI - EVPPI at one target")
    p_run.add_argument("--max-level", type=int, default=25, help="finest level the driver may use")
    add_common(p_run, epsilon="RMS accuracy target (exactly one)")

    p_levels = sub.add_parser("levels", help="per-level statistics sweep")
    p_levels.add_argument("--max-level", type=int, default=10, help="finest level to sweep")
    p_levels.add_argument(
        "--n", type=int, default=200_000, help="independent draws per level"
    )
    add_common(p_levels, plot=True)

    p_compare = sub.add_parser(
        "compare", help="multilevel cost vs modeled standard-MC cost over targets"
    )
    add_common(p_compare, epsilon="RMS accuracy target (repeat for several)", plot=True)

    p_evppi = sub.add_parser("evppi", help="EVPI / EVPPI report for one partition")
    p_evppi.add_argument(
        "--n",
        type=int,
        help="joint draws for the plain-MC EVPI, taken in antithetic pairs: "
        "even and at least 4 (default: sized by a pilot block for a standard "
        "error of about epsilon/2)",
    )
    add_common(p_evppi, epsilon="RMS target for the gap (exactly one)")

    return parser


# ---------------------------------------------------------------------------
# Serialization


def _sanitize(obj):
    """Replace non-finite floats with None so JSON stays strictly standard."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # 17 significant digits round-trip any double exactly.
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _level_rows(stats: Sequence[LevelStats]) -> list[tuple]:
    return [
        (s.level, s.n, s.mean_z, s.var_z, s.kurtosis_z, s.mean_p, s.var_p, s.cost_per_sample)
        for s in stats
    ]


def _level_dicts(stats: Sequence[LevelStats]) -> list[dict]:
    return [dict(zip(_LEVEL_COLUMNS, row)) for row in _level_rows(stats)]


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


# ---------------------------------------------------------------------------
# Shared argument handling


def _parse_outer(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        indices = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"--outer must be a comma-separated index list: {exc}") from exc
    if not indices:
        raise ConfigError("--outer must name at least one variable")
    return indices


def _build_model(args) -> DecisionModel:
    return make_model(
        name=args.model, config=args.config, outer=_parse_outer(args.outer)
    )


def _single_epsilon(args) -> float:
    values = args.epsilon or []
    if len(values) != 1:
        raise ConfigError("give exactly one --epsilon for this command")
    return float(values[0])


def _epsilon_list(args) -> list[float]:
    values = args.epsilon or []
    if not values:
        raise ConfigError("give at least one --epsilon")
    return sorted({float(v) for v in values}, reverse=True)


def _model_label(args) -> str:
    raw = args.model if args.model else Path(args.config).stem
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in raw)


def _output_path(args, default_name: str) -> Path:
    """The output file, refused when it names a directory or lies below a
    file (a name the filesystem refuses raises OSError here); missing
    directories are made only when the file is written."""
    if args.output:
        path = Path(args.output)
    else:
        path = Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / default_name
    existing = next(parent for parent in path.parents if parent.exists())
    if path.is_dir() or not existing.is_dir():
        raise ConfigError(f"cannot write the output file {path}")
    return path


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be positive")
    return int(value)


def _threads(value: int) -> int:
    """A worker count from 1 to THREADS_PER_CPU per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    limit = THREADS_PER_CPU * (cpus or 1)
    threads = _positive(value, "--threads")
    if threads > limit:
        raise ConfigError(f"--threads must be at most {limit} ({THREADS_PER_CPU} per CPU)")
    return threads


def _outer_list(model: DecisionModel) -> list[int] | None:
    if isinstance(model, BkocModel):
        return [int(i) for i in model.spec.outer_indices]
    return None


# ---------------------------------------------------------------------------
# Plot scripts

_LEVELS_PLOT = """\
# Per-level decay of the correction mean and variances.
set datafile separator ","
set key autotitle columnhead
set key top right
set xlabel "level"
set logscale y 2
plot "{csv}" using 1:(abs($3)) with linespoints title "|mean Z|", \\
     "{csv}" using 1:4 with linespoints title "var Z", \\
     "{csv}" using 1:7 with linespoints title "var P"
"""

_COMPARE_PLOT = """\
# Normalized cost against the accuracy target.
set datafile separator ","
set key autotitle columnhead
set key top right
set xlabel "epsilon"
set logscale xy 10
plot "{csv}" using 1:($1*$1*$2) with linespoints title "eps^2 x multilevel cost", \\
     "{csv}" using 1:($1*$1*$3) with linespoints title "eps^2 x standard cost (modeled)"
"""


def _emit_plot(path: Path, template: str) -> Path:
    script = path.with_suffix(path.suffix + ".gnuplot")
    script.write_text(template.format(csv=path.name))
    return script


# ---------------------------------------------------------------------------
# Subcommands


def _write_output(
    args,
    model: DecisionModel,
    fmt: str,
    path: Path,
    fields: dict,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    summary: str,
    plot: str | None = None,
    failure: str | None = None,
) -> int:
    """Write one command's result file and summary line; returns the exit code.

    JSON output is the envelope plus ``fields``; CSV output is ``columns``
    and ``rows``. ``plot`` is the gnuplot template ``--emit-plot-script``
    writes, and a ``failure`` message marks a non-converged run (exit 4).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "model": _model_label(args),
            "outer_indices": _outer_list(model),
            "seed": int(args.seed),
        }
        write_json(path, {**envelope, **fields})
    else:
        write_csv(path, columns, rows)
    note = ""
    if plot is not None and args.emit_plot_script:
        note = f" plot={_emit_plot(path, plot)}"
    print(f"{summary} -> {path}{note}")
    if failure is not None:
        _emit_error("non_convergence", f"{failure}; partial results written to {path}")
        return 4
    return 0


# Each command samples on the pool ``main`` opened and returns the keyword
# arguments of ``_write_output``, so the output is written after the pool closes.


def _cmd_run(args, model: DecisionModel, pool: Executor | None) -> dict:
    epsilon = _single_epsilon(args)
    config = MlmcConfig(epsilon=epsilon, max_level=_positive(args.max_level, "--max-level"))
    result = mlmc_run(model, config, RandomStream(args.seed), pool=pool)
    status = "converged" if result.converged else "NOT CONVERGED"
    return dict(
        fields={
            "epsilon": result.epsilon,
            "estimate": result.estimate,
            "converged": result.converged,
            "variance_of_estimator": result.variance_of_estimator,
            "bias_estimate": result.bias_estimate,
            "fitted_alpha": result.fitted_alpha,
            "fitted_beta": result.fitted_beta,
            "max_level_used": result.max_level_used,
            "total_cost": result.total_cost,
            "allocations": list(result.allocations),
            "levels": _level_dicts(result.level_stats),
            "history": list(result.history),
            "warnings": list(result.warnings),
        },
        columns=_LEVEL_COLUMNS,
        rows=_level_rows(result.level_stats),
        summary=f"run {_model_label(args)} epsilon={epsilon:g} estimate={result.estimate:.6g} "
        f"{status} levels=1..{result.max_level_used} cost={result.total_cost}",
        failure=None
        if result.converged
        else f"bias target not reached by level {result.max_level_used}",
    )


def _cmd_levels(args, model: DecisionModel, pool: Executor | None) -> dict:
    stats = level_sweep(
        model,
        _positive(args.max_level, "--max-level"),
        _positive(args.n, "--n"),
        RandomStream(args.seed),
        pool=pool,
    )
    try:
        rates = fit_rates(stats, min_level=2)
        rate_note = f"alpha={rates.alpha:.3f} beta={rates.beta:.3f}"
    except InsufficientDataError:
        rates = None
        rate_note = "rates unavailable"
    return dict(
        fields={
            "n_per_level": int(args.n),
            "levels": _level_dicts(stats),
            "rates": None if rates is None else dataclasses.asdict(rates),
        },
        columns=_LEVEL_COLUMNS,
        rows=_level_rows(stats),
        summary=f"levels {_model_label(args)} n={args.n} levels=0..{args.max_level} {rate_note}",
        plot=_LEVELS_PLOT,
    )


def _cmd_compare(args, model: DecisionModel, pool: Executor | None) -> dict:
    rows = cost_comparison(model, _epsilon_list(args), RandomStream(args.seed), pool=pool)
    values = [(r.epsilon, r.mlmc_cost, r.std_cost_model, r.ratio) for r in rows]
    ratios = [r.ratio for r in rows]
    return dict(
        fields={"replications": 1, "rows": [dict(zip(_COMPARE_COLUMNS, v)) for v in values]},
        columns=_COMPARE_COLUMNS,
        rows=values,
        summary=f"compare {_model_label(args)} targets={len(rows)} "
        f"ratio={min(ratios):.3g}..{max(ratios):.3g}",
        plot=_COMPARE_PLOT,
    )


def _cmd_evppi(args, model: DecisionModel, pool: Executor | None) -> dict:
    epsilon = _single_epsilon(args)
    n_evpi = None if args.n is None else _positive(args.n, "--n")
    report = evppi_report(model, epsilon, n_evpi, RandomStream(args.seed), pool=pool)
    row = tuple(getattr(report, column) for column in _EVPPI_COLUMNS)
    status = "" if report.converged else " NOT CONVERGED"
    return dict(
        fields={
            **dict(zip(_EVPPI_COLUMNS, row)),
            "epsilon": report.epsilon,
            "n_evpi": report.n_evpi,
            "converged": report.converged,
            "total_cost": report.mlmc_result.total_cost,
            "warnings": list(report.mlmc_result.warnings),
        },
        columns=_EVPPI_COLUMNS,
        rows=[row],
        summary=f"evppi {_model_label(args)} evpi={report.evpi:.6g} "
        f"difference={report.difference:.6g} evppi={report.evppi:.6g}{status}",
        failure=None if report.converged else f"driver did not converge at epsilon={epsilon:g}",
    )


# Each subcommand and its default output format.
_COMMANDS = {
    "run": (_cmd_run, "json"),
    "levels": (_cmd_levels, "csv"),
    "compare": (_cmd_compare, "csv"),
    "evppi": (_cmd_evppi, "json"),
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, default_format = _COMMANDS[args.command]
    fmt = args.format or default_format
    try:
        threads = _threads(args.threads)
        # Refused before any sampling, so that exit 3 writes no file.
        if getattr(args, "emit_plot_script", False) and (
            fmt == "json" or Path(args.output or "").suffix == ".json"
        ):
            raise ConfigError("--emit-plot-script needs the csv format")
        model = _build_model(args)
        path = _output_path(args, f"voimc_{args.command}_{_model_label(args)}.{fmt}")
        with worker_pool(threads) as pool:
            output = command(args, model, pool)
        return _write_output(args, model, fmt, path, **output)
    except (VoimcError, OSError) as exc:  # OSError: a path the filesystem refuses
        _emit_error("config", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
