"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line,
which ``conftest.py`` repeats in the terminal summary of a captured run,
green or not, so it lands in piped output. Heavy sweeps are session
fixtures shared across criteria. Everything is fixed-seed, so a green run
is reproducible bit for bit.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from voimc import (
    BkocModel,
    MomentAccumulator,
    RandomStream,
    synthetic1,
    synthetic2,
    synthetic3,
)
from voimc.diagnostics import fit_rates, level_sweep
from voimc.estimators import (
    accumulate_p_level,
    evpi_mc,
    nested_mc,
    sample_level_batch,
    worker_pool,
)
from voimc.mlmc import MlmcConfig, cost_comparison, mlmc_run, projected_costs
from voimc.models import GaussianModelSpec

from test_estimators import antithetic_terms

CLOSED_FORM_GAP = 1.0 / math.sqrt(math.pi) - 1.0 / math.sqrt(2.0 * math.pi)

THREADS = 4

# The case study's correlation structure read as all pairwise correlations
# among the two response-probability / response-duration blocks; this denser
# reading reproduces the reference EVPI and partition gaps. The package
# default keeps the two disjoint pairs.
DENSE_PAIRS = tuple((i, j, 0.6) for i, j in itertools.combinations((5, 7, 14, 16), 2))

# (partition, reference gap, reference cost)
BKOC_CASES = [
    ((5, 14), 799.0, 4.1e7),
    ((5, 6, 14, 15), 206.0, 3.0e7),
    ((7, 16), 509.0, 2.2e7),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def pool():
    """One pool of THREADS workers for the library calls of this module."""
    with worker_pool(THREADS) as pool:
        yield pool


@pytest.fixture(scope="module")
def sweep1(pool):
    return level_sweep(synthetic1(), 10, 200_000, RandomStream(1), pool=pool)


@pytest.fixture(scope="module")
def sweep2(pool):
    return level_sweep(synthetic2(), 10, 200_000, RandomStream(1), pool=pool)


@pytest.fixture(scope="module")
def sweep3(pool):
    return level_sweep(synthetic3(), 10, 200_000, RandomStream(1), pool=pool)


def test_criterion_1_closed_form_through_cli(tmp_path, pool):
    out = tmp_path / "run.json"
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "voimc.cli", "run",
            "--model", "synthetic1", "--epsilon", "0.002", "--seed", "7",
            "--threads", str(THREADS), "--output", str(out),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    estimate = json.loads(out.read_text())["estimate"]
    error = abs(estimate - CLOSED_FORM_GAP)

    # independent confirmation of the closed form by a deep nested-MC run
    oracle = nested_mc(synthetic1(), 10**6, 1 << 12, RandomStream(70), pool=pool)
    oracle_bias = (1.0 - math.sqrt(1.0 + 2.0**-12)) / math.sqrt(2.0 * math.pi)
    oracle_gap = abs(oracle.value - CLOSED_FORM_GAP)
    oracle_tol = 4.0 * oracle.std_error + abs(oracle_bias)

    ok = error <= 4.0 * 0.002 and elapsed < 120.0 and oracle_gap <= oracle_tol
    report(
        1,
        ok,
        f"estimate {estimate:.6f} vs {CLOSED_FORM_GAP:.6f} (error {error:.2e} <= 8e-3), "
        f"cli {elapsed:.1f}s < 120s, nested oracle gap {oracle_gap:.2e} <= {oracle_tol:.2e}",
    )


def test_criterion_2_model1_rates(sweep1):
    rates = fit_rates(sweep1, min_level=2)
    ok = 0.8 <= rates.alpha <= 1.2 and 1.2 <= rates.beta <= 1.7
    report(
        2,
        ok,
        f"model1 alpha {rates.alpha:.3f} in [0.8, 1.2], beta {rates.beta:.3f} in [1.2, 1.7]",
    )


def test_criterion_3_model2_model3_rates(sweep2, sweep3):
    r2 = fit_rates(sweep2, min_level=2)
    r3 = fit_rates(sweep3, min_level=2)
    ok = 0.5 <= r2.alpha <= 0.8 and 0.9 <= r2.beta <= 1.35 and r3.beta >= 0.9
    report(
        3,
        ok,
        f"model2 alpha {r2.alpha:.3f} in [0.5, 0.8], beta {r2.beta:.3f} in [0.9, 1.35]; "
        f"model3 beta {r3.beta:.3f} >= 0.9",
    )


def test_criterion_4_variance_bound(sweep1):
    # 2^l Var[Z_l] <= 6 |D| sum_d E[Var[f_d|X]], allowing 5 standard errors
    # of the variance estimate. For the first model |D| = 2 and
    # Var[f_d|X] = c_d^2 with noise coefficients c = (0, 1), so the bound is
    # 6 * 2 * 1 = 12.
    bound = 12.0
    worst = -math.inf
    ok = True
    for s in sweep1:
        if not 1 <= s.level <= 8:
            continue
        scaled = 2.0**s.level * s.var_z
        se = scaled * math.sqrt(max(s.kurtosis_z - 1.0, 0.0) / s.n)
        ok = ok and scaled <= bound + 5.0 * se
        worst = max(worst, scaled)
    report(4, ok, f"max 2^l Var[Z_l] over l=1..8 is {worst:.3f} <= {bound:.0f} (+5 SE)")


def test_criterion_5_exact_identities():
    eps = np.finfo(np.float64).eps
    models = [synthetic1(), synthetic2(), synthetic3(), BkocModel()]
    draws_per_model = 100_000
    chunk = 1_000  # one kernel block for every model at level 3
    level = 3
    checked = []
    for model in models:
        agreements = 0
        for block in range(draws_per_model // chunk):
            z, p = sample_level_batch(
                model, level, chunk, RandomStream(60), first_block=block
            )
            sub = RandomStream(60).split(block)
            x = model.sample_outer(sub, chunk)
            y = model.sample_inner(x, sub, 1 << level)
            f = model.payoffs(x, y)
            mean_a, mean_b, mean_full = antithetic_terms(f)
            scale = np.maximum(
                np.abs(mean_full), np.maximum(np.abs(mean_a), np.abs(mean_b))
            )
            assert (
                np.abs(0.5 * (mean_a + mean_b) - mean_full) <= 8.0 * eps * scale
            ).all(), f"antithetic identity violated for {model.name}"
            agree = (mean_a.argmax(axis=1) == mean_b.argmax(axis=1)) & (
                mean_a.argmax(axis=1) == mean_full.argmax(axis=1)
            )
            assert (z[agree] == 0.0).all(), f"Z != 0 on argmax agreement for {model.name}"
            assert (p >= 0.0).all(), f"p_fine < 0 for {model.name}"
            agreements += int(agree.sum())
        assert 0 < agreements, model.name

        acc = MomentAccumulator()
        with worker_pool(THREADS) as pool:
            accumulate_p_level(model, 0, draws_per_model, RandomStream(61), acc, pool=pool)
        assert acc.mean == 0.0 and acc.m2 == 0.0, f"P_0 not identically 0 for {model.name}"

        trivial = nested_mc(model, 10_000, 1, RandomStream(62))
        assert trivial.value == 0.0, f"nested M=1 not exactly 0 for {model.name}"
        checked.append(model.name)
    report(
        5,
        len(checked) == 4,
        f"antithetic identity, Z=0 on agreement, P_0=0, p_fine>=0, nested(M=1)=0 "
        f"hold over {draws_per_model} draws x {len(checked)} models",
    )


def test_criterion_6_bkoc_reproduction(pool):
    lines = []
    ok = True

    # Binding check under the package's two-disjoint-pairs reading: the
    # multilevel estimate must agree with an independently seeded nested-MC
    # run within 4 combined standard errors, for every partition.
    for partition, _, _ in BKOC_CASES:
        model = BkocModel(GaussianModelSpec(outer_indices=partition))
        result = mlmc_run(
            model, MlmcConfig(epsilon=1.0), RandomStream(11).split(1), pool=pool
        )
        nested = nested_mc(
            model, 100_000, 1 << result.max_level_used,
            RandomStream(11).split(2), pool=pool,
        )
        combined = math.sqrt(result.variance_of_estimator + nested.std_error**2)
        gap = abs(result.estimate - nested.value)
        ok = ok and result.converged and gap <= 4.0 * combined
        lines.append(f"{partition}: |mlmc-nested| {gap:.1f} <= {4.0 * combined:.1f}")

    # The reference numbers correspond to the denser correlation reading;
    # reproduce them under that configuration.
    dense = lambda partition: BkocModel(
        GaussianModelSpec(correlated_pairs=DENSE_PAIRS, outer_indices=partition)
    )
    evpi = evpi_mc(dense((5, 14)), 10**7, RandomStream(11).split(0), pool=pool)
    evpi_ok = abs(evpi.value - 1047.0) <= 3.0 * evpi.std_error
    ok = ok and evpi_ok
    lines.append(f"dense EVPI {evpi.value:.1f} = 1047 +- {3.0 * evpi.std_error:.1f}")

    for partition, reference_gap, reference_cost in BKOC_CASES:
        result = mlmc_run(
            dense(partition),
            MlmcConfig(epsilon=1.0, warmup_samples=8_000),
            RandomStream(11).split(1),
            pool=pool,
        )
        factor = max(result.total_cost / reference_cost, reference_cost / result.total_cost)
        ok = (
            ok
            and result.converged
            and abs(result.estimate - reference_gap) <= 30.0
            and factor <= 3.0
        )
        lines.append(
            f"dense {partition}: gap {result.estimate:.1f} vs {reference_gap:.0f} (+-30), "
            f"cost {result.total_cost:.3g} within x3 of {reference_cost:.1e} "
            f"(factor {factor:.2f})"
        )

    report(6, ok, "; ".join(lines))


def test_criterion_7_complexity(sweep2, pool):
    # near-constant eps^2 cost across an accuracy ladder
    rows = cost_comparison(
        synthetic1(), [0.02, 0.01, 0.005, 0.0025], RandomStream(5), pool=pool
    )
    normalized = [r.epsilon**2 * r.mlmc_cost for r in rows]
    flatness = max(normalized) / min(normalized)

    # savings over modeled standard MC at eps = 1e-4: executed for model 1,
    # projected from sweep statistics for model 2
    executed = mlmc_run(
        synthetic1(),
        MlmcConfig(epsilon=1e-4, warmup_samples=300),
        RandomStream(5),
        pool=pool,
    )
    projected1 = projected_costs(executed.level_stats, 1e-4)
    ratio1 = projected1.std_cost_model / executed.total_cost
    ratio2 = projected_costs(sweep2, 1e-4).ratio

    ok = flatness < 3.0 and executed.converged and ratio1 >= 20.0 and ratio2 >= 500.0
    report(
        7,
        ok,
        f"eps^2 cost flat within factor {flatness:.2f} < 3; savings ratio at 1e-4: "
        f"model1 {ratio1:.0f} >= 20 (executed), model2 {ratio2:.0f} >= 500 (projected)",
    )


def test_criterion_8_determinism(tmp_path):
    outputs = {}
    for fmt in ("json", "csv"):
        blobs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{fmt}_{tag}"
            code = subprocess.run(
                [
                    sys.executable, "-m", "voimc.cli", "run",
                    "--model", "synthetic2", "--epsilon", "0.02", "--seed", "7",
                    "--threads", str(threads), "--format", fmt,
                    "--output", str(out),
                ],
                capture_output=True,
            ).returncode
            assert code == 0
            blobs.append(out.read_bytes())
        outputs[fmt] = blobs[0] == blobs[1] == blobs[2]
    ok = outputs["json"] and outputs["csv"]
    report(
        8,
        ok,
        "byte-identical json and csv outputs across repeated runs and threads {1, 4}",
    )
