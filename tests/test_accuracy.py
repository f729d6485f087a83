"""Accuracy over many seeds: the driver promises a mean-square error of at
most eps^2, and one seed cannot show that.

Each check runs the driver on seeds 1000, 1001, ... and compares the
empirical MSE against eps^2 with a one-sided chi-square allowance. If the R
errors are independent and normal with mean square eps^2, R * MSE / eps^2
has mean R, and among such laws the central chi-square with R degrees of
freedom (no bias) has the largest variance; its upper quantile at
FALSE_ALARM is the allowance.
"""

import json
import math
from pathlib import Path

from scipy.stats import chi2

from voimc import RandomStream, make_model, synthetic1
from voimc.mlmc import MlmcConfig, mlmc_run

# Chance that a driver which keeps its promise fails one check.
FALSE_ALARM = 1e-3

FIRST_SEED = 1000

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)


def empirical_mse(model, epsilon, seeds, truth):
    errors = [
        mlmc_run(model, MlmcConfig(epsilon=epsilon), RandomStream(FIRST_SEED + k)).estimate
        - truth
        for k in range(seeds)
    ]
    return math.fsum(e * e for e in errors) / seeds, math.fsum(errors) / seeds


def allowance(seeds):
    """Largest MSE / eps^2 that passes at the stated false-alarm rate."""
    return chi2.ppf(1.0 - FALSE_ALARM, seeds) / seeds


def test_synthetic1_mse_within_eps_squared():
    # At eps 0.01 nearly all the cost is warm-up draws; at eps 0.002 the
    # allocation binds, so a wrong variance target shows there.
    seeds = 200
    truth = 1.0 / math.sqrt(math.pi) - 1.0 / math.sqrt(2.0 * math.pi)
    for epsilon in (0.01, 0.002):
        mse, bias = empirical_mse(synthetic1(), epsilon, seeds, truth)
        ratio = mse / epsilon**2
        assert ratio <= allowance(seeds), (
            f"eps {epsilon}: MSE/eps^2 {ratio:.3f} > {allowance(seeds):.3f} over {seeds} "
            f"seeds (mean error {bias / epsilon:+.3f} eps)"
        )


def test_bkoc_mse_within_eps_squared():
    # The reference is plain MC with its own standard error; a reference off
    # by delta moves the root-MSE by at most |delta|, taken as 4 standard errors.
    epsilon, seeds = 12.0, 60
    ref = REFERENCES["bkoc_5_14"]["gap"]
    mse, bias = empirical_mse(make_model("bkoc", outer=(5, 14)), epsilon, seeds, ref["value"])
    limit = (math.sqrt(allowance(seeds)) * epsilon + 4.0 * ref["std_error"]) ** 2
    assert mse <= limit, (
        f"MSE/eps^2 {mse / epsilon**2:.3f} > {limit / epsilon**2:.3f} over {seeds} seeds "
        f"(mean error {bias / epsilon:+.3f} eps)"
    )
