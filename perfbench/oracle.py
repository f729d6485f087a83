"""Reference values for the benchmark's correctness checks.

Writes perfbench/references.json. Run from the root of a source checkout:

    PYTHONPATH=src python3 perfbench/oracle.py

synthetic1's gap is closed form. For synthetic2 and for bkoc with outer
variables (5, 14) the gap comes from a plain Monte Carlo oracle over joint
draws through the public model API,

    gap = E[max_d f_d(X, Y) - max_d E[f_d | X]],

which is unbiased because both models know E[f_d | X] exactly and needs no
nested sampling. The same bkoc draws give EVPI = E[max_d f_d] - max_d E[f_d],
with the standard error of its first term, the convention of
``voimc.evpi_mc``. Each value is stored with its seed, draw count and
standard error.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from voimc import MomentAccumulator, RandomStream, make_model

OUT = Path(__file__).resolve().parent / "references.json"

CHUNK = 1 << 20
THREADS = 2
SEED = 20170818
# bkoc's gap draws have a standard deviation near 2400: 2^28 draws give a
# standard error near 0.15, against the workload's eps of 2.
DRAWS = {"synthetic2": 1 << 26, "bkoc_5_14": 1 << 28}


def joint_draws(model, stream: RandomStream, n: int):
    """Payoffs (n, D) at one joint draw of (X, Y) each, and E[f_d | X] (n, D)."""
    x = model.sample_outer(stream, n)
    f = model.payoffs(x, model.sample_inner(x, stream, 1))[:, 0, :]
    return f, model.conditional_means(x)


def oracle(model, draws: int, seed: int) -> dict:
    stream = RandomStream(seed)
    gap = MomentAccumulator()
    best = MomentAccumulator()
    decision_sums = []

    def chunk(i: int):
        f, cond = joint_draws(model, stream.split(i), CHUNK)
        pathwise = f.max(axis=1)
        return pathwise - cond.max(axis=1), pathwise, f.sum(axis=0)

    with ThreadPoolExecutor(THREADS) as pool:
        for g, b, sums in pool.map(chunk, range(draws // CHUNK)):
            gap.add_block(g)
            best.add_block(b)
            decision_sums.append(sums)
    n = gap.n
    mean_f = [math.fsum(col) / n for col in np.array(decision_sums).T]

    def entry(value: float, variance: float) -> dict:
        return {"value": value, "std_error": math.sqrt(variance / n), "draws": n, "seed": seed}

    return {
        "gap": entry(gap.mean, gap.variance()),
        "evpi": entry(best.mean - max(mean_f), best.variance()),
    }


def main() -> None:
    bkoc = oracle(make_model("bkoc", outer=(5, 14)), DRAWS["bkoc_5_14"], SEED)
    synthetic2 = oracle(make_model("synthetic2"), DRAWS["synthetic2"], SEED)
    refs = {
        "synthetic1": {
            "gap": {
                "value": 1.0 / math.sqrt(math.pi) - 1.0 / math.sqrt(2.0 * math.pi),
                "std_error": 0.0,
                "draws": 0,
                "seed": None,
                "method": "closed form 1/sqrt(pi) - 1/sqrt(2 pi)",
            }
        },
        "bkoc_5_14": {
            "gap": {**bkoc["gap"], "method": "plain MC of max_d f_d - max_d E[f_d|X]"},
            "evpi": {**bkoc["evpi"], "method": "plain MC of E[max_d f_d] - max_d E[f_d]"},
        },
        "synthetic2": {
            "gap": {**synthetic2["gap"], "method": "plain MC of max_d f_d - max_d E[f_d|X]"},
        },
    }
    OUT.write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs, indent=2))


if __name__ == "__main__":
    main()
