"""Multilevel Monte Carlo estimation of the value of information.

The package estimates the expected value of perfect information (EVPI), the
expected value of partial perfect information (EVPPI), and their difference
for decision models with uncertain inputs. The difference, a nested
expectation, is computed by an antithetic multilevel estimator whose level-l
correction couples averages over 2^l inner samples with the two averages
over their halves; EVPI comes from plain Monte Carlo, and EVPPI from the
identity EVPPI = EVPI - (EVPI - EVPPI).

Typical use:

    from voimc import RandomStream, make_model
    from voimc.mlmc import MlmcConfig, mlmc_run

    model = make_model("synthetic1")
    result = mlmc_run(model, MlmcConfig(epsilon=0.002), RandomStream(7))
    print(result.estimate)

The command-line entry point ``voimc`` wraps the same operations. The top
level exports the models, the error types and the stream and moment
primitives; everything else is imported from its module, in dependency
order ``streams``/``models`` -> ``estimators`` -> ``diagnostics`` ->
``mlmc`` -> ``cli``.
"""

from .errors import CapabilityError, ConfigError, InsufficientDataError, VoimcError
from .models import (
    BkocModel,
    DecisionModel,
    SyntheticModel,
    make_model,
    synthetic1,
    synthetic2,
    synthetic3,
)
from .moments import MomentAccumulator
from .streams import RandomStream

__version__ = "0.1.0"

__all__ = [
    "BkocModel",
    "CapabilityError",
    "ConfigError",
    "DecisionModel",
    "InsufficientDataError",
    "MomentAccumulator",
    "RandomStream",
    "SyntheticModel",
    "VoimcError",
    "make_model",
    "synthetic1",
    "synthetic2",
    "synthetic3",
    "__version__",
]
