"""Numerical laboratory for the range-penalized self-repelling polymer.

The walk (or Brownian path) is reweighted by exp(-beta * n^2 / R_n) where
R_n is the number of visited sites; the package computes the resulting
speeds, free energies, spreads, large-deviation rate functions, exact
finite-n joint laws, Feller-series quadratures and seeded Monte Carlo
estimates.  The test suite checks every quantity against an independent
route; the routes that only the tests need live in ``tests/oracles.py``.
"""

__version__ = "0.1.0"

from .continuous import (
    ContinuousConstants,
    continuous_constants,
    ldp_rate_continuous_info,
    positive_cubic_root,
    rate_J,
    unit_ball_volume,
)
from .density import (
    QuadratureResult,
    SeriesEval,
    endpoint_clt_continuous,
    joint_density,
    partition_function_continuous,
    range_density,
    range_second_order_cdf,
)
from .discrete import (
    PolymerConstants,
    free_energy_g_star,
    ldp_rate_discrete_info,
    rate_I,
    rate_I_prime,
    speed_c_star,
    tilde_c_d,
)
from .errors import DomainError, RangePolymerError, ResourceCapError, SolverError
from .exact import (
    JointEndpointRangeLaw,
    PolymerLaw,
    clt_check,
    joint_law_exact,
    ldp_empirical,
    polymer_law,
)
from .mc import (
    BrownianRangeHistograms,
    CorollaryBoundReport,
    McEstimate,
    brownian_range_mc,
    corollary_bound_check,
    polymer_estimate_tilted,
)
from .roots import RootResult

__all__ = [
    "__version__",
    "BrownianRangeHistograms",
    "ContinuousConstants",
    "CorollaryBoundReport",
    "DomainError",
    "JointEndpointRangeLaw",
    "McEstimate",
    "PolymerConstants",
    "PolymerLaw",
    "QuadratureResult",
    "RangePolymerError",
    "ResourceCapError",
    "RootResult",
    "SeriesEval",
    "SolverError",
    "brownian_range_mc",
    "clt_check",
    "continuous_constants",
    "corollary_bound_check",
    "endpoint_clt_continuous",
    "free_energy_g_star",
    "joint_density",
    "joint_law_exact",
    "ldp_empirical",
    "ldp_rate_continuous_info",
    "ldp_rate_discrete_info",
    "partition_function_continuous",
    "polymer_estimate_tilted",
    "polymer_law",
    "positive_cubic_root",
    "range_density",
    "range_second_order_cdf",
    "rate_I",
    "rate_I_prime",
    "rate_J",
    "speed_c_star",
    "tilde_c_d",
    "unit_ball_volume",
]
