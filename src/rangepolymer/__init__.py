"""Numerical laboratory for the range-penalized self-repelling polymer.

The walk (or Brownian path) is reweighted by exp(-beta * n^2 / R_n) where
R_n is the number of visited sites; the package computes the resulting
speeds, free energies, spreads, large-deviation rate functions, exact
finite-n joint laws, Feller-series quadratures and seeded Monte Carlo
estimates, with every quantity cross-checkable against an independent
route.
"""

__version__ = "0.1.0"

from .continuous import (
    ContinuousConstants,
    continuous_constants,
    laplace_exponent_coeffs,
    ldp_rate_continuous,
    positive_cubic_root,
    rate_J,
    rate_J_prime,
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
    ldp_rate_discrete,
    rate_I,
    rate_I_prime,
    sigma_star,
    speed_c_star,
    tilde_c_d,
)
from .errors import DomainError, RangePolymerError, ResourceCapError, SolverError
from .exact import (
    JointEndpointRangeLaw,
    PolymerLaw,
    clt_check,
    enumerate_joint_law,
    free_energy_sequence,
    joint_law_dp,
    joint_law_exact,
    ldp_empirical,
    polymer_law,
    reflection_min_max_endpoint,
)
from .mc import (
    BrownianRangeHistograms,
    CorollaryBoundReport,
    FloryProbeResult,
    McEstimate,
    brownian_range_mc,
    corollary_bound_check,
    flory_probe,
    polymer_estimate_tilted,
)
from .roots import RootResult

__all__ = [
    "__version__",
    "BrownianRangeHistograms",
    "ContinuousConstants",
    "CorollaryBoundReport",
    "DomainError",
    "FloryProbeResult",
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
    "enumerate_joint_law",
    "flory_probe",
    "free_energy_g_star",
    "free_energy_sequence",
    "joint_density",
    "joint_law_dp",
    "joint_law_exact",
    "laplace_exponent_coeffs",
    "ldp_empirical",
    "ldp_rate_continuous",
    "ldp_rate_discrete",
    "partition_function_continuous",
    "polymer_estimate_tilted",
    "polymer_law",
    "positive_cubic_root",
    "range_density",
    "range_second_order_cdf",
    "rate_I",
    "rate_I_prime",
    "rate_J",
    "rate_J_prime",
    "reflection_min_max_endpoint",
    "sigma_star",
    "speed_c_star",
    "tilde_c_d",
    "unit_ball_volume",
]
