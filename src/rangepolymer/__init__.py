"""Numerical laboratory for the range-penalized self-repelling polymer.

The walk (or Brownian path) is reweighted by exp(-beta * n^2 / R_n) where
R_n is the number of visited sites; the package computes the resulting
speeds, free energies, spreads, large-deviation rate functions, exact
finite-n joint laws, Feller-series quadratures and seeded Monte Carlo
estimates.  The test suite checks every quantity against an independent
route; the routes that only the tests need live in ``tests/oracles.py``.
"""

__version__ = "0.1.0"

from . import continuous, density, discrete, errors, exact, mc
from .continuous import *
from .density import *
from .discrete import *
from .errors import *
from .exact import *
from .mc import *
from .roots import RootResult

__all__ = ["__version__", "RootResult",
           *(name for mod in (continuous, density, discrete, errors, exact, mc)
             for name in mod.__all__)]
