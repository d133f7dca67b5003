"""Standard normal constant and CDF."""

from __future__ import annotations

import math

SQRT2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(z: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
