"""Standard-normal special functions and the discrete truncated-Gaussian cost.

An uncertain cost with mean ``c_mu`` and standard deviation ``c_sigma``
is modeled as a Gaussian truncated to [c_mu - 3*c_sigma, c_mu + 3*c_sigma]
and approximated by an M-outcome lottery. The truncation range is split
into M equal-width bins; the ascending outcome grid

    c_j = c_mu + c_sigma * (-3 + 6*(j-1)/M),   j = 1..M

places each outcome at the lower edge of its bin, and bin masses are
Gaussian CDF differences re-normalized by Z = cdf(3) - cdf(-3). The top
bin closes at the upper truncation bound so the masses sum to one
exactly; for a symmetric grid the mass vector is symmetric about c_mu.
The lattice (outcome coefficients and masses) depends only on M and is
shared by the lottery and the field layers.

``DiscreteCost`` and ``discretize_truncated_gaussian`` build the lottery
explicitly for the lottery layer of :mod:`riskcbf.risk`, which the
library keeps as the paper's definitions and the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_PROB_SUM_TOL = 1e-12
_INV_SQRT_2PI = 0.3989422804014326779
_INV_SQRT_2 = 0.7071067811865475244


@dataclass(frozen=True)
class DiscreteCost:
    """An M-outcome cost lottery: sorted nonnegative outcomes with masses."""

    outcomes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        probabilities = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probabilities", probabilities)
        if outcomes.ndim != 1 or probabilities.ndim != 1:
            raise ValueError("outcomes and probabilities must be 1-D")
        if outcomes.shape != probabilities.shape:
            raise ValueError("outcomes and probabilities must have equal length")
        if outcomes.shape[0] < 2:
            raise ValueError("a lottery needs at least 2 outcomes")
        if np.any(np.diff(outcomes) < 0):
            raise ValueError("outcomes must be sorted ascending")
        if outcomes[0] < 0:
            raise ValueError("outcomes must be nonnegative")
        if np.any(probabilities < 0) or np.any(probabilities > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(probabilities.sum() - 1.0) > _PROB_SUM_TOL:
            raise ValueError(
                f"probabilities must sum to 1 (got {probabilities.sum()!r})"
            )

    @property
    def m(self) -> int:
        return self.outcomes.shape[0]


def std_normal_pdf(z: float) -> float:
    """Standard normal density (1/sqrt(2*pi)) * exp(-z**2/2)."""
    z = float(z)
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, computed as 0.5*erfc(-z/sqrt(2)).

    ``math.erfc`` keeps full relative accuracy in both tails, so the
    absolute error is at machine precision, well under the 1e-7
    requirement.
    """
    return 0.5 * math.erfc(-float(z) * _INV_SQRT_2)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1).

    ``statistics.NormalDist.inv_cdf`` (Wichura's AS241 rational
    approximations, relative error about 1e-16); the result z satisfies
    |std_normal_cdf(z) - p| <= 1e-9.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires p in (0, 1), got {p!r}")
    # imported here: statistics pulls in decimal and fractions, about
    # 5 ms of interpreter start-up that only CVaR specs need
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


@lru_cache(maxsize=256)
def lattice_coeffs(m: int) -> np.ndarray:
    """Ascending outcome grid in sigma units: -3 + 6*(j-1)/m for j=1..m.

    Each outcome sits at the lower edge of its probability bin; the top
    bin closes at the upper truncation bound +3. The array is cached
    and read-only.
    """
    g = -3.0 + 6.0 * np.arange(m) / m
    g.setflags(write=False)
    return g


@lru_cache(maxsize=256)
def lattice_masses(m: int) -> np.ndarray:
    """Bin masses of the 3-sigma truncated standard normal split into m
    equal-width bins: CDF differences re-normalized by
    Z = cdf(3) - cdf(-3). The array is cached and read-only."""
    cdf = np.array([std_normal_cdf(z) for z in -3.0 + 6.0 * np.arange(m + 1) / m])
    probs = np.diff(cdf) / (cdf[-1] - cdf[0])
    probs.setflags(write=False)
    return probs


def discretize_truncated_gaussian(
    c_mu: float, c_sigma: float, m: int = 10
) -> DiscreteCost:
    """Discretize a truncated-Gaussian cost into an M-outcome lottery.

    Degenerate case: c_sigma == 0 returns the single-support lottery on
    c_mu replicated across the M entries with uniform mass. Outcomes
    below zero (large c_sigma relative to c_mu) are clamped to zero;
    bin masses are kept.
    """
    c_mu = float(c_mu)
    c_sigma = float(c_sigma)
    if c_mu < 0:
        raise ValueError("c_mu must be nonnegative")
    if c_sigma < 0:
        raise ValueError("c_sigma must be nonnegative")
    if m < 2:
        raise ValueError("m must be at least 2")
    if c_sigma == 0.0:
        return DiscreteCost(np.full(m, c_mu), np.full(m, 1.0 / m))
    outcomes = np.maximum(c_mu + c_sigma * lattice_coeffs(m), 0.0)
    return DiscreteCost(outcomes, lattice_masses(m))
