"""Standard-normal special functions and the discrete truncated-Gaussian cost.

An uncertain cost with mean ``c_mu`` and standard deviation ``c_sigma``
is modeled as a Gaussian truncated to [c_mu - 3*c_sigma, c_mu + 3*c_sigma]
and approximated by an M-outcome lottery on one lattice. The truncation
range is split into M equal-width bins with edges z_j = -3 + 6*j/M, and
each outcome c_j = c_mu + c_sigma * g_j sits at its bin's conditional
mean,

    g_j = (pdf(z_{j-1}) - pdf(z_j)) / (cdf(z_j) - cdf(z_{j-1})),   j = 1..M,

the bin's mean-square-optimal point (Max, "Quantizing for minimum
distortion", 1960). Bin masses are the Gaussian CDF differences
re-normalized by Z = cdf(3) - cdf(-3). Both are computed on the bins
below the mean and mirrored, so g is antisymmetric and the masses
symmetric bit for bit, and the lattice mean sum_j p_j g_j is 0: the
lottery keeps the cost's mean c_mu at every M. The lattice depends only
on M and is shared by the lottery and the field layers, so all three
risk models read one lottery. Its error at M = 10 depends on the model.
At c_mu/c_sigma = 6.3, relative to the continuous truncated Gaussian
(``scipy.stats.truncnorm(-3, 3)``): ER is exact at every M, as the
lattice keeps the mean; CVaR(q) reads low by 5.3e-4 at q = 0.1, 7.6e-3
at q = 0.8 and 3.1e-2 at q = 0.999;
each CPT spec of the shipped configs lies within 2.3e-4 of its M = 2560
value, CPT(0.3, 1, 0.8, 3) within 6.2e-5.

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


@lru_cache(maxsize=256)
def _lattice(m: int) -> tuple[np.ndarray, np.ndarray]:
    # the bins below the mean, mirrored about 0; an odd m's middle bin
    # straddles 0, so its conditional mean is 0
    z = -3.0 + 6.0 * np.arange(m // 2 + 1) / m
    pdf, cdf = (np.array([f(v) for v in z]) for f in (std_normal_pdf, std_normal_cdf))
    mass = np.diff(cdf)
    low = (pdf[:-1] - pdf[1:]) / mass
    middle = np.full(m % 2, 1.0 - 2.0 * cdf[-1])
    g = np.concatenate([low, np.zeros(m % 2), -low[::-1]])
    probs = np.concatenate([mass, middle, mass[::-1]]) / (1.0 - 2.0 * cdf[0])
    for a in (g, probs):
        a.setflags(write=False)
    return g, probs


def lattice_coeffs(m: int) -> np.ndarray:
    """Ascending outcome grid in sigma units: the conditional mean of each
    of the m equal-width bins of [-3, 3] under the standard normal,
    mirrored so that g[::-1] == -g. The array is cached and read-only."""
    return _lattice(m)[0]


def lattice_masses(m: int) -> np.ndarray:
    """Bin masses of the 3-sigma truncated standard normal split into m
    equal-width bins: CDF differences re-normalized by
    Z = cdf(3) - cdf(-3), mirrored so that p[::-1] == p. The array is
    cached and read-only."""
    return _lattice(m)[1]


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
