"""Standard-normal special functions and the lattice of the truncated-Gaussian cost.

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
on M, and :func:`riskcbf.risk.moment_risk` evaluates every risk model
on it, so all three models read one lottery. Its error at M = 10
depends on the model. At c_mu/c_sigma = 6.3, relative to the continuous
truncated Gaussian (``scipy.stats.truncnorm(-3, 3)``; the continuous
oracle of ``tests/test_risk.py``): ER is exact at every M, as the
lattice keeps the mean; CVaR(q) reads low by 5.3e-4 at q = 0.1, 7.5e-3
at q = 0.8 and 3.1e-2 at q = 0.999; each CPT spec of the shipped
configs lies within 2.3e-4, CPT(0.3, 1, 0.8, 3) within 4.9e-5. From
M = 40 on, each of these errors is below 0.1/M.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_INV_SQRT_2PI = 0.3989422804014326779
_INV_SQRT_2 = 0.7071067811865475244


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
