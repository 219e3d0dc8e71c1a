import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import truncnorm

from riskcbf.distributions import (
    DiscreteCost,
    discretize_truncated_gaussian,
    lattice_coeffs,
    lattice_masses,
    std_normal_cdf,
    std_normal_pdf,
)
from riskcbf.risk import CVaR, ExpectedRisk, risk_value


def test_pdf_peak_is_inv_sqrt_2pi():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_pdf_symmetry():
    for z in (0.3, 1.0, 2.7):
        assert std_normal_pdf(z) == std_normal_pdf(-z)


def test_pdf_at_three():
    # direct evaluation of the closed-form density
    assert std_normal_pdf(3.0) == pytest.approx(0.0044318484, abs=1e-9)


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_symmetry_sums_to_one():
    for z in np.linspace(0.1, 6.0, 25):
        assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)


def test_cdf_against_quadrature_oracle():
    # independent oracle: numerically integrate the density
    for z in (-2.0, -0.5, 0.3, 1.0, 2.5):
        expected, err = integrate.quad(std_normal_pdf, -12.0, z)
        assert err < 5e-8
        assert std_normal_cdf(z) == pytest.approx(expected, abs=1e-7)
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447, abs=1e-7)


def test_cdf_absolute_accuracy_sweep():
    from scipy.stats import norm

    zs = np.linspace(-8, 8, 1601)
    worst = max(abs(std_normal_cdf(float(z)) - norm.cdf(z)) for z in zs)
    assert worst <= 1e-7  # contract; actual accuracy is near machine epsilon
    assert worst <= 1e-13


def test_discretize_degenerate_sigma_zero():
    dc = discretize_truncated_gaussian(5.0, 0.0, 4)
    assert np.all(dc.outcomes == 5.0)
    assert dc.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert dc.outcomes[0] > 0


def test_discretize_grid_m6_clamped_and_symmetric():
    dc = discretize_truncated_gaussian(0.0, 1.0, 6)
    # pre-clamp grid is the six bins' conditional means, -g_6..g_6 mirrored;
    # the three below zero clamp to zero
    g = lattice_coeffs(6)
    assert np.array_equal(dc.outcomes, [0.0, 0.0, 0.0, g[3], g[4], g[5]])
    assert 0.0 < g[3] < 1.0 < g[4] < 2.0 < g[5] < 3.0
    # bin masses are symmetric about the mean, bit for bit
    assert np.array_equal(dc.probabilities, dc.probabilities[::-1])
    assert dc.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_discretize_probabilities_sum_to_one():
    rng = np.random.default_rng(42)
    for _ in range(200):
        mu = rng.uniform(0.0, 200.0)
        sigma = rng.uniform(0.0, 80.0)
        m = int(rng.integers(2, 64))
        dc = discretize_truncated_gaussian(mu, sigma, m)
        assert abs(dc.probabilities.sum() - 1.0) <= 1e-12


def test_discretize_mean_within_grid_asymmetry_bound():
    # brute-force expectation oracle; the conditional-mean grid is symmetric
    # about the mean, so the bound is rounding alone
    rng = np.random.default_rng(3)
    for _ in range(200):
        mu = rng.uniform(1.0, 150.0)
        sigma = rng.uniform(0.0, mu / 3.001)  # keep the grid nonnegative
        m = int(rng.integers(2, 48))
        dc = discretize_truncated_gaussian(mu, sigma, m)
        assert dc.outcomes[0] > 0
        mean = float(dc.outcomes @ dc.probabilities)
        assert abs(mean - mu) <= 1e-12 * mu


def test_discretize_variance_error_decreases_in_m():
    # a conditional-mean quantizer keeps the mean at every m and loses the
    # within-bin variance, which shrinks as the bins narrow
    mu, sigma = 40.0, 7.0
    variance = sigma**2 * truncnorm(-3.0, 3.0).var()
    errors = []
    for m in (6, 12, 24, 48):
        dc = discretize_truncated_gaussian(mu, sigma, m)
        assert risk_value(ExpectedRisk(), dc) == pytest.approx(mu, rel=1e-14)
        errors.append(variance - float((dc.outcomes - mu) ** 2 @ dc.probabilities))
    assert errors[-1] > 0.0
    assert all(a > b for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize(
    "mu,sigma,m",
    [(-1.0, 1.0, 4), (1.0, -0.5, 4), (1.0, 1.0, 1)],
)
def test_discretize_invalid_inputs(mu, sigma, m):
    with pytest.raises(ValueError):
        discretize_truncated_gaussian(mu, sigma, m)


def test_grid_probs_sum_and_symmetry():
    for m in (2, 5, 10, 33):
        probs = lattice_masses(m)
        assert abs(probs.sum() - 1.0) <= 1e-14
        assert np.allclose(probs, probs[::-1], atol=1e-15)


def test_grid_coeffs_span_truncation():
    # one outcome inside each bin of [-3, 3]
    for m in (2, 5, 10, 33):
        edges = -3.0 + 6.0 * np.arange(m + 1) / m
        g = lattice_coeffs(m)
        assert np.all((edges[:-1] < g) & (g < edges[1:]))
    assert lattice_coeffs(10)[-1] == pytest.approx(2.6232, abs=1e-4)


@pytest.mark.parametrize("m", [2, 5, 10, 33])
def test_lattice_is_the_truncated_normal_bin_conditional_means(m):
    edges = -3.0 + 6.0 * np.arange(m + 1) / m
    expected = [truncnorm(a, b).mean() for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(lattice_coeffs(m), expected, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(lattice_masses(m), np.diff(truncnorm(-3.0, 3.0).cdf(edges)), rtol=0.0, atol=1e-15)
    g, p = lattice_coeffs(m), lattice_masses(m)
    assert np.array_equal(g[::-1], -g) and np.array_equal(p[::-1], p)
    assert abs(p @ g) <= 1e-15


def test_discrete_cost_validation():
    with pytest.raises(ValueError):
        DiscreteCost(np.array([2.0, 1.0]), np.array([0.5, 0.5]))  # unsorted
    with pytest.raises(ValueError):
        DiscreteCost(np.array([1.0, 2.0]), np.array([0.5, 0.4]))  # bad sum
    with pytest.raises(ValueError):
        DiscreteCost(np.array([1.0]), np.array([1.0]))  # too short
    with pytest.raises(ValueError):
        DiscreteCost(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))  # negative
    with pytest.raises(ValueError):
        DiscreteCost(np.array([1.0, 2.0]), np.array([1.1, -0.1]))  # out of range


def test_degenerate_lottery_collapses_all_risk_models():
    dc = discretize_truncated_gaussian(5.0, 0.0, 8)
    assert risk_value(ExpectedRisk(), dc) == pytest.approx(5.0, abs=1e-12)
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert risk_value(CVaR(q), dc) == pytest.approx(5.0, abs=1e-12)
