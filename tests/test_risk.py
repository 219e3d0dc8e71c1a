import math

import numpy as np
import pytest
from scipy.stats import norm

from riskcbf.distributions import DiscreteCost, discretize_truncated_gaussian
from riskcbf.risk import (
    CPT,
    CVaR,
    ExpectedRisk,
    cpt_value,
    cvar_value,
    decision_weights,
    er_value,
    moment_risk,
    parse_spec,
    prob_weight,
    risk_value,
    spec_label,
    utility,
)


def random_lottery(rng, m=None, low=0.0, high=200.0):
    m = m if m is not None else int(rng.integers(2, 33))
    outcomes = np.sort(rng.uniform(low, high, m))
    probs = rng.dirichlet(np.ones(m))
    return DiscreteCost(outcomes, probs)


# --- utility and weighting -------------------------------------------------


def test_utility_examples():
    assert utility(7.0, 1.0, 1.0) == 7.0
    assert utility(4.0, 0.5, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert utility(0.0, 0.3, 5.0) == 0.0


def test_utility_rejects_negative_cost():
    with pytest.raises(ValueError):
        utility(-1.0, 1.0, 1.0)


def test_prob_weight_identity_at_unit_parameters():
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert prob_weight(p, 1.0, 1.0) == pytest.approx(p, abs=1e-12)


def test_prob_weight_boundary_values():
    assert prob_weight(0.0, 0.74, 1.0) == 0.0
    assert prob_weight(1.0, 0.74, 1.0) == 1.0


def test_prob_weight_half_with_curved_alpha():
    # direct evaluation of exp(-(log 2)**0.74)
    expected = math.exp(-((math.log(2.0)) ** 0.74))
    assert expected == pytest.approx(0.4665225, abs=1e-6)
    assert prob_weight(0.5, 0.74, 1.0) == pytest.approx(expected, abs=1e-12)


def test_decision_weights_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
        assert np.allclose(decision_weights(p, 1.0, 1.0), p, atol=1e-12)


def test_decision_weights_two_point():
    w_half = prob_weight(0.5, 0.74, 1.0)
    weights = decision_weights(np.array([0.5, 0.5]), 0.74, 1.0)
    assert weights == pytest.approx([1.0 - w_half, w_half], abs=1e-14)


def test_decision_weights_mass_on_last_outcome():
    weights = decision_weights(np.array([0.0, 0.0, 1.0]), 0.74, 1.0)
    assert weights == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)


def test_decision_weights_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 16))))
        alpha, beta = rng.uniform(0.2, 2.0, 2)
        assert np.all(decision_weights(p, alpha, beta) >= -1e-15)


# --- ER and CVaR -----------------------------------------------------------


def test_er_examples():
    dc = DiscreteCost(np.array([2.0, 4.0]), np.array([0.5, 0.5]))
    assert er_value(dc) == 3.0
    single = DiscreteCost(np.array([5.0, 5.0]), np.array([0.5, 0.5]))
    assert er_value(single) == 5.0


def test_er_matches_bruteforce_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dc = random_lottery(rng)
        brute = sum(c * p for c, p in zip(dc.outcomes, dc.probabilities))
        assert er_value(dc) == pytest.approx(brute, rel=1e-12)


def test_cvar_uniform_example():
    dc = DiscreteCost(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 0.25))
    # d* = 2 (first outcome with cumulative mass >= 0.5); mean of {2,3,4}
    assert cvar_value(dc, 0.5) == pytest.approx(3.0, abs=1e-12)


def test_cvar_limits():
    rng = np.random.default_rng(3)
    for _ in range(30):
        dc = random_lottery(rng)
        assert cvar_value(dc, 0.0) == pytest.approx(er_value(dc), abs=1e-9)
        assert cvar_value(dc, 1.0) == dc.outcomes[-1]


def test_cvar_monotone_in_q():
    rng = np.random.default_rng(4)
    qs = np.linspace(0.0, 1.0, 21)
    for _ in range(50):
        dc = random_lottery(rng)
        values = [cvar_value(dc, float(q)) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_cvar_between_mean_and_max():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dc = random_lottery(rng)
        for q in (0.1, 0.5, 0.9):
            v = cvar_value(dc, q)
            assert er_value(dc) - 1e-9 <= v <= dc.outcomes[-1] + 1e-12


def test_cvar_closed_form_examples():
    assert moment_risk(CVaR(0.3), 7.0, 0.0, grad=False)[0] == 7.0
    # quantile(0.5) = 0, pdf(0)/0.5
    assert moment_risk(CVaR(0.5), 0.0, 1.0, grad=False)[0] == pytest.approx(0.7978845608, abs=1e-9)
    assert moment_risk(CVaR(0.0), 2.0, 1.0, grad=False)[0] == 2.0
    assert moment_risk(CVaR(1.0), 2.0, 1.5, grad=False)[0] == pytest.approx(2.0 + 4.5)


def test_cvar_closed_form_monotone_in_sigma():
    values = [moment_risk(CVaR(0.3), 5.0, s, grad=False)[0] for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_cvar_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        moment_risk(CVaR(-0.1), 1.0, 1.0, grad=False)


# --- CPT --------------------------------------------------------------------


def test_cpt_reduces_to_er_at_unit_parameters():
    rng = np.random.default_rng(6)
    theta = CPT(1.0, 1.0, 1.0, 1.0)
    for _ in range(200):
        dc = random_lottery(rng)
        assert abs(cpt_value(dc, theta) - er_value(dc)) <= 1e-9


def test_cpt_lambda_scales_er():
    rng = np.random.default_rng(7)
    for lam in (1.0, 2.5, 10.0):
        theta = CPT(1.0, 1.0, 1.0, lam)
        for _ in range(50):
            dc = random_lottery(rng)
            assert abs(cpt_value(dc, theta) - lam * er_value(dc)) <= 1e-9


def test_cpt_concave_utility_below_er_for_costs_above_one():
    rng = np.random.default_rng(8)
    theta = CPT(1.0, 1.0, 0.7, 1.0)
    for _ in range(50):
        dc = random_lottery(rng, low=1.001, high=150.0)
        assert cpt_value(dc, theta) < er_value(dc)


def test_cpt_closed_form_degenerate():
    assert moment_risk(CPT(1, 1, 1, 1), 7.0, 0.0, 10, grad=False)[0] == pytest.approx(7.0, abs=1e-12)
    assert moment_risk(CPT(1, 1, 1, 3.0), 7.0, 0.0, 10, grad=False)[0] == pytest.approx(21.0, abs=1e-12)


def test_cpt_closed_form_matches_discretize_pipeline():
    # dual route: closed form vs discretize + lottery evaluation
    rng = np.random.default_rng(9)
    for _ in range(100):
        mu = rng.uniform(0.5, 200.0)
        sigma = rng.uniform(0.0, mu)  # includes clamped grids
        m = int(rng.integers(2, 33))
        theta = CPT(
            rng.uniform(0.3, 2.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.1, 1.0),
            rng.uniform(1.0, 5.0),
        )
        via_pipeline = cpt_value(discretize_truncated_gaussian(mu, sigma, m), theta)
        assert abs(moment_risk(theta, mu, sigma, m, grad=False)[0] - via_pipeline) <= 1e-9


# --- partials ----------------------------------------------------------------


def test_partials_er():
    _, d_mu, d_sigma = moment_risk(ExpectedRisk(), 12.0, 3.0)
    assert (d_mu, d_sigma) == (1.0, 0.0)


def test_partials_cvar():
    _, d_mu, d_sigma = moment_risk(CVaR(0.3), 12.0, 3.0)
    assert d_mu == 1.0
    assert d_sigma == pytest.approx(norm.pdf(norm.ppf(0.3)) / 0.3, abs=1e-9)
    assert d_sigma >= 0.0
    assert moment_risk(CVaR(0.0), 12.0, 3.0)[2] == 0.0
    assert moment_risk(CVaR(1.0), 12.0, 3.0)[2] == 3.0


def test_partials_cpt_linear_utility_closed_form():
    # at gamma = 1 the partials collapse to lambda-weighted moment sums
    from riskcbf.risk import cpt_pi_weights
    from riskcbf.distributions import lattice_coeffs as trunc_gauss_grid_coeffs

    lam, m = 2.5, 12
    pi = cpt_pi_weights(m, 1.0, 1.0)
    g = trunc_gauss_grid_coeffs(m)
    _, d_mu, d_sigma = moment_risk(CPT(1.0, 1.0, 1.0, lam), 30.0, 4.0, m)
    assert d_mu == pytest.approx(lam * pi.sum(), rel=1e-12)
    assert d_sigma == pytest.approx(lam * float(g @ pi), rel=1e-12)


def test_partials_cpt_match_finite_differences():
    # central-difference oracle on the closed form (fixed weights)
    rng = np.random.default_rng(10)
    for _ in range(100):
        mu = rng.uniform(5.0, 200.0)
        sigma = rng.uniform(0.01, mu / 3.5)
        theta = CPT(
            rng.uniform(0.5, 1.5),
            rng.uniform(0.5, 1.5),
            rng.uniform(0.3, 1.0),
            rng.uniform(1.0, 4.0),
        )
        step = 1e-5 * max(1.0, abs(mu))
        fd_mu = (
            moment_risk(theta, mu + step, sigma, grad=False)[0]
            - moment_risk(theta, mu - step, sigma, grad=False)[0]
        ) / (2 * step)
        fd_sigma = (
            moment_risk(theta, mu, sigma + step, grad=False)[0]
            - moment_risk(theta, mu, sigma - step, grad=False)[0]
        ) / (2 * step)
        _, d_mu, d_sigma = moment_risk(theta, mu, sigma)
        assert abs(d_mu - fd_mu) / max(1e-12, abs(fd_mu)) < 1e-5
        assert abs(d_sigma - fd_sigma) / max(1e-12, abs(fd_sigma)) < 1e-5


def test_partials_cpt_match_finite_differences_with_clamped_outcomes():
    # the lattice dips to 1 - 3 < 0; the clamped outcomes add a constant
    theta, step = CPT(1.0, 1.0, 0.5, 1.0), 1e-6
    _, d_mu, d_sigma = moment_risk(theta, 1.0, 1.0)
    fd_mu = (moment_risk(theta, 1.0 + step, 1.0)[0] - moment_risk(theta, 1.0 - step, 1.0)[0]) / (2 * step)
    fd_sigma = (moment_risk(theta, 1.0, 1.0 + step)[0] - moment_risk(theta, 1.0, 1.0 - step)[0]) / (2 * step)
    assert d_mu == pytest.approx(fd_mu, rel=1e-7)
    assert d_sigma == pytest.approx(fd_sigma, rel=1e-7)


def test_uncertainty_perception_signs():
    # concave weighting (beta < 1) is uncertainty averse, convex liking
    averse = moment_risk(CPT(1.0, 0.5, 1.0, 1.0), 10.0, 2.0)[2]
    liking = moment_risk(CPT(1.0, 2.0, 1.0, 1.0), 10.0, 2.0)[2]
    assert averse > 0.0
    assert liking < 0.0


# --- model range relationships ----------------------------------------------


def test_range_sandwich_on_lotteries():
    rng = np.random.default_rng(11)
    qs = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    for _ in range(50):
        dc = random_lottery(rng, low=1.01, high=150.0)
        cvar_values = [cvar_value(dc, q) for q in qs]
        lam_hi = math.ceil(dc.outcomes[-1] / er_value(dc)) + 1
        above = cpt_value(dc, CPT(1, 1, 1, lam_hi))
        below = cpt_value(dc, CPT(1, 1, 0.5, 1))
        assert above > max(cvar_values)
        assert below < min(cvar_values)


def test_risk_value_dispatch():
    rng = np.random.default_rng(12)
    dc = random_lottery(rng)
    assert risk_value(ExpectedRisk(), dc) == er_value(dc)
    assert risk_value(CVaR(0.4), dc) == cvar_value(dc, 0.4)
    theta = CPT(0.74, 1.0, 0.88, 2.0)
    assert risk_value(theta, dc) == cpt_value(dc, theta)


# --- spec parsing -------------------------------------------------------------


def test_parse_spec_round_trips():
    assert parse_spec("er") == ExpectedRisk()
    assert parse_spec("ER") == ExpectedRisk()
    assert parse_spec("cvar(0.5)") == CVaR(0.5)
    assert parse_spec("cpt(0.74, 1, 0.88, 2.25)") == CPT(0.74, 1.0, 0.88, 2.25)


@pytest.mark.parametrize(
    "text",
    ["", "brier", "cvar()", "cvar(0.5, 2)", "cpt(1, 2)", "cpt(a, b, c, d)", "er(1)"],
)
def test_parse_spec_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_spec(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        CVaR(1.5)
    with pytest.raises(ValueError):
        CPT(0.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        CPT(1.0, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        CPT(1.0, 1.0, 0.5, 0.5)
    # NaN fails every comparison, so each range check must reject it too
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0, 0.5, 1.0), (1.0, bad, 0.5, 1.0), (1.0, 1.0, bad, 1.0), (1.0, 1.0, 0.5, bad)):
            with pytest.raises(ValueError):
                CPT(*args)


def test_spec_labels_are_filename_safe():
    for spec in (ExpectedRisk(), CVaR(0.25), CPT(0.74, 1.0, 0.88, 2.25)):
        label = spec_label(spec)
        assert all(c.isalnum() or c in "_p" for c in label.replace("m", ""))
