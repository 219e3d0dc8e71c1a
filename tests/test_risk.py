import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import norm, truncnorm

from riskcbf.config import load_config
from riskcbf.distributions import lattice_coeffs, lattice_masses
from riskcbf.risk import (
    CPT,
    CVaR,
    ExpectedRisk,
    decision_weights,
    moment_risk,
    parse_spec,
    prob_weight,
    spec_label,
    weighting,
)
from shipped import CONFIGS


def random_lottery(rng, m=None, low=0.0, high=200.0):
    """Ascending outcomes and their Dirichlet masses."""
    m = m if m is not None else int(rng.integers(2, 33))
    return np.sort(rng.uniform(low, high, m)), rng.dirichlet(np.ones(m))


def lottery_risk(spec, c, p):
    """The module's formula over ascending outcomes c >= 0 with masses p,
    written out once over its public pieces."""
    gamma, lam = (spec.gamma, spec.lam) if isinstance(spec, CPT) else (1.0, 1.0)
    return lam * c**gamma @ decision_weights(p, weighting(spec))


# --- weighting ---------------------------------------------------------------


def test_prob_weight_identity_at_unit_parameters():
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert prob_weight(p, 1.0, 1.0) == pytest.approx(p, abs=1e-12)


def test_prob_weight_boundary_values():
    assert prob_weight(0.0, 0.74, 1.0) == 0.0
    assert prob_weight(1.0, 0.74, 1.0) == 1.0


def test_prob_weight_rejects_a_probability_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\]"):
        prob_weight(1.5, 0.74, 1.0)


def test_prob_weight_half_with_curved_alpha():
    # direct evaluation of exp(-(log 2)**0.74)
    expected = math.exp(-((math.log(2.0)) ** 0.74))
    assert expected == pytest.approx(0.4665225, abs=1e-6)
    assert prob_weight(0.5, 0.74, 1.0) == pytest.approx(expected, abs=1e-12)


def test_decision_weights_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
        assert np.allclose(decision_weights(p, weighting(CPT(1.0, 1.0, 1.0, 1.0))), p, atol=1e-12)


def test_decision_weights_two_point():
    w_half = prob_weight(0.5, 0.74, 1.0)
    weights = decision_weights(np.array([0.5, 0.5]), weighting(CPT(0.74, 1.0, 1.0, 1.0)))
    assert weights == pytest.approx([1.0 - w_half, w_half], abs=1e-14)


def test_decision_weights_mass_on_last_outcome():
    weights = decision_weights(np.array([0.0, 0.0, 1.0]), weighting(CPT(0.74, 1.0, 1.0, 1.0)))
    assert weights == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)


def test_decision_weights_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 16))))
        alpha, beta = rng.uniform(0.2, 2.0, 2)
        assert np.all(decision_weights(p, weighting(CPT(alpha, beta, 1.0, 1.0))) >= -1e-15)


# --- ER and CVaR -----------------------------------------------------------


def test_er_examples():
    assert lottery_risk(ExpectedRisk(), np.array([2.0, 4.0]), np.array([0.5, 0.5])) == 3.0
    assert lottery_risk(ExpectedRisk(), np.array([5.0, 5.0]), np.array([0.5, 0.5])) == 5.0


def test_er_matches_bruteforce_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c, p = random_lottery(rng)
        brute = sum(c_i * p_i for c_i, p_i in zip(c, p))
        assert lottery_risk(ExpectedRisk(), c, p) == pytest.approx(brute, rel=1e-12)


def test_cvar_uniform_example():
    c, p = np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 0.25)
    # the worst half of the mass is {3, 4}
    assert lottery_risk(CVaR(0.5), c, p) == pytest.approx(3.5, abs=1e-12)
    # the worst 0.6 takes 0.1 of the atom at 2: (0.1 * 2 + 0.25 * 7) / 0.6
    assert lottery_risk(CVaR(0.4), c, p) == pytest.approx(1.95 / 0.6, abs=1e-12)


def rockafellar_uryasev(outcomes, probabilities, q):
    """CVaR(q) = min over z of z + E[(C - z)+] / (1 - q), for q < 1; the
    minimum of this convex piecewise-linear function is at an outcome."""
    return min(z + probabilities @ np.maximum(outcomes - z, 0.0) / (1.0 - q) for z in outcomes)


def test_cvar_matches_rockafellar_uryasev_oracle():
    # acceptance criterion 02's lotteries, through an oracle that shares no
    # code with decision_weights
    rng = np.random.default_rng(2)
    qs = np.linspace(0.0, 1.0, 26)[:-1]
    for _ in range(300):
        c, p = random_lottery(rng)
        for q in qs:
            assert abs(lottery_risk(CVaR(float(q)), c, p) - rockafellar_uryasev(c, p, q)) <= 1e-9


def test_cvar_limits():
    rng = np.random.default_rng(3)
    for _ in range(30):
        c, p = random_lottery(rng)
        assert lottery_risk(CVaR(0.0), c, p) == pytest.approx(lottery_risk(ExpectedRisk(), c, p), abs=1e-9)
        assert lottery_risk(CVaR(1.0), c, p) == c[-1]


def test_cvar_monotone_in_q():
    rng = np.random.default_rng(4)
    qs = np.linspace(0.0, 1.0, 21)
    for _ in range(50):
        c, p = random_lottery(rng)
        values = [lottery_risk(CVaR(float(q)), c, p) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_cvar_between_mean_and_max():
    rng = np.random.default_rng(5)
    for _ in range(30):
        c, p = random_lottery(rng)
        for q in (0.1, 0.5, 0.9):
            v = lottery_risk(CVaR(q), c, p)
            assert lottery_risk(ExpectedRisk(), c, p) - 1e-9 <= v <= c[-1] + 1e-12


def test_cvar_closed_form_examples():
    assert moment_risk(CVaR(0.3), 7.0, 0.0, grad=False)[0] == 7.0
    # q = 0.5 cuts the lattice at a bin edge, where the conditional means
    # give the truncated normal's upper-half mean exactly
    assert moment_risk(CVaR(0.5), 0.0, 1.0, grad=False)[0] == pytest.approx(truncnorm(0.0, 3.0).mean(), abs=1e-12)
    assert moment_risk(CVaR(0.0), 2.0, 1.0, grad=False)[0] == 2.0
    # CVaR(1) is the top outcome, mu + g_m * sigma with g_m = 2.6232 at m = 10
    g_m = truncnorm(2.4, 3.0).mean()
    assert moment_risk(CVaR(1.0), 2.0, 1.5, grad=False)[0] == pytest.approx(2.0 + 1.5 * g_m, abs=1e-12)


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
        c, p = random_lottery(rng)
        assert abs(lottery_risk(theta, c, p) - lottery_risk(ExpectedRisk(), c, p)) <= 1e-9


def test_cpt_lambda_scales_er():
    rng = np.random.default_rng(7)
    for lam in (1.0, 2.5, 10.0):
        theta = CPT(1.0, 1.0, 1.0, lam)
        for _ in range(50):
            c, p = random_lottery(rng)
            assert abs(lottery_risk(theta, c, p) - lam * lottery_risk(ExpectedRisk(), c, p)) <= 1e-9


def test_cpt_concave_utility_below_er_for_costs_above_one():
    rng = np.random.default_rng(8)
    theta = CPT(1.0, 1.0, 0.7, 1.0)
    for _ in range(50):
        c, p = random_lottery(rng, low=1.001, high=150.0)
        assert lottery_risk(theta, c, p) < lottery_risk(ExpectedRisk(), c, p)


def test_cpt_closed_form_degenerate():
    assert moment_risk(CPT(1, 1, 1, 1), 7.0, 0.0, 10, grad=False)[0] == pytest.approx(7.0, abs=1e-12)
    assert moment_risk(CPT(1, 1, 1, 3.0), 7.0, 0.0, 10, grad=False)[0] == pytest.approx(21.0, abs=1e-12)


def test_cpt_closed_form_matches_discretize_pipeline():
    # dual route: the lane path against the formula written out over the
    # lattice's outcomes, clamped at 0, and masses, for every model
    rng = np.random.default_rng(9)
    for i in range(300):
        mu = rng.uniform(0.5, 200.0)
        m = int(rng.integers(2, 33))
        if i % 3 == 0:
            spec = CPT(
                rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 2.0),
                rng.uniform(0.1, 1.0),
                rng.uniform(1.0, 5.0),
            )
            sigma = rng.uniform(0.0, mu)  # includes clamped grids
        else:
            # ER and CVaR take their linear form, which is the lottery's
            # value where no outcome clamps: sigma < mu / |g_1|
            spec = ExpectedRisk() if i % 3 == 1 else CVaR(float(rng.choice([0.0, 1.0, rng.uniform()])))
            sigma = rng.uniform(0.0, mu / abs(lattice_coeffs(m)[0]))
        via_pipeline = lottery_risk(spec, np.maximum(mu + sigma * lattice_coeffs(m), 0.0), lattice_masses(m))
        assert abs(moment_risk(spec, mu, sigma, m, grad=False)[0] - via_pipeline) <= 1e-9, spec


# --- the continuous truncated Gaussian --------------------------------------
#
# The lattice stands for the cost truncated at 3 sigma. These oracles
# evaluate each model on that continuous cost, so they check the model and
# not only moment_risk's arithmetic: CVaR in closed form (Rockafellar &
# Uryasev, J. Risk 2000), CPT over the continuous prospect by quadrature
# (Tversky & Kahneman 1992).
#
# Relative error of moment_risk against them at c_mu / c_sigma = 6.3 (ER and
# CVaR are linear in (c_mu, c_sigma) and CPT is homogeneous of degree gamma,
# so the error depends on the ratio alone; NumPy 2.4.6, SciPy 1.17.1):
#
#   spec                      m = 10    m = 40    m = 160   m = 640   m = 2560
#   CVaR(0.1)                -5.26e-4  -8.52e-5  -2.36e-7  -5.73e-8  -1.23e-8
#   CVaR(0.8)                -7.55e-3  -4.99e-4  -2.98e-5  -2.00e-6  -6.10e-8
#   CVaR(0.999)              -3.08e-2  -1.21e-3  -1.34e-4  -8.57e-6  -4.69e-7
#   CPT(0.74, 1, 0.88, 2.25)  6.82e-6  -2.84e-5  -6.19e-6  -1.06e-6  -1.68e-7
#   CPT(0.3, 1, 0.8, 3)       4.88e-5  -5.13e-4  -1.78e-4  -5.00e-5  -1.31e-5
#
# CVaR reads low at every m. The CPT error is not monotone below m = 40
# (CPT(0.3, 1, 0.8, 3) reads -6.07e-4 at m = 20); from m = 40 on, every row
# lies under 0.1/m.

TRUNCATED = truncnorm(-3.0, 3.0)
TRUNCATED_MASS = norm.cdf(3.0) - norm.cdf(-3.0)
LATTICE_ERROR_M10 = {
    CVaR(0.1): -5.26e-4,
    CVaR(0.8): -7.55e-3,
    CVaR(0.999): -3.08e-2,
    CPT(0.74, 1.0, 0.88, 2.25): 6.82e-6,
    CPT(0.3, 1.0, 0.8, 3.0): 4.88e-5,
}


def continuous_cvar(q, mu, sigma):
    """mu + sigma * E[Z | Z >= z_q], for Z the standard normal truncated at
    3 and z_q its q-quantile."""
    z_q = TRUNCATED.ppf(q)
    return mu + sigma * (norm.pdf(z_q) - norm.pdf(3.0)) / ((1.0 - q) * TRUNCATED_MASS)


def continuous_cpt(spec, mu, sigma):
    """lam * (lo**gamma + the integral over [lo, hi] of w(S(c)) * gamma *
    c**(gamma - 1)), with S the truncated cost's survival function and
    Prelec's w: the Choquet integral of c**gamma, for lo = mu - 3 sigma >= 0."""
    lo, hi = mu - 3.0 * sigma, mu + 3.0 * sigma
    assert lo >= 0.0

    def integrand(c):
        # TRUNCATED.sf, through the normal's upper tail: about 300 times faster
        s = (special.ndtr((mu - c) / sigma) - special.ndtr(-3.0)) / TRUNCATED_MASS
        w = math.exp(-spec.beta * (-math.log(s)) ** spec.alpha) if s > 0.0 else 0.0
        return w * spec.gamma * c ** (spec.gamma - 1.0)

    tail, err = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    assert err <= 1e-10 * tail
    return spec.lam * (lo**spec.gamma + tail)


def test_continuous_oracles_at_known_values():
    assert continuous_cvar(0.0, 6.3, 1.0) == pytest.approx(6.3, rel=1e-15)
    assert continuous_cvar(0.5, 6.3, 1.0) == pytest.approx(6.3 + TRUNCATED.expect(lb=0.0) / 0.5, rel=1e-12)
    # unit parameters make CPT the mean
    assert continuous_cpt(CPT(1.0, 1.0, 1.0, 1.0), 6.3, 1.0) == pytest.approx(6.3, rel=1e-12)


def test_er_is_the_continuous_mean_at_every_m():
    for m in (2, 3, 10, 40, 160, 640, 2560):
        for mu, sigma in ((6.3, 1.0), (200.0, 31.7), (1.0, 0.2)):
            assert moment_risk(ExpectedRisk(), mu, sigma, m, grad=False)[0] == mu


@pytest.mark.parametrize("spec", list(LATTICE_ERROR_M10), ids=spec_label)
def test_lattice_converges_to_the_continuous_cost(spec):
    mu, sigma = 6.3, 1.0
    exact = continuous_cvar(spec.q, mu, sigma) if isinstance(spec, CVaR) else continuous_cpt(spec, mu, sigma)

    def error(m):
        return moment_risk(spec, mu, sigma, m, grad=False)[0] / exact - 1.0

    assert error(10) == pytest.approx(LATTICE_ERROR_M10[spec], rel=0.05)
    for m in (40, 160, 640, 2560):
        assert abs(error(m)) <= 0.1 / m


def test_shipped_cpt_specs_lie_near_the_continuous_cost():
    # the figure the distributions docstring and the README state for m = 10
    specs = {spec for path in CONFIGS.glob("*.cfg") for spec in load_config(path).specs() if isinstance(spec, CPT)}
    assert len(specs) == 16
    for spec in specs:
        assert abs(moment_risk(spec, 6.3, 1.0, grad=False)[0] / continuous_cpt(spec, 6.3, 1.0) - 1.0) <= 2.3e-4, spec


# --- partials ----------------------------------------------------------------


def test_partials_er():
    _, d_mu, d_sigma = moment_risk(ExpectedRisk(), 12.0, 3.0)
    assert (d_mu, d_sigma) == (1.0, 0.0)


def test_partials_cvar():
    # d/dc_sigma is the gain k: the mean of the worst 1 - q of the lattice
    g, p = lattice_coeffs(10), lattice_masses(10)
    _, d_mu, d_sigma = moment_risk(CVaR(0.3), 12.0, 3.0)
    assert d_mu == 1.0
    assert d_sigma == pytest.approx(rockafellar_uryasev(g, p, 0.3), abs=1e-12)
    assert d_sigma >= 0.0
    assert moment_risk(CVaR(0.0), 12.0, 3.0)[2] == 0.0
    assert moment_risk(CVaR(1.0), 12.0, 3.0)[2] == g[-1]


def test_partials_cpt_linear_utility_closed_form():
    # at gamma = 1 the partials collapse to lambda-weighted moment sums
    lam, m = 2.5, 12
    theta = CPT(1.0, 1.0, 1.0, lam)
    pi = decision_weights(lattice_masses(m), weighting(theta))
    g = lattice_coeffs(m)
    _, d_mu, d_sigma = moment_risk(theta, 30.0, 4.0, m)
    assert d_mu == pytest.approx(lam * pi.sum(), rel=1e-12)
    assert d_sigma == pytest.approx(lam * float(g @ pi), abs=1e-12)


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
        c, p = random_lottery(rng, low=1.01, high=150.0)
        cvar_values = [lottery_risk(CVaR(q), c, p) for q in qs]
        lam_hi = math.ceil(c[-1] / lottery_risk(ExpectedRisk(), c, p)) + 1
        above = lottery_risk(CPT(1, 1, 1, lam_hi), c, p)
        below = lottery_risk(CPT(1, 1, 0.5, 1), c, p)
        assert above > max(cvar_values)
        assert below < min(cvar_values)


def test_risk_value_dispatch():
    rng = np.random.default_rng(12)
    c, p = random_lottery(rng)
    # each model against its definition, written out here
    assert lottery_risk(ExpectedRisk(), c, p) == c @ p
    assert abs(lottery_risk(CVaR(0.4), c, p) - rockafellar_uryasev(c, p, 0.4)) <= 1e-9
    theta = CPT(0.74, 1.0, 0.88, 2.0)
    tails = np.append(np.cumsum(p[::-1])[::-1], 0.0)
    with np.errstate(divide="ignore"):
        w = np.exp(-theta.beta * (-np.log(np.minimum(tails, 1.0))) ** theta.alpha)
    expected = theta.lam * sum(c_i**theta.gamma * (w[i] - w[i + 1]) for i, c_i in enumerate(c))
    assert lottery_risk(theta, c, p) == pytest.approx(expected, rel=1e-12)


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


@pytest.mark.parametrize("function", [weighting, spec_label])
def test_weighting_and_label_reject_a_non_spec(function):
    with pytest.raises(TypeError, match="unknown risk spec 0.5"):
        function(0.5)


def test_spec_labels_are_filename_safe():
    for spec in (ExpectedRisk(), CVaR(0.25), CPT(0.74, 1.0, 0.88, 2.25)):
        label = spec_label(spec)
        assert all(c.isalnum() or c in "_p" for c in label.replace("m", ""))
