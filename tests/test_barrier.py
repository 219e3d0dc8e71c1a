import math

import numpy as np
import pytest

from riskcbf.barrier import (
    AffineConstraint,
    BarrierConfig,
    InfeasibleConstraintError,
    barrier_constraint,
    barrier_value,
    constraint,
    control_set_probe,
    feasibility_margin,
    qp_filter,
)
from riskcbf.field import CostFieldParams, cost_gradients, discretized_cost_range, perceived_risk, risk_gradient
from riskcbf.risk import CPT, CVaR, ExpectedRisk, spec_label

PARAMS = CostFieldParams(200.0, 0.01, 0.5)
CONFIG = BarrierConfig(rho=PARAMS.sigma_peak, eta1_gain=1.0)
F0 = np.zeros(2)
G_ID = np.eye(2)


# --- barrier value -----------------------------------------------------------


def test_barrier_zero_on_boundary():
    # rho equals the mean cost at r_bar, so ER's barrier vanishes there
    xi = np.array([PARAMS.r_bar, 0.0])
    assert barrier_value(ExpectedRisk(), PARAMS, CONFIG, xi) == pytest.approx(0.0, abs=1e-9)


def test_barrier_approaches_rho_far_away():
    xi = np.array([500.0, 0.0])
    assert barrier_value(CPT(0.74, 1, 0.88, 2.0), PARAMS, CONFIG, xi) == pytest.approx(
        CONFIG.rho, rel=1e-6
    )


def test_barrier_sign_tracks_safety():
    for xi in ([0.2, 0.0], [0.8, 0.3], [5.0, 5.0]):
        h = barrier_value(ExpectedRisk(), PARAMS, CONFIG, xi)
        risk = perceived_risk(ExpectedRisk(), PARAMS, xi)
        assert (h > 0) == (risk < CONFIG.rho)


# --- constraint --------------------------------------------------------------


def test_constraint_vacuous_at_source():
    con = constraint(ExpectedRisk(), PARAMS, CONFIG, [3.0, 3.0], [3.0, 3.0], F0, G_ID, F0)
    assert np.allclose(con.a, 0.0)
    h = barrier_value(ExpectedRisk(), PARAMS, CONFIG, [0.0, 0.0])
    assert con.b == pytest.approx(-CONFIG.eta1_gain * h)


def test_constraint_single_integrator_static_obstacle():
    x, y = np.array([4.0, 2.0]), np.array([9.0, 7.0])
    spec = CPT(0.74, 1.0, 0.88, 2.25)
    con = constraint(spec, PARAMS, CONFIG, x, y, F0, G_ID, F0)
    g = risk_gradient(spec, PARAMS, y - x)
    h = barrier_value(spec, PARAMS, CONFIG, y - x)
    assert np.allclose(con.a, g)
    assert con.b == pytest.approx(-CONFIG.eta1_gain * h)


def test_constraint_respects_input_matrix():
    x, y = np.array([4.0, 2.0]), np.array([8.0, 5.0])
    G = np.array([[1.0, 0.5], [0.0, 2.0]])
    con = constraint(ExpectedRisk(), PARAMS, CONFIG, x, y, F0, G, F0)
    g = risk_gradient(ExpectedRisk(), PARAMS, y - x)
    assert np.allclose(con.a, G.T @ g)


def test_filtered_control_keeps_barrier_condition_along_flow():
    # central-difference oracle for hdot along the closed-loop flow
    rng = np.random.default_rng(0)
    spec = CVaR(0.3)
    dt = 1e-6
    for _ in range(50):
        x = rng.uniform(0.0, 15.0, 2)
        y = rng.uniform(0.0, 15.0, 2)
        if np.linalg.norm(y - x) < 0.5:
            continue
        f_y = rng.uniform(-1.0, 1.0, 2)
        con = constraint(spec, PARAMS, CONFIG, x, y, F0, G_ID, f_y)
        u = qp_filter(rng.uniform(-5.0, 5.0, 2), con)
        h0 = barrier_value(spec, PARAMS, CONFIG, y - x)

        def h_at(tau):
            return barrier_value(
                spec, PARAMS, CONFIG, (y + tau * f_y) - (x + tau * u)
            )

        hdot_fd = (h_at(dt) - h_at(-dt)) / (2 * dt)
        assert hdot_fd >= -CONFIG.eta1_gain * h0 - 1e-6 * max(1.0, abs(h0))


# --- qp filter ----------------------------------------------------------------


def test_qp_passthrough_when_feasible():
    con = AffineConstraint(np.array([1.0, 0.0]), 2.0)
    k = np.array([5.0, -1.0])
    assert np.array_equal(qp_filter(k, con), k)


def test_qp_hand_projection_with_grid_search_oracle():
    con = AffineConstraint(np.array([1.0, 0.0]), 2.0)
    u = qp_filter(np.zeros(2), con)
    assert np.allclose(u, [2.0, 0.0])
    # optimality: no boundary point beats the projection
    for s in np.linspace(-10.0, 10.0, 2001):
        assert np.linalg.norm(u) <= np.hypot(2.0, s) + 1e-12


def test_qp_random_instances_satisfy_and_beat_samples():
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = rng.uniform(-10, 10, 2)
        a = rng.uniform(-3, 3, 2)
        if np.linalg.norm(a) < 1e-6:
            continue
        b = rng.uniform(-10, 10)
        con = AffineConstraint(a, b)
        u = qp_filter(k, con)
        assert float(a @ u) >= b - 1e-12
        # random feasible candidates from the halfspace parameterization
        a_hat = a / np.linalg.norm(a)
        perp = np.array([-a_hat[1], a_hat[0]])
        boundary = (b / (a @ a)) * a
        t = rng.uniform(0.0, 5.0, 200)
        s = rng.uniform(-5.0, 5.0, 200)
        candidates = boundary[None, :] + t[:, None] * a_hat[None, :] + s[:, None] * perp[None, :]
        dists = np.linalg.norm(candidates - k[None, :], axis=1)
        assert np.linalg.norm(u - k) <= dists.min() + 1e-9


def test_qp_infeasible_raises():
    with pytest.raises(InfeasibleConstraintError):
        qp_filter(np.zeros(2), AffineConstraint(np.zeros(2), 1.0))


def test_qp_zero_normal_nonpositive_offset_passthrough():
    k = np.array([1.0, 2.0])
    assert np.array_equal(qp_filter(k, AffineConstraint(np.zeros(2), 0.0)), k)
    assert np.array_equal(qp_filter(k, AffineConstraint(np.zeros(2), -3.0)), k)


def test_affine_constraint_rejects_nonfinite():
    with pytest.raises(ValueError):
        AffineConstraint(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        AffineConstraint(np.array([1.0, 0.0]), math.inf)


# --- feasibility margin ---------------------------------------------------------


def test_margin_perpendicular_motion():
    # relative velocity orthogonal to the gradient: lhs = 0, feasible on
    # the safe set where eta1(h) >= 0
    x, y = np.array([4.0, 4.0]), np.array([9.0, 4.0])
    g = risk_gradient(CVaR(0.3), PARAMS, y - x)
    v = np.array([-g[1], g[0]])  # orthogonal to g
    u = -v  # xi_dot = f_y - u = v with f_y = 0
    d = feasibility_margin(CVaR(0.3), PARAMS, CONFIG, x, y, F0, G_ID, F0, u)
    assert d.lhs == pytest.approx(0.0, abs=1e-12)
    assert d.h > 0 and d.feasible


def test_margin_er_reduces_to_mean_gradient_ratio():
    x, y = np.array([3.0, 3.0]), np.array([9.0, 7.0])
    d = feasibility_margin(ExpectedRisk(), PARAMS, CONFIG, x, y, F0, G_ID, F0, [1.0, 0.0])
    gm, _ = cost_gradients(PARAMS, y - x)
    h = barrier_value(ExpectedRisk(), PARAMS, CONFIG, y - x)
    assert d.rhs == pytest.approx(-CONFIG.eta1_gain * h / np.linalg.norm(gm), rel=1e-12)


def test_margin_agrees_with_direct_inequality():
    rng = np.random.default_rng(2)
    specs = [ExpectedRisk(), CVaR(0.2), CVaR(0.9), CPT(0.74, 1.0, 0.88, 2.25)]
    checked = 0
    while checked < 1000:
        spec = specs[int(rng.integers(len(specs)))]
        x = rng.uniform(0, 15, 2)
        y = rng.uniform(0, 15, 2)
        if np.linalg.norm(y - x) < 1e-3:
            continue
        u = rng.uniform(-5, 5, 2)
        f_y = rng.uniform(-2, 2, 2)
        d = feasibility_margin(spec, PARAMS, CONFIG, x, y, F0, G_ID, f_y, u)
        direct = d.hdot >= -CONFIG.eta1_gain * d.h
        if abs(d.hdot + CONFIG.eta1_gain * d.h) > 1e-9:  # skip exact boundary ties
            assert d.feasible == direct
        checked += 1


def test_margin_flags_undefined_angle():
    x = np.array([3.0, 3.0])
    d = feasibility_margin(ExpectedRisk(), PARAMS, CONFIG, x, x, F0, G_ID, F0, [1.0, 0.0])
    assert not d.angle_defined  # gradient vanishes at the source
    y = np.array([8.0, 3.0])
    f_y = np.array([0.5, -0.25])
    d = feasibility_margin(ExpectedRisk(), PARAMS, CONFIG, x, y, F0, G_ID, f_y, f_y)
    assert not d.angle_defined  # zero relative velocity
    assert d.feasible  # hdot = 0 >= -eta1(h) on the safe set


# --- control-set probe ------------------------------------------------------------


def test_probe_identical_specs_identical_counts():
    rng = np.random.default_rng(3)
    samples = rng.uniform(-5, 5, (200, 2))
    specs = [CVaR(0.4), CVaR(0.4), CVaR(0.4)]
    res = control_set_probe(
        specs, PARAMS, CONFIG, [4.0, 2.0], [9.0, 7.0], F0, G_ID, [0.3, -0.2], samples
    )
    assert res.counts[0] == res.counts[1] == res.counts[2]
    assert np.array_equal(res.feasible[0], res.feasible[1])


def test_probe_er_subset_of_risk_insensitive_cpt():
    # the low-gamma family extreme certifies everything ER does
    c_min, c_max = discretized_cost_range(PARAMS, (10.0, 10.0), (0, 15, 0, 15), (60, 60))
    gamma_ext = min(1.0, math.log(CONFIG.rho) / math.log(c_max))
    insensitive = CPT(1.0, 1.0, gamma_ext, 1.0)
    rng = np.random.default_rng(4)
    samples = rng.uniform(-6, 6, (500, 2))
    states = 0
    while states < 100:
        x = rng.uniform(0, 15, 2)
        y = rng.uniform(0, 15, 2)
        d = np.linalg.norm(y - x)
        if d < 1.0 or d > 12.0:
            continue
        f_y = rng.uniform(-1.0, 1.0, 2)
        res = control_set_probe(
            [ExpectedRisk(), insensitive], PARAMS, CONFIG, x, y, F0, G_ID, f_y, samples
        )
        er_feasible, cpt_feasible = res.feasible
        assert not np.any(er_feasible & ~cpt_feasible)
        states += 1


def test_probe_rejects_empty_samples():
    with pytest.raises(ValueError):
        control_set_probe(
            [ExpectedRisk()], PARAMS, CONFIG, [0.0, 0.0], [5.0, 5.0], F0, G_ID, F0, []
        )


# --- obstacle batches ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, rtol",
    [
        (ExpectedRisk(), 0.0),
        (CVaR(0.0), 0.0),
        (CVaR(0.3), 0.0),
        (CVaR(1.0), 0.0),
        (CPT(0.74, 1.0, 0.88, 2.25), 1e-12),
    ],
)
def test_barrier_constraint_batch_matches_single_obstacles(spec, rtol):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 5.0, 2)
    f = rng.uniform(-1.0, 1.0, 2)
    y = x + rng.uniform(-4.0, 4.0, (5, 2))
    f_y = rng.uniform(-2.0, 2.0, (5, 2))
    G = rng.uniform(-1.0, 1.0, (2, 2))
    h, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, f, G, f_y)
    assert (h.shape, a.shape, b.shape) == ((5,), (5, 2), (5,))
    singles = [barrier_constraint(spec, PARAMS, CONFIG, x, y[k], f, G, f_y[k]) for k in range(5)]
    for got, want in zip((h, a, b), zip(*singles)):
        np.testing.assert_allclose(got, np.array(want), rtol=rtol, atol=0.0)
    for k, (h_k, a_k, b_k) in enumerate(singles):
        assert h_k.shape == () and a_k.shape == (2,) and b_k.shape == ()
        # constraint is the one-obstacle AffineConstraint view
        con = constraint(spec, PARAMS, CONFIG, x, y[k], f, G, f_y[k])
        assert np.array_equal(con.a, a_k) and con.b == b_k
        np.testing.assert_allclose(a_k, G.T @ risk_gradient(spec, PARAMS, y[k] - x), rtol=1e-12)


# --- perturbation ordering -----------------------------------------------------------


def test_unit_cpt_perturbs_no_more_than_er_and_cvar():
    # pointwise on states where all three constraints are active
    theta_bar = CPT(1.0, 1.0, 1.0, 1.0)
    specs = [ExpectedRisk(), CVaR(0.2), theta_bar]
    rng = np.random.default_rng(5)
    active_states = 0
    while active_states < 50:
        x = rng.uniform(0, 15, 2)
        y = rng.uniform(0, 15, 2)
        d = np.linalg.norm(y - x)
        if d < 1.5 or d > 6.0:
            continue
        k_nom = rng.uniform(-6, 6, 2)
        f_y = rng.uniform(-1.5, 1.5, 2)
        deltas = {}
        all_active = True
        for spec in specs:
            con = constraint(spec, PARAMS, CONFIG, x, y, F0, G_ID, f_y)
            if con.satisfied_by(k_nom):
                all_active = False
                break
            deltas[spec_label(spec)] = np.linalg.norm(qp_filter(k_nom, con) - k_nom)
        if not all_active:
            continue
        active_states += 1
        cpt_delta = deltas[spec_label(theta_bar)]
        assert cpt_delta <= deltas["er"] + 1e-9
        assert cpt_delta <= deltas[spec_label(CVaR(0.2))] + 1e-9


def test_barrier_config_validation():
    with pytest.raises(ValueError):
        BarrierConfig(rho=-1.0)
    with pytest.raises(ValueError):
        BarrierConfig(rho=1.0, eta1_gain=0.0)
    for rho, eta1_gain in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            BarrierConfig(rho=rho, eta1_gain=eta1_gain)


def test_far_field_states_feasible_for_all_models():
    rng = np.random.default_rng(6)
    specs = [ExpectedRisk(), CVaR(0.001), CVaR(0.999), CPT(0.74, 1.0, 0.88, 3.5)]
    for _ in range(25):
        x = rng.uniform(0.0, 5.0, 2)
        y = x + rng.uniform(50.0, 80.0) * np.array([1.0, 0.3])
        u = rng.uniform(-5.0, 5.0, 2)
        f_y = rng.uniform(-1.0, 1.0, 2)
        for spec in specs:
            d = feasibility_margin(spec, PARAMS, CONFIG, x, y, F0, G_ID, f_y, u)
            assert d.feasible
