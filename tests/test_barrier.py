import math

import numpy as np
import pytest

from riskcbf.barrier import (
    BarrierConfig,
    InfeasibleConstraintError,
    barrier_constraint,
    feasibility_margin,
    qp_filter,
)
from riskcbf.field import CostFieldParams, cost_gradients, discretized_cost_range, evaluate
from riskcbf.risk import CPT, CVaR, ExpectedRisk, spec_label

PARAMS = CostFieldParams(200.0, 0.01, 0.5)
CONFIG = BarrierConfig(rho=PARAMS.sigma_peak, eta1_gain=1.0)
F0 = np.zeros(2)


# --- barrier value -----------------------------------------------------------


def test_barrier_zero_on_boundary():
    # rho equals the mean cost at r_bar, so ER's barrier vanishes there
    xi = np.array([PARAMS.r_bar, 0.0])
    h, _, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, F0, xi, F0)
    assert h == pytest.approx(0.0, abs=1e-9)


def test_barrier_approaches_rho_far_away():
    # the CPT partials are singular where every lattice outcome clamps
    # at zero, so only the value h = rho - R is defined this far out
    risk, _ = evaluate(CPT(0.74, 1, 0.88, 2.0), PARAMS, [500.0, 0.0], grad=False)
    assert CONFIG.rho - risk == pytest.approx(CONFIG.rho, rel=1e-6)


def test_barrier_sign_tracks_safety():
    xi = np.array([[0.2, 0.0], [0.8, 0.3], [5.0, 5.0]])
    h, _, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, F0, xi, np.zeros((3, 2)))
    risk, _ = evaluate(ExpectedRisk(), PARAMS, xi, grad=False)
    assert np.array_equal(h > 0, risk < CONFIG.rho)


# --- constraint --------------------------------------------------------------


def test_constraint_vacuous_at_source():
    h, a, b = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, [3.0, 3.0], [3.0, 3.0], F0)
    assert np.allclose(a, 0.0)
    assert h == CONFIG.rho - PARAMS.k1
    assert b == pytest.approx(-CONFIG.eta1_gain * h)


def test_constraint_single_integrator_static_obstacle():
    x, y = np.array([4.0, 2.0]), np.array([9.0, 7.0])
    spec = CPT(0.74, 1.0, 0.88, 2.25)
    h, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, F0)
    risk, g = evaluate(spec, PARAMS, y - x)
    assert h == CONFIG.rho - risk
    assert np.array_equal(a, g)
    assert b == pytest.approx(-CONFIG.eta1_gain * h)


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
        h0, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
        u = qp_filter(rng.uniform(-5.0, 5.0, 2), a, b)

        def h_at(tau):
            return barrier_constraint(spec, PARAMS, CONFIG, x + tau * u, y + tau * f_y, f_y)[0]

        hdot_fd = (h_at(dt) - h_at(-dt)) / (2 * dt)
        assert hdot_fd >= -CONFIG.eta1_gain * h0 - 1e-6 * max(1.0, abs(h0))


# --- qp filter ----------------------------------------------------------------


def test_qp_passthrough_when_feasible():
    k = np.array([5.0, -1.0])
    assert np.array_equal(qp_filter(k, np.array([1.0, 0.0]), 2.0), k)


def test_qp_hand_projection_with_grid_search_oracle():
    u = qp_filter(np.zeros(2), np.array([1.0, 0.0]), 2.0)
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
        u = qp_filter(k, a, b)
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
        qp_filter(np.zeros(2), np.zeros(2), 1.0)


def test_qp_zero_normal_nonpositive_offset_passthrough():
    k = np.array([1.0, 2.0])
    assert np.array_equal(qp_filter(k, np.zeros(2), 0.0), k)
    assert np.array_equal(qp_filter(k, np.zeros(2), -3.0), k)


def test_qp_rejects_nonfinite_constraint():
    # a nominal control that already satisfies a finite row must not
    # hide a non-finite one
    k = np.array([5.0, 0.0])
    with pytest.raises(ValueError):
        qp_filter(k, np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        qp_filter(k, np.array([1.0, 0.0]), -math.inf)


# --- feasibility margin ---------------------------------------------------------


def test_margin_perpendicular_motion():
    # relative velocity orthogonal to the gradient: lhs = 0, feasible on
    # the safe set where eta1(h) >= 0
    x, y = np.array([4.0, 4.0]), np.array([9.0, 4.0])
    h, g, _ = barrier_constraint(CVaR(0.3), PARAMS, CONFIG, x, y, F0)
    v = np.array([-g[1], g[0]])  # orthogonal to g
    d = feasibility_margin(h, g, v, CONFIG.eta1_gain)
    assert d.lhs == pytest.approx(0.0, abs=1e-12)
    assert d.h > 0 and d.feasible


def test_margin_er_reduces_to_mean_gradient_ratio():
    x, y = np.array([3.0, 3.0]), np.array([9.0, 7.0])
    h, a, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, x, y, F0)
    d = feasibility_margin(h, a, F0 - [1.0, 0.0], CONFIG.eta1_gain)
    gm, _ = cost_gradients(PARAMS, y - x)
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
        h, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
        d = feasibility_margin(h, a, f_y - u, CONFIG.eta1_gain)
        assert d.feasible == (a @ u >= b) or abs(a @ u - b) <= 1e-9
        direct = d.hdot >= -CONFIG.eta1_gain * d.h
        if abs(d.hdot + CONFIG.eta1_gain * d.h) > 1e-9:  # skip exact boundary ties
            assert d.feasible == direct
        checked += 1


def test_margin_flags_undefined_angle():
    x = np.array([3.0, 3.0])
    h, a, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, x, x, F0)
    d = feasibility_margin(h, a, F0 - [1.0, 0.0], CONFIG.eta1_gain)
    assert not d.angle_defined  # gradient vanishes at the source
    y = np.array([8.0, 3.0])
    f_y = np.array([0.5, -0.25])
    h, a, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, x, y, f_y)
    d = feasibility_margin(h, a, f_y - f_y, CONFIG.eta1_gain)
    assert not d.angle_defined  # zero relative velocity
    assert d.feasible  # hdot = 0 >= -eta1(h) on the safe set


# --- control-set probe ------------------------------------------------------------


def test_probe_identical_specs_identical_counts():
    rng = np.random.default_rng(3)
    samples = rng.uniform(-5, 5, (200, 2))
    feasible = []
    for spec in [CVaR(0.4), CVaR(0.4), CVaR(0.4)]:
        _, a, b = barrier_constraint(spec, PARAMS, CONFIG, [4.0, 2.0], [9.0, 7.0], [0.3, -0.2])
        feasible.append(samples @ a >= b)
    assert 0 < feasible[0].sum() < len(samples)
    assert np.array_equal(feasible[0], feasible[1]) and np.array_equal(feasible[0], feasible[2])


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
        rows = [barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y) for spec in (ExpectedRisk(), insensitive)]
        er_feasible, cpt_feasible = (samples @ a >= b for _, a, b in rows)
        assert not np.any(er_feasible & ~cpt_feasible)
        states += 1


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
    y = x + rng.uniform(-4.0, 4.0, (5, 2))
    f_y = rng.uniform(-2.0, 2.0, (5, 2))
    h, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
    assert (h.shape, a.shape, b.shape) == ((5,), (5, 2), (5,))
    singles = [barrier_constraint(spec, PARAMS, CONFIG, x, y[k], f_y[k]) for k in range(5)]
    for got, want in zip((h, a, b), zip(*singles)):
        np.testing.assert_allclose(got, np.array(want), rtol=rtol, atol=0.0)
    for k, (h_k, a_k, b_k) in enumerate(singles):
        assert h_k.shape == () and a_k.shape == (2,) and b_k.shape == ()
        risk_k, g_k = evaluate(spec, PARAMS, y[k] - x)
        assert h_k == CONFIG.rho - risk_k and np.array_equal(a_k, g_k)
        assert b_k == pytest.approx(float(g_k @ f_y[k]) - CONFIG.eta1_gain * h_k, rel=1e-12)


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
            _, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
            if a @ k_nom >= b:
                all_active = False
                break
            deltas[spec_label(spec)] = np.linalg.norm(qp_filter(k_nom, a, b) - k_nom)
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
            h, a, _ = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
            assert feasibility_margin(h, a, f_y - u, CONFIG.eta1_gain).feasible
