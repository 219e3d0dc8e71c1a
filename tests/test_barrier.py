import math

import numpy as np
import pytest

from riskcbf.barrier import (
    BarrierConfig,
    barrier_constraint,
    feasibility_margin,
    qp_filter,
)
from riskcbf.field import CostFieldParams, cost_mean, discretized_cost_range, evaluate
from riskcbf.risk import CPT, CVaR, ExpectedRisk, lattice_weights, spec_label

PARAMS = CostFieldParams(200.0, 0.01, 0.5)
CONFIG = BarrierConfig(rho=PARAMS.sigma_peak, eta1_gain=1.0)
F0 = np.zeros(2)


# --- barrier value -----------------------------------------------------------


def test_barrier_zero_on_boundary():
    # rho equals the mean cost at r_bar, so ER's barrier vanishes there
    xi = np.array([PARAMS.r_bar, 0.0])
    h, _, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, F0, xi, F0)
    assert h == pytest.approx(0.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_barrier_approaches_rho_far_away():
    # both moments underflow to 0 this far out, so every lattice outcome
    # is 0: the risk and its gradient vanish, and the constraint is vacuous
    h, a, b = barrier_constraint(CPT(0.74, 1, 0.88, 2.0), PARAMS, CONFIG, F0, np.array([500.0, 0.0]), F0)
    assert h == CONFIG.rho
    assert np.array_equal(a, [0.0, 0.0]) and np.signbit(a).all()  # a = (-0.0, -0.0)
    assert b == -CONFIG.eta1_gain * CONFIG.rho


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1.0, 2.25, 100.0])
def test_gamma_zero_row_is_exact_where_the_mean_cost_is_subnormal(lam):
    # a gamma = 0 spec is the constant field R = lam * sum(Pi), so its row
    # is (rho - R, 0, -eta * h) at every radius, also where c_mu is
    # subnormal (r in about (267, 274) here) and c**(gamma - 1) = 1 / c
    # overflows; alone, and as a lane beside a gamma > 0 spec
    spec = CPT(0.74, 1.0, 0.0, lam)
    ys = np.linspace(0.0, 400.0, 4001)[:, None] * [1.0, 0.0]
    assert 0.0 < cost_mean(PARAMS, [270.0, 0.0]) < np.finfo(float).tiny
    h, a, b = barrier_constraint(spec, PARAMS, CONFIG, F0, ys, np.zeros_like(ys))
    assert (h == h[0]).all()
    assert h[0] == pytest.approx(CONFIG.rho - lam * lattice_weights(spec, PARAMS.m).sum(), rel=1e-14)
    assert (a == 0.0).all() and np.array_equal(b, -CONFIG.eta1_gain * h)
    specs = (spec, CPT(0.74, 1.0, 0.88, 2.25))
    lanes = barrier_constraint(specs, PARAMS, CONFIG, np.zeros((2, 1, 2)), ys, np.zeros_like(ys))
    assert all(np.isfinite(r).all() for r in lanes)
    for s, spec_s in enumerate(specs):
        alone = barrier_constraint(spec_s, PARAMS, CONFIG, F0, ys, np.zeros_like(ys))
        assert all(r[s].tobytes() == r_s.tobytes() for r, r_s in zip(lanes, alone))


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
        u, _ = qp_filter(rng.uniform(-5.0, 5.0, 2), a, b)

        def h_at(tau):
            return barrier_constraint(spec, PARAMS, CONFIG, x + tau * u, y + tau * f_y, f_y)[0]

        hdot_fd = (h_at(dt) - h_at(-dt)) / (2 * dt)
        assert hdot_fd >= -CONFIG.eta1_gain * h0 - 1e-6 * max(1.0, abs(h0))


# --- qp filter ----------------------------------------------------------------


def test_qp_passthrough_when_feasible():
    k = np.array([5.0, -1.0])
    u, feasible = qp_filter(k, np.array([1.0, 0.0]), 2.0)
    assert np.array_equal(u, k) and feasible


def test_qp_hand_projection_with_grid_search_oracle():
    u, feasible = qp_filter(np.zeros(2), np.array([1.0, 0.0]), 2.0)
    assert np.allclose(u, [2.0, 0.0]) and feasible
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
        u, _ = qp_filter(k, a, b)
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


def test_qp_infeasible_row_is_masked():
    # a = 0 with b > 0 admits no control: the row keeps k and is marked
    u, feasible = qp_filter(np.zeros(2), np.zeros(2), 1.0)
    assert np.array_equal(u, np.zeros(2)) and not feasible
    # alone or among feasible rows
    k = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    u, feasible = qp_filter(k, a, np.array([1.0, 0.0, 2.0]))
    assert feasible.tolist() == [False, True, True]
    assert np.array_equal(u, [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])


def test_qp_rows_match_one_row_calls():
    rng = np.random.default_rng(3)
    k = rng.uniform(-10.0, 10.0, (200, 2))
    a = rng.uniform(-3.0, 3.0, (200, 2))
    b = rng.uniform(-10.0, 10.0, 200)
    u, feasible = qp_filter(k, a, b)
    assert u.shape == (200, 2) and feasible.all()
    for i in range(200):
        u_i, feasible_i = qp_filter(k[i], a[i], b[i])
        assert u_i.tobytes() == u[i].tobytes() and feasible_i.shape == ()


def test_qp_zero_normal_nonpositive_offset_passthrough():
    k = np.array([1.0, 2.0])
    for b in (0.0, -3.0):
        u, feasible = qp_filter(k, np.zeros(2), b)
        assert np.array_equal(u, k) and feasible


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
    lhs, _, feasible, _ = feasibility_margin(h, g, v, CONFIG.eta1_gain)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert h > 0 and feasible


def test_margin_er_reduces_to_mean_gradient_ratio():
    x, y = np.array([3.0, 3.0]), np.array([9.0, 7.0])
    h, a, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, x, y, F0)
    _, eta, _, _ = feasibility_margin(h, a, F0 - [1.0, 0.0], CONFIG.eta1_gain)
    gm = -2.0 * PARAMS.k2 * (y - x) * cost_mean(PARAMS, y - x)
    assert eta == pytest.approx(CONFIG.eta1_gain * h / np.linalg.norm(gm), rel=1e-12)


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
        lhs, eta, feasible, _ = feasibility_margin(h, a, f_y - u, CONFIG.eta1_gain)
        assert feasible == (a @ u >= b) or abs(a @ u - b) <= 1e-9
        # lhs + eta is the normalized slack of the row
        assert lhs + eta == pytest.approx((a @ u - b) / np.linalg.norm(a), rel=1e-9, abs=1e-9)
        hdot = -(a @ (f_y - u))
        direct = hdot >= -CONFIG.eta1_gain * h
        if abs(hdot + CONFIG.eta1_gain * h) > 1e-9:  # skip exact boundary ties
            assert feasible == direct
        checked += 1


def test_margin_flags_undefined_angle():
    x = np.array([3.0, 3.0])
    h, a, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, x, x, F0)
    lhs, eta, feasible, angle_defined = feasibility_margin(h, a, F0 - [1.0, 0.0], CONFIG.eta1_gain)
    assert not angle_defined  # gradient vanishes at the source
    assert lhs == 0.0 and eta == -math.inf and not feasible  # h < 0 there: 0 >= -eta1(h) fails
    y = np.array([8.0, 3.0])
    f_y = np.array([0.5, -0.25])
    h, a, _ = barrier_constraint(ExpectedRisk(), PARAMS, CONFIG, x, y, f_y)
    _, _, feasible, angle_defined = feasibility_margin(h, a, f_y - f_y, CONFIG.eta1_gain)
    assert not angle_defined  # zero relative velocity
    assert feasible  # hdot = 0 >= -eta1(h) on the safe set


def test_margin_rows_match_single_rows():
    # stacked rows give each row's values alone, bit for bit, including a
    # zero-gradient row (agent at the source) and a zero relative velocity
    rng = np.random.default_rng(12)
    x = np.array([3.0, 3.0])
    y = np.vstack([x, x + rng.uniform(-4.0, 4.0, (5, 2))])
    f_y = rng.uniform(-2.0, 2.0, (6, 2))
    u = rng.uniform(-5.0, 5.0, (6, 2))
    u[2] = f_y[2]
    for spec in (ExpectedRisk(), CVaR(0.3), CPT(0.74, 1.0, 0.88, 2.25)):
        h, a, _ = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
        assert not a[0].any()
        rows = feasibility_margin(h, a, f_y - u, CONFIG.eta1_gain)
        assert all(r.shape == (6,) for r in rows)
        assert not rows[3][0] and not rows[3][2]  # no angle at the source or at rest
        for k in range(6):
            single = feasibility_margin(h[k], a[k], f_y[k] - u[k], CONFIG.eta1_gain)
            assert all(r.shape == () for r in single)
            for got, want in zip(rows, single):
                assert np.array_equal(got[k], want)
        for k in (0, 2):  # hdot = 0: the direct condition on both rows
            assert rows[2][k] == (h[k] >= 0.0)


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


@pytest.mark.parametrize("spec", [ExpectedRisk(), CVaR(0.0), CVaR(0.3), CVaR(1.0), CPT(0.74, 1.0, 0.88, 2.25)])
def test_barrier_constraint_batch_matches_single_obstacles(spec):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 5.0, 2)
    y = x + rng.uniform(-4.0, 4.0, (5, 2))
    f_y = rng.uniform(-2.0, 2.0, (5, 2))
    h, a, b = barrier_constraint(spec, PARAMS, CONFIG, x, y, f_y)
    assert (h.shape, a.shape, b.shape) == ((5,), (5, 2), (5,))
    singles = [barrier_constraint(spec, PARAMS, CONFIG, x, y[k], f_y[k]) for k in range(5)]
    for got, want in zip((h, a, b), zip(*singles)):
        assert np.array_equal(got, np.array(want))
    for k, (h_k, a_k, b_k) in enumerate(singles):
        assert h_k.shape == () and a_k.shape == (2,) and b_k.shape == ()
        risk_k, g_k = evaluate(spec, PARAMS, y[k] - x)
        assert h_k == CONFIG.rho - risk_k and np.array_equal(a_k, g_k)
        assert b_k == pytest.approx(float(g_k @ f_y[k]) - CONFIG.eta1_gain * h_k, rel=1e-12)


def test_barrier_constraint_lanes_match_one_spec_calls():
    # S lanes of mixed models, each agent at its own x (S, 2), against
    # one obstacle or a batch of K; each lane has the bytes of its spec alone
    specs = (ExpectedRisk(), CVaR(0.3), CPT(0.74, 1.0, 0.88, 2.25), CVaR(1.0), CPT(0.74, 1.0, 0.5, 3.0))
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 5.0, (len(specs), 2))
    y = rng.uniform(0.0, 5.0, (4, 2))
    f_y = rng.uniform(-2.0, 2.0, (4, 2))
    for lane_x, lane_y, lane_f_y, shape in ((x, y[0], f_y[0], (5,)), (x[:, None], y, f_y, (5, 4))):
        rows = barrier_constraint(specs, PARAMS, CONFIG, lane_x, lane_y, lane_f_y)
        assert [r.shape for r in rows] == [shape, shape + (2,), shape]
        for s, spec in enumerate(specs):
            alone = barrier_constraint(spec, PARAMS, CONFIG, lane_x[s], lane_y, lane_f_y)
            assert all(r[s].tobytes() == r_s.tobytes() for r, r_s in zip(rows, alone))


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
            deltas[spec_label(spec)] = np.linalg.norm(qp_filter(k_nom, a, b)[0] - k_nom)
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
            _, _, feasible, _ = feasibility_margin(h, a, f_y - u, CONFIG.eta1_gain)
            assert feasible
