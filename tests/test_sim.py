import dataclasses
import json
import math
import re

import numpy as np
import pytest

import riskcbf.barrier
import riskcbf.field
import riskcbf.sim
from riskcbf.barrier import barrier_constraint, qp_filter, row_norm
from riskcbf.cli import main
from riskcbf.risk import CPT, CVaR, ExpectedRisk, spec_label
from riskcbf.sim import (
    ObstacleModel,
    SingleIntegrator,
    Unicycle,
    _float_agent,
    _integrator_step,
    _unicycle_point,
    _unicycle_step,
    comparison_to_csv,
    default_obstacle_speed,
    nominal_control,
    obstacle_motion,
    simulate,
    unicycle_transform,
)
from riskcbf.config import load_config
from shipped import CONFIGS, CROWD_SPECS, crossing_layout, lane_case, run_spec, shipped_scenario
from stepwise import simulate_stepwise


# --- nominal control -----------------------------------------------------------


def test_nominal_zero_at_goal():
    assert np.allclose(nominal_control([3.0, 4.0], [3.0, 4.0], [0.6, 0.6]), 0.0)


def test_nominal_proportional_example():
    u = nominal_control([5.0, 2.0], [10.0, 10.0], [0.6, 0.6])
    assert np.allclose(u, [3.0, 4.8])


def test_nominal_points_toward_goal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = rng.uniform(-10, 10, 2)
        goal = rng.uniform(-10, 10, 2)
        u = nominal_control(state, goal, [0.7, 0.7])
        if np.linalg.norm(goal - state) > 1e-9:
            assert np.dot(u, goal - state) > 0.0


# --- unicycle transform -----------------------------------------------------------


def test_transform_aligned_motion():
    assert unicycle_transform([1.0, 0.0], 0.0, 0.5) == (1.0, 0.0)


def test_transform_lateral_motion():
    v, omega = unicycle_transform([0.0, 1.0], 0.0, 0.5)
    assert v == pytest.approx(0.0)
    assert omega == pytest.approx(2.0)


def midpoint_reference(position, heading, u, l, dt, n=20_000):
    """Integrate xdot = v d(phi), phidot = omega with n midpoint substeps
    for a batch of states; (v, omega) is unicycle_transform's law."""

    def rates(phi):
        c, s = np.cos(phi), np.sin(phi)
        v = c * u[:, 0] + s * u[:, 1]
        return v[:, None] * np.stack([c, s], axis=1), (c * u[:, 1] - s * u[:, 0]) / l

    xdot, phidot = rates(heading)
    for k in range(len(heading)):  # the batched law is unicycle_transform's
        v, omega = unicycle_transform(u[k], heading[k], l)
        np.testing.assert_allclose(xdot[k], v * np.array([math.cos(heading[k]), math.sin(heading[k])]), rtol=1e-14)
        assert phidot[k] == pytest.approx(omega, rel=1e-14)
    h = dt / n
    for _ in range(n):
        xdot, phidot = rates(heading)
        xdot, phidot = rates(heading + 0.5 * h * phidot)
        position = position + h * xdot
        heading = heading + h * phidot
    return position, heading


def test_unicycle_step_is_exact():
    rng = np.random.default_rng(7)
    n, l, dt = 200, 0.2, 0.02
    position = rng.uniform(-10.0, 10.0, (n, 2))
    heading = rng.uniform(-4.0, 4.0, n)
    angle = rng.uniform(-math.pi, math.pi, n)
    u = rng.uniform(0.0, 14.0, n)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    ref_position, ref_heading = midpoint_reference(position, heading, u, l, dt)
    for k in range(n):
        x, y, phi, px, py = _unicycle_step(*position[k].tolist(), float(heading[k]), *u[k].tolist(), dt, l)
        point = np.array(_unicycle_point(*position[k].tolist(), float(heading[k]), l))
        np.testing.assert_allclose([px, py], point + dt * u[k], rtol=0, atol=1e-12)
        np.testing.assert_allclose([x, y], ref_position[k], rtol=0, atol=1e-8)
        assert phi == pytest.approx(ref_heading[k], rel=0, abs=1e-8)


def test_unicycle_step_without_control_keeps_the_state():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y, phi, l = *rng.uniform(-10.0, 10.0, 2), rng.uniform(-10.0, 10.0), rng.uniform(0.05, 1.0)
        stepped = _unicycle_step(x, y, phi, 0.0, 0.0, 0.02, l)
        assert np.array(stepped[:2]).tobytes() == np.array([x, y]).tobytes()
        assert stepped[2] == phi


@pytest.mark.parametrize("flip", [math.pi, -math.pi])
def test_unicycle_step_anti_aligned_keeps_heading(flip):
    u = np.array([3.0, -4.0])
    heading = math.atan2(u[1], u[0]) + flip
    _, _, phi, px, py = _unicycle_step(1.0, 2.0, heading, *u.tolist(), 0.02, 0.2)
    assert phi == pytest.approx(heading, rel=0, abs=1e-12)
    np.testing.assert_allclose([px, py], np.array(_unicycle_point(1.0, 2.0, heading, 0.2)) + 0.02 * u,
                               rtol=0, atol=1e-12)


def test_kernels_have_the_bytes_they_claim():
    # _unicycle_step's point is _unicycle_point at its new state, and its
    # position position + dt * u + l * (d(phi) - d(phi')) on arrays;
    # _integrator_step's position is position + dt * u on arrays
    rng = np.random.default_rng(32)
    for _ in range(20_000):
        position, u = rng.uniform(-20.0, 20.0, 2), rng.uniform(-15.0, 15.0, 2)
        phi, l, dt = rng.uniform(-7.0, 7.0), rng.uniform(0.05, 1.0), float(rng.choice([0.02, 0.1, 0.013]))
        x, y, turned, px, py = _unicycle_step(*position.tolist(), phi, *u.tolist(), dt, l)
        assert np.array([px, py]).tobytes() == np.array(_unicycle_point(x, y, turned, l)).tobytes()
        d = np.array([math.cos(phi), math.sin(phi)]), np.array([math.cos(turned), math.sin(turned)])
        assert np.array([x, y]).tobytes() == (position + dt * u + l * (d[0] - d[1])).tobytes()
        d = np.array([np.cos(phi), np.sin(phi)]), np.array([np.cos(turned), np.sin(turned)])
        assert np.array([x, y]).tobytes() == (position + dt * u + l * (d[0] - d[1])).tobytes()
        x, y, heading, px, py = _integrator_step(*position.tolist(), *u.tolist(), dt)
        assert np.array([x, y]).tobytes() == (position + dt * u).tobytes()
        assert math.isnan(heading) and np.array([px, py]).tobytes() == np.array([x, y]).tobytes()


def test_logged_heading_has_no_wraps():
    log = run_spec(shipped_scenario("single_obstacle"), CPT(0.74, 1.0, 0.88, 2.25))
    headings = log.records["heading"]
    assert np.abs(np.diff(headings)).max() <= math.pi


def test_transform_requires_positive_offset():
    for l in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            unicycle_transform([1.0, 0.0], 0.0, l)


# --- obstacles ----------------------------------------------------------------------


def test_static_obstacle():
    start, goal = np.array([1.0, 1.0]), np.array([-5.0, 5.0])
    for t in (0.0, 0.5, 1e6):
        position, velocity = obstacle_motion(start, goal, 0.0, t)
        assert np.array_equal(position, start)
        assert np.array_equal(velocity, [0.0, 0.0])
        assert not np.signbit(velocity).any()  # +0.0, not 0 * (goal - start)


def test_obstacle_reaches_goal_on_schedule():
    start, goal = np.zeros(2), np.array([3.0, 4.0])  # 5 units at speed 2: 2.5 s
    position, velocity = obstacle_motion(start, goal, 2.0, 2.5 - 1e-9)
    assert not np.array_equal(position, goal)
    assert np.array_equal(velocity, 2.0 / 5.0 * goal)
    for t in (2.5, 2.5 + 1e-9, 100.0):
        position, velocity = obstacle_motion(start, goal, 2.0, t)
        assert np.array_equal(position, goal)
        assert np.array_equal(velocity, [0.0, 0.0])
        assert not np.signbit(velocity).any()


def test_obstacle_midpoint_at_half_time():
    # 1.25 s of the 2.5 s trip; every operand and result is exact
    position, _ = obstacle_motion(np.zeros(2), np.array([3.0, 4.0]), 2.0, 1.25)
    assert np.array_equal(position, [1.5, 2.0])


def test_obstacle_batch_matches_single_obstacles():
    # resting (speed 0), arriving at t = 0.25, moving, and already at its
    # goal with a nonzero speed; a 0/0 would warn, and warnings fail
    start = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, -1.0]])
    goal = np.array([[-5.0, 5.0], [0.3, 0.4], [3.0, 4.0], [2.0, -1.0]])
    speed = np.array([0.0, 2.0, 2.0, 1.5])
    t = np.array([0.0, 0.1, 0.5, 3.0])
    positions, velocities = obstacle_motion(start, goal, speed, t[:, None])
    assert positions.shape == velocities.shape == (4, 4, 2)
    np.testing.assert_allclose(positions[2], [[1.0, 1.0], [0.3, 0.4], [0.6, 0.8], [2.0, -1.0]], rtol=1e-15)
    np.testing.assert_allclose(velocities[1], [[0.0, 0.0], [1.2, 1.6], [1.2, 1.6], [0.0, 0.0]], rtol=1e-15)
    np.testing.assert_allclose(velocities[2], [[0.0, 0.0], [0.0, 0.0], [1.2, 1.6], [0.0, 0.0]], rtol=1e-15)
    assert not np.signbit(velocities).any()
    for s in range(len(t)):
        for k in range(len(speed)):
            position, velocity = obstacle_motion(start[k], goal[k], speed[k], t[s])
            assert np.array_equal(positions[s, k], position)
            assert np.array_equal(velocities[s, k], velocity)
    # a block of step times, as the closed loop computes them, against
    # each step's own call at t = k * dt
    dt, k0 = 0.02, 256
    block = np.arange(k0, k0 + 256) * dt
    positions, velocities = obstacle_motion(start, goal, speed, block[:, None])
    for j, k in enumerate(range(k0, k0 + 256)):
        position, velocity = obstacle_motion(start, goal, speed, k * dt)
        assert positions[j].tobytes() == position.tobytes()
        assert velocities[j].tobytes() == velocity.tobytes()


def test_default_obstacle_speed_formula():
    speed = default_obstacle_speed([13, 13], [2, 3], [5, 2], [10, 10], [0.6, 0.6])
    expected = math.hypot(11, 10) * 0.6 / math.hypot(5, 8)
    assert speed == pytest.approx(expected, rel=1e-12)


# --- closed loop ---------------------------------------------------------------------


def obstacle_free_scenario(**kwargs):
    return dataclasses.replace(shipped_scenario("single_obstacle", **kwargs), obstacles=())


def test_run_without_obstacles_flies_nominal():
    log = run_spec(obstacle_free_scenario(), ExpectedRisk())
    assert log.reached_goal
    assert log.total_deviation == 0.0
    assert log.max_delta == 0.0
    assert np.array_equal(log.records["u_nominal"], log.records["u_filtered"])
    assert math.isinf(log.min_h)
    # the log and the views derived from it are read-only
    assert not any(a.flags.writeable for a in (log.records, log.h_min, log.active_index, log.delta))


def test_run_is_deterministic():
    spec = CPT(0.74, 1.0, 0.88, 2.5)
    a = run_spec(shipped_scenario("single_obstacle"), spec)
    b = run_spec(shipped_scenario("single_obstacle"), spec)
    assert a.steps == b.steps
    for name in ("position", "u_filtered"):
        assert np.array_equal(a.records[name], b.records[name])
    assert np.array_equal(a.h_min, b.h_min)


def test_run_with_huge_rho_matches_nominal_exactly():
    scenario = shipped_scenario("single_obstacle")
    relaxed = dataclasses.replace(
        scenario, barrier=dataclasses.replace(scenario.barrier, rho=1e12)
    )
    filtered = run_spec(relaxed, CPT(0.74, 1.0, 0.88, 3.5))
    free = run_spec(dataclasses.replace(scenario, obstacles=()), CPT(0.74, 1.0, 0.88, 3.5))
    assert filtered.total_deviation == 0.0
    assert filtered.steps == free.steps
    assert np.array_equal(filtered.records["position"], free.records["position"])


def test_unfiltered_nominal_path_enters_risky_set():
    # the default obstacle timing forces the crossing conflict
    scenario = shipped_scenario("single_obstacle")
    relaxed = dataclasses.replace(
        scenario, barrier=dataclasses.replace(scenario.barrier, rho=1e12)
    )
    log = run_spec(relaxed, ExpectedRisk())
    risky = min(
        scenario.barrier.rho
        - max(
            200.0 * math.exp(-0.01 * float(np.sum((obstacles[0] - point) ** 2)))
            for obstacles, point in zip(log.records["obstacles"], log.records["point"])
        ),
        0.0,
    )
    assert risky < 0.0  # mean-cost barrier would have gone negative


def test_run_rejects_initially_unsafe_start():
    scenario = shipped_scenario("single_obstacle")
    bad = dataclasses.replace(
        scenario,
        obstacles=(ObstacleModel([5.2, 2.2], [2.0, 3.0], 0.5),),
    )
    with pytest.raises(ValueError, match="unsafe for er "):
        run_spec(bad, ExpectedRisk())


def test_record_count_bounded():
    log = run_spec(shipped_scenario("single_obstacle", dt=0.05, t_max=2.0), ExpectedRisk())
    assert log.steps <= math.ceil(2.0 / 0.05) + 1
    assert not log.reached_goal


def test_log_grows_with_the_steps_run_not_with_t_max():
    # 5e13 steps of t_max would not fit in memory; the run arrives in about 650
    log = run_spec(shipped_scenario("single_obstacle", t_max=1e12), ExpectedRisk())
    assert log.reached_goal
    assert log.steps > 256  # past the first block of rows
    short = run_spec(shipped_scenario("single_obstacle"), ExpectedRisk())
    assert log.records.tobytes() == short.records.tobytes()


def test_total_deviation_grows_with_risk_aversion():
    devs = []
    for lam in (1.5, 2.0, 2.5, 3.0, 3.5):
        log = run_spec(shipped_scenario("single_obstacle"), CPT(0.74, 1.0, 0.88, lam))
        assert log.reached_goal
        devs.append(log.total_deviation)
    assert all(a <= b + 1e-12 for a, b in zip(devs, devs[1:]))
    assert devs[-1] > devs[0]


def test_halving_dt_converges_first_order():
    # Compare the states at t = 2 s, before arrival: the final record is
    # the first step inside goal_tol, so its time, and with it the final
    # position, shifts by up to one step between step sizes.
    at_2s, finals = {}, {}
    for dt in (0.1, 0.05, 0.025):
        log = run_spec(shipped_scenario("single_obstacle", dt=dt), CPT(0.74, 1.0, 0.88, 2.25))
        record = log.records[round(2.0 / dt)]
        assert record["t"] == pytest.approx(2.0)
        at_2s[dt] = record["position"]
        finals[dt] = log.records["position"][-1]
    coarse = np.linalg.norm(at_2s[0.1] - at_2s[0.05])
    fine = np.linalg.norm(at_2s[0.05] - at_2s[0.025])
    assert fine <= 0.6 * coarse
    assert np.linalg.norm(finals[0.05] - finals[0.025]) < 0.1


def test_scenario_validation():
    scenario = shipped_scenario("single_obstacle")
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, dt=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, t_max=0.01)
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, goal_tol=0.0)
    nan, inf = math.nan, math.inf
    for field, value in [("dt", nan), ("dt", inf), ("t_max", nan), ("t_max", inf), ("goal_tol", nan), ("goal", [nan, 1.0])]:
        with pytest.raises(ValueError):
            dataclasses.replace(scenario, **{field: value})
    agent, obstacle = scenario.agent, scenario.obstacles[0]
    for field, value in [("offset_l", nan), ("offset_l", inf), ("heading", nan), ("heading", inf), ("position", [nan, 0.0])]:
        with pytest.raises(ValueError):
            dataclasses.replace(agent, **{field: value})
    for field, value in [("speed", nan), ("speed", inf), ("start", [inf, 0.0]), ("goal", [0.0, nan])]:
        with pytest.raises(ValueError):
            dataclasses.replace(obstacle, **{field: value})
    for position in ([nan, 0.0], [0.0, -inf]):
        with pytest.raises(ValueError):
            SingleIntegrator(position)
    for t in (nan, inf, -0.1, [0.0, nan]):
        with pytest.raises(ValueError):
            obstacle_motion(obstacle.start, obstacle.goal, obstacle.speed, t)


def test_scenario_rejects_bad_nominal_gain():
    # rejected when the scenario is built, not at the first step
    scenario = shipped_scenario("single_obstacle")
    for gain in ([math.nan, 0.6], [0.6, 0.6, 0.6]):
        with pytest.raises(ValueError, match="finite 2-vector"):
            dataclasses.replace(scenario, nominal_gain=gain)


def test_single_integrator_scenario_runs():
    integrator = dataclasses.replace(shipped_scenario("single_obstacle"), agent=SingleIntegrator([5.0, 2.0]))
    log = run_spec(integrator, CVaR(0.4))
    assert log.reached_goal
    assert log.min_h >= 0.0
    assert np.isnan(log.records["heading"]).all()


# --- comparisons -------------------------------------------------------------------


def test_run_deterministic_summary():
    first, second = (run_spec(shipped_scenario("single_obstacle"), CVaR(0.4)) for _ in range(2))
    assert first.summary_dict() == second.summary_dict()


def test_cvar_deviation_spread_smaller_than_cpt():
    cvar_rows = [
        run_spec(shipped_scenario("single_obstacle"), CVaR(q)) for q in (0.001, 0.1, 0.4, 0.8, 0.95, 0.999)
    ]
    cpt_rows = [
        run_spec(shipped_scenario("single_obstacle"), spec)
        for spec in [CPT(0.74, 1.0, 0.88, lam) for lam in (1.5, 2.5, 3.5)]
        + [CPT(0.74, 1.0, g, 2.25) for g in (0.785, 0.9, 1.0)]
    ]
    cvar_devs = [r.total_deviation for r in cvar_rows]
    cpt_devs = [r.total_deviation for r in cpt_rows]
    assert max(cvar_devs) - min(cvar_devs) < max(cpt_devs) - min(cpt_devs)


# --- exports -----------------------------------------------------------------------


def test_simlog_csv_schema(tmp_path):
    log = run_spec(shipped_scenario("single_obstacle", t_max=5.0), CVaR(0.4))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "t", "x", "y", "heading", "px", "py", "obs0_x", "obs0_y",
        "unom_x", "unom_y", "u_x", "u_y", "delta_x", "delta_y",
        "h_min", "active_obstacle", "feasible",
    ]
    assert len(lines) == log.steps + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[-1] == "1"


def test_simlog_csv_writes_each_value_as_17g(tmp_path):
    scenario = shipped_scenario("single_obstacle", t_max=3.0)
    # a single integrator logs a NaN heading and no obstacles an inf h_min
    bare = dataclasses.replace(scenario, agent=SingleIntegrator([5.0, 2.0]), obstacles=())
    for log in (run_spec(scenario, CVaR(0.4)), run_spec(bare, CVaR(0.4))):
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == log.steps
        r = log.records
        for i, line in enumerate(lines):
            floats = [
                r["t"][i], *r["position"][i], r["heading"][i], *r["point"][i], *r["obstacles"][i].ravel(),
                *r["u_nominal"][i], *r["u_filtered"][i], *log.delta[i], log.h_min[i],
            ]
            tail = [str(log.active_index[i]), "1" if r["feasible"][i] else "0"]
            assert line.split(",") == [format(v, ".17g") for v in floats] + tail
    assert lines[0].split(",")[3] == "nan" and lines[0].split(",")[-3:] == ["inf", "-1", "1"]


def test_simlog_json_schema(tmp_path):
    log = run_spec(shipped_scenario("single_obstacle", t_max=5.0), CVaR(0.4))
    path = tmp_path / "log.json"
    log.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["summary"]["label"] == "cvar_q0p4"
    assert payload["summary"]["steps"] == log.steps
    assert len(payload["records"]) == log.steps
    assert payload["records"][0]["t"] == 0.0


def test_simlog_json_records_are_the_rows(tmp_path):
    scenario = shipped_scenario("single_obstacle", t_max=3.0)
    # a single integrator logs a NaN heading and no obstacles an inf h_min
    bare = dataclasses.replace(scenario, agent=SingleIntegrator([5.0, 2.0]), obstacles=())
    for log in (run_spec(scenario, CVaR(0.4)), run_spec(bare, CVaR(0.4))):
        path = tmp_path / "log.json"
        log.to_json(path)
        records = json.loads(path.read_text())["records"]
        assert len(records) == log.steps
        r = log.records
        for i, rec in enumerate(records):
            heading, h_min = float(r["heading"][i]), float(log.h_min[i])
            assert rec == {
                "t": float(r["t"][i]),
                "position": r["position"][i].tolist(),
                "heading": None if math.isnan(heading) else heading,
                "point": r["point"][i].tolist(),
                "obstacles": r["obstacles"][i].tolist(),
                "u_nominal": r["u_nominal"][i].tolist(),
                "u_filtered": r["u_filtered"][i].tolist(),
                "h_min": None if math.isinf(h_min) else h_min,
                "active_index": int(log.active_index[i]),
                "feasible": bool(r["feasible"][i]),
            }
    assert records[0]["heading"] is None and records[0]["h_min"] is None
    assert records[0]["active_index"] == -1 and records[0]["obstacles"] == []


def test_comparison_csv(tmp_path):
    specs = (CVaR(0.4), ExpectedRisk())
    logs = [run_spec(shipped_scenario("single_obstacle", t_max=5.0), spec) for spec in specs]
    path = tmp_path / "summary.csv"
    comparison_to_csv(logs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("label,reached_goal,goal_time,min_h")
    assert len(lines) == 3


# --- canonical scenarios --------------------------------------------------------------


def test_single_scenario_constants():
    scenario = shipped_scenario("single_obstacle")
    assert isinstance(scenario.agent, Unicycle)
    assert np.allclose(scenario.agent.position, [5.0, 2.0])
    assert np.allclose(scenario.goal, [10.0, 10.0])
    assert np.allclose(scenario.nominal_gain, [0.6, 0.6])
    assert scenario.field.k1 == 200.0 and scenario.field.k2 == 0.01
    assert scenario.field.r_bar == 0.5
    assert scenario.barrier.rho == pytest.approx(200.0 * math.exp(-0.01 * 0.25))
    obs = scenario.obstacles[0]
    assert np.allclose(obs.start, [13.0, 13.0]) and np.allclose(obs.goal, [2.0, 3.0])


def test_multi_scenario_constants():
    scenario = shipped_scenario("multi_obstacle")
    assert np.allclose(scenario.agent.position, [-15.0, -15.0])
    assert np.allclose(scenario.goal, [15.0, 15.0])
    assert np.allclose(scenario.nominal_gain, [1.6, 1.6])
    assert scenario.field.r_bar == 2.5
    starts = [tuple(o.start) for o in scenario.obstacles]
    assert starts == [(-17.0, 0.0), (0.0, 14.0), (10.0, -10.0)]
    goals = [tuple(o.goal) for o in scenario.obstacles]
    assert goals == [(17.0, 0.0), (0.0, -14.0), (-10.0, 10.0)]


def test_identical_obstacles_tie_to_the_lowest_index():
    scenario = shipped_scenario("single_obstacle")
    alone = run_spec(scenario, CVaR(0.4))
    twins = run_spec(dataclasses.replace(scenario, obstacles=scenario.obstacles * 2), CVaR(0.4))
    assert (twins.active_index == 0).all()
    assert np.array_equal(twins.h_min, alone.h_min)
    assert twins.total_deviation == alone.total_deviation > 0.0


def test_one_risk_evaluation_and_one_filter_call_per_round(monkeypatch):
    counts, blocks = {"evaluate": 0, "qp_filter": 0}, []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    evaluate = counted("evaluate", riskcbf.field.evaluate)
    monkeypatch.setattr(riskcbf.field, "evaluate", evaluate)
    monkeypatch.setattr(riskcbf.barrier, "evaluate", evaluate)
    qp = counted("qp_filter", riskcbf.sim.qp_filter)
    monkeypatch.setattr(riskcbf.sim, "qp_filter", lambda k, a, b: blocks.append(k.shape[1]) or qp(k, a, b))
    # all 9 specs step in lockstep and in rounds: one call each per round,
    # over a block of steps of which the round takes at least the first
    logs = simulate(shipped_scenario("multi_obstacle"), load_config(CONFIGS / "multi_obstacle.cfg").specs())
    assert len(logs) == 9 and all(log.records["obstacles"].shape[1:] == (3, 2) for log in logs)
    steps = [log.steps for log in logs]
    assert len(set(steps)) > 1  # the lanes arrive on different steps
    assert counts["evaluate"] == counts["qp_filter"] == len(blocks) < max(steps) / 2
    assert sum(blocks) >= max(steps) and max(blocks) == riskcbf.sim._ROUND_CAP


def test_run_logs_obstacle_motion_at_each_t():
    scenario = shipped_scenario("multi_obstacle")
    log = run_spec(scenario, CPT(0.74, 1.0, 0.88, 2.25))
    starts, goals, speeds = (np.array([getattr(o, name) for o in scenario.obstacles])
                             for name in ("start", "goal", "speed"))
    for t, logged in zip(log.records["t"].tolist(), log.records["obstacles"]):
        assert np.array_equal(logged, obstacle_motion(starts, goals, speeds, t)[0])


def test_multi_obstacle_active_switching_keeps_h_min_continuous():
    log = run_spec(shipped_scenario("multi_obstacle"), CPT(0.74, 1.0, 0.88, 2.25))
    assert log.reached_goal
    h, active = log.h_min, log.active_index
    assert len(set(active.tolist())) > 1  # the worst-case obstacle changes
    # h_min is a min of continuous barriers: one step moves it by at
    # most the fastest barrier rate times dt, switches included
    assert np.abs(np.diff(h)).max() < 10.0


def test_log_views_match_per_row_loops():
    # the per-step loops the columnar views replaced, as the reference
    log = run_spec(shipped_scenario("multi_obstacle"), CPT(0.74, 1.0, 0.88, 2.25))
    rows = log.records["h"].tolist()
    assert log.h_min.tolist() == [min(row) for row in rows]
    assert log.active_index.tolist() == [row.index(min(row)) for row in rows]
    norms = [float(np.linalg.norm(u - v)) for u, v in zip(log.records["u_nominal"], log.records["u_filtered"])]
    assert log.total_deviation == sum(d * log.dt for d in norms) > 0.0
    assert log.max_delta == max(norms)
    assert log.feasibility_violations == sum(not f for f in log.records["feasible"].tolist())
    assert log.goal_time == log.records["t"][-1] == (log.steps - 1) * log.dt



# ROADMAP item 1: each step filters with only the row of the obstacle with
# the lowest barrier, so a run can cross another obstacle's barrier. The
# fix of item 1 removes this mark.
ITEM_1 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the filter enforces only the lowest barrier's row, so CPT crosses another obstacle's",
)


@ITEM_1
def test_crossing_obstacles_keep_every_barrier_nonnegative(tmp_path):
    # the three crossing obstacles of the sim_crowd benchmark's seed 1
    # variant 14: the CPT run ends at min_h = -2.366 against obstacle 2 at
    # step 13, with no infeasible step; ER and CVaR end at 31.17
    text = (CONFIGS / "multi_obstacle.cfg").read_text()
    text = re.sub(r"^specs = .*$", "specs = er, cvar(0.1), cpt(0.74, 1.0, 0.88, 2.25)", text, flags=re.M)
    text = re.sub(r"\[obstacle\.\d+\][^[]*", "", text)
    paths = [((-1.668, 5.569), (0.93, -8.442)), ((-10.053, -1.89), (0.536, -8.721)),
             ((-8.239, -12.743), (-10.494, 2.102))]
    for k, (start, goal) in enumerate(paths, start=1):
        text += f"\n[obstacle.{k}]\nstart = {start[0]}, {start[1]}\ngoal = {goal[0]}, {goal[1]}\nspeed = auto\n"
    path = tmp_path / "crossing.cfg"
    path.write_text(text)
    cfg = load_config(path)
    logs = simulate(cfg.scenario(), cfg.specs())
    assert {log.label: log.min_h for log in logs if log.min_h < 0.0} == {}


# --- lanes ------------------------------------------------------------------------


def assert_same_logs(logs, reference):
    assert [log.label for log in logs] == [log.label for log in reference]
    for log, ref in zip(logs, reference):
        assert log.records.tobytes() == ref.records.tobytes(), log.label
        assert log.reached_goal == ref.reached_goal, log.label


@pytest.mark.parametrize("name", ["single_obstacle", "multi_obstacle", "single_integrator", "no_obstacles",
                                  "t_max_cutoff"])
def test_lanes_reproduce_one_lane_runs(name):
    scenario, specs = lane_case(name)
    assert simulate(scenario, []) == []
    logs = simulate(scenario, specs)
    assert [log.label for log in logs] == [spec_label(spec) for spec in specs]
    assert_same_logs(logs, simulate_stepwise(scenario, specs))  # the rounds filter as steps do
    for log, spec in zip(logs, specs):
        alone = run_spec(scenario, spec)
        assert log.records.tobytes() == alone.records.tobytes()
        assert log.reached_goal == alone.reached_goal
    steps = {log.steps for log in logs}
    if name == "t_max_cutoff":
        assert steps == {101} and not any(log.reached_goal for log in logs)
    else:
        assert all(log.reached_goal for log in logs)
    if name in ("single_obstacle", "multi_obstacle"):
        assert len(steps) > 1  # lanes leave the lockstep on different steps
    if name == "single_obstacle":
        assert max(steps) > 256  # past the first log and obstacle block


def test_lanes_name_every_spec_that_starts_unsafe():
    # an obstacle beside the start: CPT at lambda = 3.5 perceives it as
    # unsafe, ER does not
    scenario = dataclasses.replace(shipped_scenario("single_obstacle"),
                                   obstacles=(ObstacleModel([9.0, 2.0], [9.0, 2.0], 0.0),))
    specs = (ExpectedRisk(), CPT(0.74, 1.0, 0.88, 3.5))
    with pytest.raises(ValueError) as err:
        simulate(scenario, specs)
    assert "cpt_a0p74_b1_g0p88_l3p5 (h_min = -" in str(err.value)
    assert "er (" not in str(err.value)


@pytest.mark.parametrize("name", ["multi_obstacle", "single_integrator"])
def test_lanes_step_as_the_agent_models_do(name):
    # each logged row (x, y, heading, px, py) is the agent's start row, or
    # the previous row stepped under its logged filtered control
    scenario, specs = lane_case(name)
    start, step = _float_agent(scenario.agent, scenario.dt)
    for log in simulate(scenario, specs):
        r = log.records
        rows = np.column_stack([r["position"], r["heading"], r["point"]])
        assert rows[0].tobytes() == np.array(start).tobytes()
        for k in range(1, log.steps):
            stepped = step(tuple(rows[k - 1].tolist()), tuple(r["u_filtered"][k - 1].tolist()))
            assert rows[k].tobytes() == np.array(stepped).tobytes()


def test_a_stepped_state_that_is_not_finite_raises(monkeypatch, tmp_path, capsys):
    def runaway(k_nominal, a, b):
        u, feasible = qp_filter(k_nominal, a, b)
        return np.full_like(u, math.inf), feasible

    monkeypatch.setattr(riskcbf.sim, "qp_filter", runaway)
    scenario = shipped_scenario("single_obstacle")
    for agent in (scenario.agent, SingleIntegrator([5.0, 2.0])):
        with pytest.raises(ValueError, match=r"stepped agent position \(inf, inf\) is not finite"):
            simulate(dataclasses.replace(scenario, agent=agent), [ExpectedRisk(), CVaR(0.4)])
    out = tmp_path / "out"
    out.mkdir()  # kept after the failure, so a log written before it would show
    assert main(["simulate", "--config", str(CONFIGS / "single_obstacle.cfg"), "--out", str(out)]) == 3
    assert "is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no log


# --- rounds -----------------------------------------------------------------------


def test_rounds_reproduce_the_stepwise_loop_on_seeded_layouts():
    counts, dips = set(), 0
    for seed in range(32):
        scenario = crossing_layout(seed)
        counts.add(len(scenario.obstacles))
        logs = simulate(scenario, CROWD_SPECS)
        assert_same_logs(logs, simulate_stepwise(scenario, CROWD_SPECS))
        assert all(log.reached_goal for log in logs)
        dips += sum(log.min_h < 0.0 for log in logs)
    assert counts == {2, 3, 4, 5}
    assert dips > 0  # some layouts make the filter bind hard enough to cross a barrier (ROADMAP item 1)


def test_an_infeasible_step_inside_a_round_holds_the_previous_nominal_control(monkeypatch):
    scenario, spec = lane_case("single_integrator")[0], ExpectedRisk()
    k = 150  # a step of the unfiltered approach to the goal
    target = run_spec(scenario, spec).records["u_nominal"][k].copy()
    where = []

    def infeasible_at_k(k_nominal, a, b):
        u, feasible = qp_filter(k_nominal, a, b)
        hit = (k_nominal == target).all(axis=-1)
        if hit.any() and hit.ndim == 2:
            where.append((hit.shape[1], int(hit[0].argmax())))
        return u, feasible & ~hit

    monkeypatch.setattr(riskcbf.sim, "qp_filter", infeasible_at_k)
    (log,) = simulate(scenario, [spec])
    assert_same_logs([log], simulate_stepwise(scenario, [spec]))
    (size, at), *_ = where
    assert 0 < at < size - 1  # mid-block
    r = log.records
    assert log.feasibility_violations == 1 and not r["feasible"][k]
    assert r["u_filtered"][k].tobytes() == r["u_nominal"][k - 1].tobytes() != r["u_nominal"][k].tobytes()


def test_rows_past_a_rounds_last_step_raise_nothing(monkeypatch):
    scenario, spec = lane_case("single_integrator")[0], ExpectedRisk()
    goal, tol = scenario.goal, scenario.goal_tol
    reference = run_spec(scenario, spec)
    arrival = float(row_norm(reference.records["point"][-1] - goal))
    assert (row_norm(reference.records["point"][:-1] - goal) > arrival).all()
    seen = {"nan": 0, "raise": 0}

    def nan_past(d):
        # b is nan on rows whose point is nearer the goal than d
        def constraint(spec, params, config, x, y, f_y):
            h, a, b = barrier_constraint(spec, params, config, x, y, f_y)
            near = row_norm(np.asarray(x) - goal) < d
            seen["nan"] += int(near.any())
            return h, a, np.where(near, math.nan, b)

        return constraint

    def fragile_step(x, y, ux, uy, dt):
        # stepping on from a point already at the goal, which no run does
        if math.hypot(x - goal[0], y - goal[1]) <= tol:
            seen["raise"] += 1
            raise ValueError("stepped past the goal")
        return _integrator_step(x, y, ux, uy, dt)

    monkeypatch.setattr(riskcbf.sim, "barrier_constraint", nan_past(arrival))
    assert_same_logs(simulate(scenario, [spec]), [reference])
    monkeypatch.setattr(riskcbf.sim, "barrier_constraint", barrier_constraint)
    monkeypatch.setattr(riskcbf.sim, "_integrator_step", fragile_step)
    assert_same_logs(simulate(scenario, [spec]), [reference])
    assert seen["nan"] and seen["raise"]  # the last rounds rolled past the arrival
    # a non-finite row that the loop reaches raises, as it does step by step
    monkeypatch.setattr(riskcbf.sim, "barrier_constraint", nan_past(1.0))
    for run in (simulate, simulate_stepwise):
        with pytest.raises(ValueError, match="constraint entries must be finite"):
            run(scenario, [spec])


def test_a_filter_that_binds_at_step_0(monkeypatch):
    scenario, specs = lane_case("single_integrator")
    first = nominal_control(scenario.agent.position, scenario.goal, scenario.nominal_gain)

    def halve_the_first(k_nominal, a, b):
        u, feasible = qp_filter(k_nominal, a, b)
        return np.where((k_nominal == first).all(axis=-1)[..., None], 0.5 * u, u), feasible

    monkeypatch.setattr(riskcbf.sim, "qp_filter", halve_the_first)
    logs = simulate(scenario, specs)
    assert_same_logs(logs, simulate_stepwise(scenario, specs))
    for log in logs:
        assert log.records["u_filtered"][0].tolist() != log.records["u_nominal"][0].tolist() == first.tolist()


def test_rounds_stop_at_the_256_step_blocks(monkeypatch):
    # one far static obstacle and a slow gain: a long run the filter never touches
    scenario = dataclasses.replace(shipped_scenario("single_obstacle"), nominal_gain=[0.3, 0.3],
                                   obstacles=(ObstacleModel([90.0, -90.0], [90.0, -90.0], 0.0),))
    starts = [0]
    monkeypatch.setattr(riskcbf.sim, "qp_filter",
                        lambda k, a, b: starts.append(starts[-1] + k.shape[1]) or qp_filter(k, a, b))
    (log,) = simulate(scenario, [CVaR(0.4)])
    monkeypatch.undo()
    assert_same_logs([log], simulate_stepwise(scenario, [CVaR(0.4)]))
    assert log.reached_goal and log.steps > 512 and log.total_deviation == 0.0
    assert {256, 512} <= set(starts) and starts[-2] < log.steps <= starts[-1]
