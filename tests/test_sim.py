import dataclasses
import json
import math

import numpy as np
import pytest

from riskcbf.risk import CPT, CVaR, ExpectedRisk
from riskcbf.sim import (
    ObstacleModel,
    SingleIntegrator,
    Unicycle,
    comparison_to_csv,
    default_obstacle_speed,
    multi_obstacle_scenario,
    nominal_control,
    obstacle_velocity,
    run,
    single_obstacle_scenario,
    step_obstacle,
    unicycle_transform,
)


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


def test_projected_point_tracks_control_to_first_order():
    u = np.array([0.8, -0.5])
    l = 0.3
    errors = []
    for dt in (2e-3, 1e-3):
        agent = Unicycle([1.0, 2.0], 1.1, l)
        stepped = agent.step(u, dt)
        pdot_fd = (stepped.controlled_point() - agent.controlled_point()) / dt
        errors.append(np.linalg.norm(pdot_fd - u))
    assert errors[0] <= 0.05 * np.linalg.norm(u)
    assert errors[1] <= 0.6 * errors[0] + 1e-12  # first-order decay


def test_transform_requires_positive_offset():
    with pytest.raises(ValueError):
        unicycle_transform([1.0, 0.0], 0.0, 0.0)


# --- obstacles ----------------------------------------------------------------------


def test_static_obstacle():
    obs = ObstacleModel.from_path([1.0, 1.0], [5.0, 5.0], 0.0)
    assert np.array_equal(step_obstacle(obs, 0.5).position, obs.position)
    assert np.allclose(obstacle_velocity(obs), 0.0)


def test_obstacle_reaches_goal_on_schedule():
    obs = ObstacleModel.from_path([0.0, 0.0], [3.0, 4.0], 2.0)  # 5 units at speed 2
    dt = 0.01
    steps = int(round(5.0 / 2.0 / dt))
    for _ in range(steps):
        obs = step_obstacle(obs, dt)
    assert np.allclose(obs.position, [3.0, 4.0], atol=1e-9)
    assert np.allclose(obstacle_velocity(obs), 0.0)


def test_obstacle_midpoint_at_half_time():
    obs = ObstacleModel.from_path([0.0, 0.0], [3.0, 4.0], 2.0)
    for _ in range(125):  # 1.25 s of the 2.5 s trip
        obs = step_obstacle(obs, 0.01)
    assert np.allclose(obs.position, [1.5, 2.0], atol=1e-9)


def test_default_obstacle_speed_formula():
    speed = default_obstacle_speed([13, 13], [2, 3], [5, 2], [10, 10], [0.6, 0.6])
    expected = math.hypot(11, 10) * 0.6 / math.hypot(5, 8)
    assert speed == pytest.approx(expected, rel=1e-12)


# --- closed loop ---------------------------------------------------------------------


def obstacle_free_scenario(**kwargs):
    scenario = single_obstacle_scenario(ExpectedRisk(), **kwargs)
    return dataclasses.replace(scenario, obstacles=())


def test_run_without_obstacles_flies_nominal():
    log = run(obstacle_free_scenario())
    assert log.reached_goal
    assert log.total_deviation == 0.0
    assert log.max_delta == 0.0
    assert all(np.array_equal(r.u_nominal, r.u_filtered) for r in log.records)
    assert math.isinf(log.min_h)


def test_run_is_deterministic():
    spec = CPT(0.74, 1.0, 0.88, 2.5)
    a = run(single_obstacle_scenario(spec))
    b = run(single_obstacle_scenario(spec))
    assert a.steps == b.steps
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.position, rb.position)
        assert ra.h_min == rb.h_min
        assert np.array_equal(ra.u_filtered, rb.u_filtered)


def test_run_with_huge_rho_matches_nominal_exactly():
    scenario = single_obstacle_scenario(CPT(0.74, 1.0, 0.88, 3.5))
    relaxed = dataclasses.replace(
        scenario, barrier=dataclasses.replace(scenario.barrier, rho=1e12)
    )
    filtered = run(relaxed)
    free = run(dataclasses.replace(scenario, obstacles=()))
    assert filtered.total_deviation == 0.0
    assert filtered.steps == free.steps
    for ra, rb in zip(filtered.records, free.records):
        assert np.array_equal(ra.position, rb.position)


def test_unfiltered_nominal_path_enters_risky_set():
    # the default obstacle timing forces the crossing conflict
    scenario = single_obstacle_scenario(ExpectedRisk())
    relaxed = dataclasses.replace(
        scenario, barrier=dataclasses.replace(scenario.barrier, rho=1e12)
    )
    log = run(relaxed)
    risky = min(
        scenario.barrier.rho
        - max(
            200.0 * math.exp(-0.01 * float(np.sum((rec.obstacles[0] - rec.point) ** 2)))
            for rec in log.records
        ),
        0.0,
    )
    assert risky < 0.0  # mean-cost barrier would have gone negative


def test_run_rejects_initially_unsafe_start():
    scenario = single_obstacle_scenario(ExpectedRisk())
    bad = dataclasses.replace(
        scenario,
        obstacles=(ObstacleModel.from_path([5.2, 2.2], [2.0, 3.0], 0.5),),
    )
    with pytest.raises(ValueError):
        run(bad)


def test_record_count_bounded():
    scenario = single_obstacle_scenario(ExpectedRisk(), dt=0.05, t_max=2.0)
    log = run(scenario)
    assert log.steps <= math.ceil(2.0 / 0.05) + 1
    assert not log.reached_goal


def test_total_deviation_grows_with_risk_aversion():
    devs = []
    for lam in (1.5, 2.0, 2.5, 3.0, 3.5):
        log = run(single_obstacle_scenario(CPT(0.74, 1.0, 0.88, lam)))
        assert log.reached_goal
        devs.append(log.total_deviation)
    assert all(a <= b + 1e-12 for a, b in zip(devs, devs[1:]))
    assert devs[-1] > devs[0]


def test_halving_dt_changes_final_position_first_order():
    finals = {}
    for dt in (0.1, 0.05, 0.025):
        log = run(single_obstacle_scenario(CPT(0.74, 1.0, 0.88, 2.25), dt=dt))
        finals[dt] = log.records[-1].position
    coarse = np.linalg.norm(finals[0.1] - finals[0.05])
    fine = np.linalg.norm(finals[0.05] - finals[0.025])
    assert fine < 0.1
    assert fine <= coarse + 1e-6


def test_scenario_validation():
    scenario = single_obstacle_scenario(ExpectedRisk())
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, dt=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, t_max=0.01)
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, goal_tol=0.0)


def test_single_integrator_scenario_runs():
    scenario = single_obstacle_scenario(CVaR(0.4))
    integrator = dataclasses.replace(scenario, agent=SingleIntegrator([5.0, 2.0]))
    log = run(integrator)
    assert log.reached_goal
    assert log.min_h >= 0.0
    assert all(math.isnan(rec.heading) for rec in log.records)


# --- comparisons -------------------------------------------------------------------


def test_run_deterministic_summary():
    first, second = (run(single_obstacle_scenario(CVaR(0.4))) for _ in range(2))
    assert first.summary_dict() == second.summary_dict()


def test_cvar_deviation_spread_smaller_than_cpt():
    cvar_rows = [
        run(single_obstacle_scenario(CVaR(q))) for q in (0.001, 0.1, 0.4, 0.8, 0.95, 0.999)
    ]
    cpt_rows = [
        run(single_obstacle_scenario(spec))
        for spec in [CPT(0.74, 1.0, 0.88, lam) for lam in (1.5, 2.5, 3.5)]
        + [CPT(0.74, 1.0, g, 2.25) for g in (0.785, 0.9, 1.0)]
    ]
    cvar_devs = [r.total_deviation for r in cvar_rows]
    cpt_devs = [r.total_deviation for r in cpt_rows]
    assert max(cvar_devs) - min(cvar_devs) < max(cpt_devs) - min(cpt_devs)


# --- exports -----------------------------------------------------------------------


def test_simlog_csv_schema(tmp_path):
    log = run(single_obstacle_scenario(CVaR(0.4), t_max=5.0))
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


def test_simlog_json_schema(tmp_path):
    log = run(single_obstacle_scenario(CVaR(0.4), t_max=5.0))
    path = tmp_path / "log.json"
    log.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["summary"]["label"] == "cvar_q0p4"
    assert payload["summary"]["steps"] == log.steps
    assert len(payload["records"]) == log.steps
    assert payload["records"][0]["t"] == 0.0


def test_comparison_csv(tmp_path):
    logs = [run(single_obstacle_scenario(spec, t_max=5.0)) for spec in (CVaR(0.4), ExpectedRisk())]
    path = tmp_path / "summary.csv"
    comparison_to_csv(logs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("label,reached_goal,goal_time,min_h")
    assert len(lines) == 3


# --- canonical scenarios --------------------------------------------------------------


def test_single_scenario_constants():
    scenario = single_obstacle_scenario(ExpectedRisk())
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
    scenario = multi_obstacle_scenario(ExpectedRisk())
    assert np.allclose(scenario.agent.position, [-15.0, -15.0])
    assert np.allclose(scenario.goal, [15.0, 15.0])
    assert np.allclose(scenario.nominal_gain, [1.6, 1.6])
    assert scenario.field.r_bar == 2.5
    starts = [tuple(o.start) for o in scenario.obstacles]
    assert starts == [(-17.0, 0.0), (0.0, 14.0), (10.0, -10.0)]
    goals = [tuple(o.goal) for o in scenario.obstacles]
    assert goals == [(17.0, 0.0), (0.0, -14.0), (-10.0, 10.0)]


def test_multi_obstacle_active_switching_keeps_h_min_continuous():
    log = run(multi_obstacle_scenario(CPT(0.74, 1.0, 0.88, 2.25)))
    assert log.reached_goal
    h = np.array([r.h_min for r in log.records])
    active = np.array([r.active_index for r in log.records])
    assert len(set(active.tolist())) > 1  # the worst-case obstacle changes
    # h_min is a min of continuous barriers: one step moves it by at
    # most the fastest barrier rate times dt, switches included
    assert np.abs(np.diff(h)).max() < 10.0
