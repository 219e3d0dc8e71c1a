"""The per-step closed loop that ``riskcbf.sim.simulate`` runs in rounds:
one barrier_constraint call and one qp_filter call per lockstep step.
It is the reference the round-based loop must reproduce byte for byte.

It reads barrier_constraint and qp_filter from ``riskcbf.sim`` at each
call, so a test that monkeypatches them there patches both loops.
"""

import math

import numpy as np

from riskcbf import sim
from riskcbf.barrier import row_norm
from riskcbf.risk import spec_label
from riskcbf.sim import SimLog, _float_agent, _log_dtype, _readonly, nominal_control, obstacle_motion


def simulate_stepwise(scenario, specs):
    """simulate(scenario, specs), one lockstep step at a time."""
    specs = tuple(specs)
    if not specs:
        return []
    labels = [spec_label(spec) for spec in specs]
    dt, goal, n_obs = scenario.dt, scenario.goal, len(scenario.obstacles)
    row, step = _float_agent(scenario.agent, dt)
    current = [row] * len(specs)  # the live lanes' agents, as rows (x, y, heading, px, py)
    live, lanes = np.arange(len(specs)), specs  # the lanes still running
    at, lane_index = slice(None), live  # their rows of the log, and of a step's arrays
    u_prev = np.zeros((len(specs), 2))  # the live lanes' last controls
    last = np.zeros(len(specs), dtype=int)
    reached = np.zeros(len(specs), dtype=bool)
    h = np.empty(0)
    n_steps = math.ceil(scenario.t_max / dt)
    # grown as a list would be: t_max / dt may be far more steps than run
    records = np.empty((len(specs), min(n_steps + 1, 256)), _log_dtype(n_obs))

    for k in range(n_steps + 1):
        j = k % 256
        if j == 0:  # the obstacles depend on t alone: place them for 256 steps at once
            times = np.arange(k, min(k + 256, n_steps + 1)) * dt
            path_positions, path_velocities = obstacle_motion(*scenario.obstacle_paths, times[:, None])
            if k == records.shape[1]:
                records = np.concatenate([records, np.empty_like(records)], axis=1)
            block = records[:, k : k + len(times)]
            block["t"], block["obstacles"] = times, path_positions  # for every lane, running or not
            # the block's fields that each step writes, as views
            log_position, log_heading, log_point, log_u_nominal, log_u_filtered, log_h, log_feasible = (
                block[name] for name in ("position", "heading", "point", "u_nominal", "u_filtered", "h", "feasible"))
        agents = np.array(current)
        points = agents[:, 3:]
        u = u_nom = nominal_control(points, goal, scenario.nominal_gain)
        feasible = True
        if n_obs:
            h, a, b = sim.barrier_constraint(lanes, scenario.field, scenario.barrier, points[:, None],
                                             path_positions[j], path_velocities[j])
            active = lane_index, h.argmin(axis=1)  # ties go to the lowest index
            if k == 0 and not (h[active] > 0).all():
                unsafe = [f"{label} (h_min = {h_s:g})" for label, h_s in zip(labels, h[active].tolist())
                          if not h_s > 0]
                raise ValueError(f"scenario starts perceived unsafe for {', '.join(unsafe)}")
            u, feasible = sim.qp_filter(u_nom, a[active], b[active])
            u = np.where(feasible[:, None], u, u_prev)

        log_position[at, j], log_heading[at, j], log_point[at, j] = agents[:, :2], agents[:, 2], points
        log_u_nominal[at, j], log_u_filtered[at, j], log_h[at, j], log_feasible[at, j] = u_nom, u, h, feasible
        arrived = row_norm(points - goal) <= scenario.goal_tol
        if k == n_steps or arrived.any():
            done = arrived | (k == n_steps)
            last[live[done]], reached[live[done]] = k, arrived[done]
            live, u = live[~done], u[~done]
            if not len(live):
                break
            lanes = tuple(specs[s] for s in live.tolist())
            current = [r for r, stop in zip(current, done.tolist()) if not stop]
            at, lane_index = live, np.arange(len(live))
        current = [step(r, u_s) for r, u_s in zip(current, u.tolist())]
        u_prev = u

    return [SimLog(label=label, records=_readonly(records[s, : last[s] + 1]), dt=dt, reached_goal=bool(reached[s]))
            for s, label in enumerate(labels)]
