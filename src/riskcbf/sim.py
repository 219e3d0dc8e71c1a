"""Closed-loop simulation of an agent avoiding uncertain moving obstacles.

A proportional controller drives the agent to its goal, and a safety
filter minimally modifies the nominal control to meet the active
(lowest-barrier) obstacle's constraint. simulate runs one scenario under
S risk specs as lanes, stepped in lockstep: every step makes one risk
evaluation over all lanes' (S, K) barrier rows and one filter call over
their active rows, and each lane's log has the bytes of a run of its spec
alone. The control is held over each step and the agent is stepped
exactly, one lane at a time. Each obstacle moves on a straight line at a
fixed speed and then rests, so obstacle_motion gives its position and
velocity at any t in closed form, for all lanes at once. Unicycle agents
are controlled through the projected point a distance l ahead of the
body, whose dynamics are the single integrator the filter assumes; goal
arrival is measured at that controlled point.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .barrier import BarrierConfig, barrier_constraint, qp_filter, row_norm
from .field import CostFieldParams
from .risk import RiskSpec, spec_label


def _vec2(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,) or not np.isfinite(arr).all():
        raise ValueError(f"expected a finite 2-vector, got {arr!r}")
    return arr


@dataclass(frozen=True)
class SingleIntegrator:
    """Agent with dynamics xdot = u."""

    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec2(self.position))

    def controlled_point(self) -> np.ndarray:
        return self.position

    def step(self, u: np.ndarray, dt: float) -> "SingleIntegrator":
        return SingleIntegrator(self.position + dt * u)


@dataclass(frozen=True)
class Unicycle:
    """Unicycle agent controlled via the projected point p = x + l*d(phi).

    The filtered control u maps to (v, omega) by unicycle_transform, under
    which pdot = u exactly; step moves the body under that law in closed form.
    """

    position: np.ndarray
    heading: float
    offset_l: float

    def __post_init__(self):
        object.__setattr__(self, "position", _vec2(self.position))
        if not 0 < self.offset_l < math.inf:
            raise ValueError("offset_l must be positive and finite")
        if not math.isfinite(self.heading):
            raise ValueError("heading must be finite")

    def controlled_point(self) -> np.ndarray:
        x, y = self.position.tolist()
        return np.array([x + self.offset_l * math.cos(self.heading), y + self.offset_l * math.sin(self.heading)])

    def step(self, u: np.ndarray, dt: float) -> "Unicycle":
        # With u held over dt the point moves by exactly dt*u. The heading
        # error e to atan2(u) obeys edot = -(|u|/l) sin e, so tan(e/2) shrinks
        # by k = exp(-|u| dt / l); with turn = 1 - k the heading turns by
        # e0 - e = 2 atan2(turn sin e0, 2 - turn (1 - cos e0)), in (-pi, pi).
        (x, y), (ux, uy), l = self.position.tolist(), u.tolist(), self.offset_l
        e0 = math.atan2(uy, ux) - self.heading
        turn = -math.expm1(-math.hypot(ux, uy) * dt / l)
        phi = self.heading + 2.0 * math.atan2(turn * math.sin(e0), 2.0 - turn * (1.0 - math.cos(e0)))
        # the bytes of position + dt * u + l * (d(heading) - d(phi)) on arrays
        x = x + dt * ux + l * (math.cos(self.heading) - math.cos(phi))
        y = y + dt * uy + l * (math.sin(self.heading) - math.sin(phi))
        return Unicycle(np.array([x, y]), phi, l)


AgentModel = Union[SingleIntegrator, Unicycle]


@dataclass(frozen=True)
class ObstacleModel:
    """Obstacle path: a straight line from start to goal at a fixed
    speed, then rest at the goal."""

    start: np.ndarray
    goal: np.ndarray
    speed: float

    def __post_init__(self):
        object.__setattr__(self, "start", _vec2(self.start))
        object.__setattr__(self, "goal", _vec2(self.goal))
        if not 0 <= self.speed < math.inf:
            raise ValueError("speed must be nonnegative and finite")


def obstacle_motion(start, goal, speed, t) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities (..., 2) at times t >= 0 of obstacles
    moving from start to goal (..., 2) in a straight line at speed (...),
    then resting at the goal; t broadcasts against speed."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise ValueError("t must be nonnegative and finite")
    to_goal = np.subtract(goal, start)
    length = row_norm(to_goal)
    travel = np.multiply(speed, t)
    en_route = travel < length  # so length > 0 wherever it divides
    shape = np.shape(en_route)
    frac = np.divide(travel, length, out=np.zeros(shape), where=en_route)
    scale = np.divide(speed, length, out=np.zeros(shape), where=en_route)
    positions = np.where(en_route[..., None], start + frac[..., None] * to_goal, goal)
    # at rest is +0.0, not 0 * (goal - start), which may be -0.0
    velocities = np.where((scale != 0.0)[..., None], scale[..., None] * to_goal, 0.0)
    return positions, velocities


def nominal_control(state_point, goal, gain) -> np.ndarray:
    """Proportional control gain * (goal - state) on controlled points of
    shape (2,) or (..., 2)."""
    return np.asarray(gain, dtype=float) * (np.asarray(goal, dtype=float) - np.asarray(state_point, dtype=float))


def unicycle_transform(u, heading: float, l: float) -> tuple[float, float]:
    """Map a planar projected-point control to unicycle (v, omega).

    Applies [[cos phi, sin phi], [-sin phi / l, cos phi / l]] to u, the
    inverse of the projected-point Jacobian, so pdot = u exactly.
    """
    if not 0 < l < math.inf:
        raise ValueError("l must be positive and finite")
    u = _vec2(u)
    c, s = math.cos(heading), math.sin(heading)
    v = c * u[0] + s * u[1]
    omega = (-s * u[0] + c * u[1]) / l
    return float(v), float(omega)


def default_obstacle_speed(obs_start, obs_goal, agent_start, agent_goal, gain) -> float:
    """Speed making the obstacle traverse its segment on the agent's
    nominal time scale: |obstacle segment| * gain / |agent segment|."""
    seg = float(np.linalg.norm(_vec2(obs_goal) - _vec2(obs_start)))
    agent_seg = float(np.linalg.norm(_vec2(agent_goal) - _vec2(agent_start)))
    if agent_seg == 0.0:
        raise ValueError("agent start and goal coincide")
    return seg * float(np.mean(np.asarray(gain, dtype=float))) / agent_seg


@dataclass(frozen=True)
class Scenario:
    agent: AgentModel
    goal: np.ndarray
    nominal_gain: np.ndarray
    obstacles: tuple[ObstacleModel, ...]
    field: CostFieldParams
    barrier: BarrierConfig
    dt: float
    t_max: float
    goal_tol: float

    def __post_init__(self):
        object.__setattr__(self, "goal", _vec2(self.goal))
        object.__setattr__(self, "nominal_gain", _vec2(self.nominal_gain))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not self.dt < self.t_max < math.inf:
            raise ValueError("t_max must exceed dt and be finite")
        if not 0 < self.goal_tol < math.inf:
            raise ValueError("goal_tol must be positive and finite")

    @cached_property
    def obstacle_paths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The obstacles' starts (K, 2), goals (K, 2) and speeds (K,): the
        leading arguments of obstacle_motion."""
        starts, goals, speeds = (np.array([getattr(o, name) for o in self.obstacles])
                                 for name in ("start", "goal", "speed"))
        return _readonly(starts.reshape(-1, 2)), _readonly(goals.reshape(-1, 2)), _readonly(speeds)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _log_dtype(n_obs: int) -> np.dtype:
    """A run's per-step row: its state, the K obstacle positions, both
    controls, every obstacle's barrier value and the filter's outcome."""
    return np.dtype([("t", float), ("position", float, 2), ("heading", float), ("point", float, 2),
                     ("obstacles", float, (n_obs, 2)), ("u_nominal", float, 2), ("u_filtered", float, 2),
                     ("h", float, (n_obs,)), ("feasible", bool)])


@dataclass(frozen=True)
class SimLog:
    """One run: its read-only per-step table ``records`` (one row per
    step, one column per field of _log_dtype) and what no row holds.
    Everything else is derived from the columns, once."""

    label: str
    records: np.ndarray
    dt: float
    reached_goal: bool

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def goal_time(self) -> Optional[float]:
        return float(self.records["t"][-1]) if self.reached_goal else None

    @cached_property
    def active_index(self) -> np.ndarray:
        """Per step, the lowest-barrier obstacle (ties go to the lowest
        index); -1 without obstacles."""
        h = self.records["h"]
        return _readonly(h.argmin(axis=1) if h.shape[1] else np.full(len(h), -1))

    @cached_property
    def h_min(self) -> np.ndarray:
        """Per step, the active obstacle's barrier; inf without obstacles."""
        h = self.records["h"]
        return _readonly(h[np.arange(len(h)), self.active_index] if h.shape[1] else np.full(len(h), math.inf))

    @cached_property
    def delta(self) -> np.ndarray:
        return _readonly(self.records["u_nominal"] - self.records["u_filtered"])

    @cached_property
    def _delta_norms(self) -> list[float]:
        return row_norm(self.delta).tolist()

    @property
    def min_h(self) -> float:
        return min(self.h_min.tolist())

    @property
    def total_deviation(self) -> float:
        # Python's sequential sum: NumPy's pairwise one rounds differently
        return float(sum(d * self.dt for d in self._delta_norms))

    @property
    def max_delta(self) -> float:
        return max(self._delta_norms)

    @property
    def feasibility_violations(self) -> int:
        return int(np.count_nonzero(~self.records["feasible"]))

    def to_csv(self, path) -> None:
        r = self.records
        n, n_obs = r["h"].shape
        cols = ["t", "x", "y", "heading", "px", "py"]
        cols += [f"obs{k}_{axis}" for k in range(n_obs) for axis in "xy"]
        cols += "unom_x,unom_y,u_x,u_y,delta_x,delta_y,h_min,active_obstacle,feasible".split(",")
        table = np.column_stack([r["t"], r["position"], r["heading"], r["point"], r["obstacles"].reshape(n, -1),
                                 r["u_nominal"], r["u_filtered"], self.delta, self.h_min, self.active_index,
                                 r["feasible"]])
        # '%.17g' % v gives the bytes of f"{v:.17g}" for every float
        row = ",".join(["%.17g"] * (len(cols) - 2)) + ",%d,%d\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            fh.writelines(row % tuple(values) for values in table.tolist())

    def summary_dict(self) -> dict:
        return {
            "label": self.label,
            "reached_goal": self.reached_goal,
            "goal_time": self.goal_time,
            "min_h": None if math.isinf(self.min_h) else self.min_h,
            "total_deviation": self.total_deviation,
            "max_delta": self.max_delta,
            "feasibility_violations": self.feasibility_violations,
            "steps": self.steps,
        }

    def to_json(self, path) -> None:
        r = self.records
        columns = {name: r[name].tolist() for name in ("t", "position", "heading", "point", "obstacles",
                                                      "u_nominal", "u_filtered")}
        columns["heading"] = [None if math.isnan(v) else v for v in columns["heading"]]
        columns["h_min"] = [None if math.isinf(v) else v for v in self.h_min.tolist()]
        columns["active_index"] = self.active_index.tolist()
        columns["feasible"] = r["feasible"].tolist()
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary_dict(), "records": records}, fh)
            fh.write("\n")


def simulate(scenario: Scenario, specs: Iterable[RiskSpec]) -> list[SimLog]:
    """Zero-order-hold closed loops of the scenario under each spec; one
    log per spec, each row one step.

    The specs run side by side as lanes, stepped in lockstep. At each
    step all lanes share one obstacle_motion result (computed for a block
    of steps at once), one barrier_constraint call over their (S, K)
    rows and one qp_filter call over their active rows; each lane's agent
    is then stepped exactly, on its own. A lane stops, and drops out of
    the lockstep, on goal arrival or at t_max, so every log has the bytes
    of a run of its spec alone. Raises ValueError naming every spec whose
    start state is already perceived unsafe. Infeasible filter states
    hold the lane's previous control, are logged, and flag its run.
    """
    specs = tuple(specs)
    if not specs:
        return []
    labels = [spec_label(spec) for spec in specs]
    dt, goal, n_obs = scenario.dt, scenario.goal, len(scenario.obstacles)
    live, lanes = np.arange(len(specs)), specs  # the lanes still running
    agents = [scenario.agent] * len(specs)
    u_prev = np.zeros((len(specs), 2))
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
        points = np.array([agent.controlled_point() for agent in agents])
        u = u_nom = nominal_control(points, goal, scenario.nominal_gain)
        feasible = True
        if n_obs:
            h, a, b = barrier_constraint(lanes, scenario.field, scenario.barrier, points[:, None], path_positions[j],
                                         path_velocities[j])
            active = np.arange(len(live)), h.argmin(axis=1)  # ties go to the lowest index
            if k == 0 and not (h[active] > 0).all():
                unsafe = [f"{label} (h_min = {h_s:g})" for label, h_s in zip(labels, h[active].tolist())
                          if not h_s > 0]
                raise ValueError(f"scenario starts perceived unsafe for {', '.join(unsafe)}")
            u, feasible = qp_filter(u_nom, a[active], b[active])
            u = np.where(feasible[:, None], u, u_prev[live])

        row, at = records[:, k], live if len(live) < len(specs) else slice(None)
        for name, value in (("position", [agent.position for agent in agents]),
                            ("heading", [getattr(agent, "heading", math.nan) for agent in agents]),
                            ("point", points), ("u_nominal", u_nom), ("u_filtered", u), ("h", h),
                            ("feasible", feasible)):
            row[name][at] = value
        arrived = row_norm(points - goal) <= scenario.goal_tol
        done = arrived | (k == n_steps)
        if done.any():
            last[live[done]], reached[live[done]] = k, arrived[done]
            live, u = live[~done], u[~done]
            if not len(live):
                break
            lanes = tuple(specs[s] for s in live.tolist())
            agents = [agent for agent, stop in zip(agents, done.tolist()) if not stop]
        agents = [agent.step(u_s, dt) for agent, u_s in zip(agents, u)]
        u_prev[live] = u

    return [SimLog(label=label, records=_readonly(records[s, : last[s] + 1]), dt=dt, reached_goal=bool(reached[s]))
            for s, label in enumerate(labels)]


def comparison_to_csv(logs, path) -> None:
    """Write the summary table: one row per run, the fields of summary_dict."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,reached_goal,goal_time,min_h,total_deviation,max_delta,feasibility_violations,steps\n")
        for log in logs:
            goal_time = "" if log.goal_time is None else "%.17g" % log.goal_time
            fh.write("%s,%d,%s,%.17g,%.17g,%.17g,%d,%d\n" % (log.label, log.reached_goal, goal_time, log.min_h,
                                                         log.total_deviation, log.max_delta,
                                                         log.feasibility_violations, log.steps))
