"""Closed-loop simulation of an agent avoiding uncertain moving obstacles.

A proportional controller drives the agent to its goal; every step one risk
evaluation gives every obstacle's barrier and affine constraint, and the
safety filter minimally modifies the nominal control to meet the active
(lowest-barrier) obstacle's constraint. The control is held over each step
and agents and obstacles are stepped exactly. Unicycle agents are controlled
through the projected point a distance l ahead of the body, whose dynamics
are the single integrator the filter assumes; goal arrival is measured at
that controlled point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .barrier import (
    BarrierConfig,
    InfeasibleConstraintError,
    barrier_constraint,
    qp_filter,
    row_norm,
)
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
        return self.position + self.offset_l * np.array(
            [math.cos(self.heading), math.sin(self.heading)]
        )

    def step(self, u: np.ndarray, dt: float) -> "Unicycle":
        # With u held over dt the point moves by exactly dt*u. The heading
        # error e to atan2(u) obeys edot = -(|u|/l) sin e, so tan(e/2) shrinks
        # by k = exp(-|u| dt / l); with turn = 1 - k the heading turns by
        # e0 - e = 2 atan2(turn sin e0, 2 - turn (1 - cos e0)), in (-pi, pi).
        e0 = math.atan2(u[1], u[0]) - self.heading
        turn = -math.expm1(-math.hypot(u[0], u[1]) * dt / self.offset_l)
        phi = self.heading + 2.0 * math.atan2(turn * math.sin(e0), 2.0 - turn * (1.0 - math.cos(e0)))
        moved = np.array([math.cos(self.heading) - math.cos(phi), math.sin(self.heading) - math.sin(phi)])
        return Unicycle(self.position + dt * u + self.offset_l * moved, phi, self.offset_l)


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


def _to_goal(position, goal, speed):
    """Offsets to the goals, their lengths, and which obstacles move."""
    to_goal = np.subtract(goal, position)
    dist = row_norm(to_goal)
    return to_goal, dist, np.not_equal(speed, 0.0) & (dist != 0.0)


def obstacle_velocity(position, goal, speed) -> np.ndarray:
    """Velocities of obstacles at positions (..., 2) heading for their
    goals at their speeds (...); zero for an obstacle at rest."""
    to_goal, dist, moving = _to_goal(position, goal, speed)
    scale = np.divide(speed, dist, out=np.zeros(np.shape(dist)), where=moving)
    return np.where(moving[..., None], scale[..., None] * to_goal, 0.0)


def step_obstacle(position, goal, speed, dt: float) -> np.ndarray:
    """Advance obstacles at positions (..., 2) toward their goals at
    their speeds (...), clamping on arrival; returns new positions."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    to_goal, dist, moving = _to_goal(position, goal, speed)
    travel = np.multiply(speed, dt)
    frac = np.divide(travel, dist, out=np.zeros(np.shape(dist)), where=moving)
    ahead = np.where((travel >= dist)[..., None], goal, position + frac[..., None] * to_goal)
    return np.where(moving[..., None], ahead, position)


def nominal_control(state_point, goal, gain) -> np.ndarray:
    """Proportional control gain * (goal - state) on the controlled point."""
    return np.asarray(gain, dtype=float) * (_vec2(goal) - _vec2(state_point))


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
    risk: RiskSpec
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


def run(scenario: Scenario) -> SimLog:
    """Zero-order-hold closed loop, exact agent and obstacle steps; logs every step.

    Raises ValueError when the start state is already perceived unsafe.
    Infeasible filter states hold the previous control, are logged, and
    flag the run; the loop still terminates on goal arrival or t_max.
    """
    agent = scenario.agent
    obstacles = scenario.obstacles
    positions = np.array([o.start for o in obstacles]).reshape(-1, 2)
    goals = np.array([o.goal for o in obstacles]).reshape(-1, 2)
    speeds = np.array([o.speed for o in obstacles])
    h = np.empty(0)
    u_prev = np.zeros(2)
    reached = False
    n_steps = math.ceil(scenario.t_max / scenario.dt)
    # grown as a list would be: t_max / dt may be far more steps than run
    records = np.empty(min(n_steps + 1, 256), _log_dtype(len(obstacles)))

    for k in range(n_steps + 1):
        t = k * scenario.dt
        point = agent.controlled_point()
        u_nom = nominal_control(point, scenario.goal, scenario.nominal_gain)
        feasible = True
        if obstacles:
            h, a, b = barrier_constraint(
                scenario.risk,
                scenario.field,
                scenario.barrier,
                point,
                positions,
                obstacle_velocity(positions, goals, speeds),
            )
            active_idx = int(np.argmin(h))  # ties go to the lowest index
            if k == 0 and not h[active_idx] > 0:
                raise ValueError(
                    f"scenario starts perceived unsafe (h_min = {h[active_idx]:g})"
                )
            try:
                u = qp_filter(u_nom, a[active_idx], b[active_idx])
            except InfeasibleConstraintError:
                u = u_prev
                feasible = False
        else:
            u = u_nom

        heading = agent.heading if isinstance(agent, Unicycle) else math.nan
        if k == len(records):
            records = np.concatenate([records, np.empty_like(records)])
        records[k] = (t, agent.position, heading, point, positions, u_nom, u, h, feasible)
        if float(np.linalg.norm(point - scenario.goal)) <= scenario.goal_tol:
            reached = True
            break
        if k == n_steps:
            break
        agent = agent.step(u, scenario.dt)
        positions = step_obstacle(positions, goals, speeds, scenario.dt)
        u_prev = u

    return SimLog(
        label=spec_label(scenario.risk),
        records=_readonly(records[: k + 1]),
        dt=scenario.dt,
        reached_goal=reached,
    )


def comparison_to_csv(logs, path) -> None:
    """Write the summary table: one row per run, the fields of summary_dict."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,reached_goal,goal_time,min_h,total_deviation,max_delta,feasibility_violations,steps\n")
        for log in logs:
            goal_time = "" if log.goal_time is None else "%.17g" % log.goal_time
            fh.write("%s,%d,%s,%.17g,%.17g,%.17g,%d,%d\n" % (log.label, log.reached_goal, goal_time, log.min_h,
                                                         log.total_deviation, log.max_delta,
                                                         log.feasibility_violations, log.steps))
