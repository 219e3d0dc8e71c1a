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
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .barrier import (
    BarrierConfig,
    InfeasibleConstraintError,
    barrier_constraint,
    qp_filter,
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
    offset_l: float = 0.2

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
    """Offsets to the goals, their lengths, and which obstacles move.
    The stacked matmul is the BLAS dot of a 1-D norm, so a batch moves
    each obstacle with the bytes it would have alone."""
    to_goal = np.subtract(goal, position)
    dist = np.sqrt((to_goal[..., None, :] @ to_goal[..., :, None])[..., 0, 0])
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
    dt: float = 0.02
    t_max: float = 60.0
    goal_tol: float = 0.1

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


@dataclass(frozen=True)
class SimStep:
    t: float
    position: np.ndarray
    heading: float
    point: np.ndarray
    obstacles: np.ndarray
    u_nominal: np.ndarray
    u_filtered: np.ndarray
    h_min: float
    active_index: int
    feasible: bool

    @property
    def delta(self) -> np.ndarray:
        return self.u_nominal - self.u_filtered


@dataclass(frozen=True)
class SimLog:
    label: str
    records: tuple[SimStep, ...]
    reached_goal: bool
    goal_time: Optional[float]
    min_h: float
    total_deviation: float
    max_delta: float
    feasibility_violations: int

    @property
    def steps(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        n_obs = self.records[0].obstacles.shape[0] if self.records else 0
        cols = ["t", "x", "y", "heading", "px", "py"]
        for k in range(n_obs):
            cols += [f"obs{k}_x", f"obs{k}_y"]
        cols += [
            "unom_x",
            "unom_y",
            "u_x",
            "u_y",
            "delta_x",
            "delta_y",
            "h_min",
            "active_obstacle",
            "feasible",
        ]
        # '%.17g' % v gives the bytes of f"{v:.17g}" for every float
        row = ",".join(["%.17g"] * (len(cols) - 2)) + ",%d,%d\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.records:
                values = (r.t, *r.position, r.heading, *r.point, *r.obstacles.ravel(), *r.u_nominal)
                fh.write(row % (*values, *r.u_filtered, *r.delta, r.h_min, r.active_index, r.feasible))

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
        records = []
        for rec in self.records:
            records.append(
                {
                    "t": rec.t,
                    "position": rec.position.tolist(),
                    "heading": None if math.isnan(rec.heading) else rec.heading,
                    "point": rec.point.tolist(),
                    "obstacles": rec.obstacles.tolist(),
                    "u_nominal": rec.u_nominal.tolist(),
                    "u_filtered": rec.u_filtered.tolist(),
                    "h_min": None if math.isinf(rec.h_min) else rec.h_min,
                    "active_index": rec.active_index,
                    "feasible": rec.feasible,
                }
            )
        payload = {"summary": self.summary_dict(), "records": records}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
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
    u_prev = np.zeros(2)
    records: list[SimStep] = []
    violations = 0
    reached = False
    goal_time: Optional[float] = None
    n_steps = math.ceil(scenario.t_max / scenario.dt)

    for k in range(n_steps + 1):
        t = k * scenario.dt
        point = agent.controlled_point()
        u_nom = nominal_control(point, scenario.goal, scenario.nominal_gain)
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
            h_min = float(h[active_idx])
            if k == 0 and not h_min > 0:
                raise ValueError(
                    f"scenario starts perceived unsafe (h_min = {h_min:g})"
                )
            try:
                u = qp_filter(u_nom, a[active_idx], b[active_idx])
                feasible = True
            except InfeasibleConstraintError:
                u = u_prev.copy()
                feasible = False
                violations += 1
        else:
            h_min = math.inf
            active_idx = -1
            u = u_nom.copy()
            feasible = True

        heading = agent.heading if isinstance(agent, Unicycle) else math.nan
        records.append(
            SimStep(
                t=t,
                position=agent.position.copy(),
                heading=heading,
                point=point.copy(),
                obstacles=positions,
                u_nominal=u_nom,
                u_filtered=u,
                h_min=h_min,
                active_index=active_idx,
                feasible=feasible,
            )
        )
        if float(np.linalg.norm(point - scenario.goal)) <= scenario.goal_tol:
            reached = True
            goal_time = t
            break
        if k == n_steps:
            break
        agent = agent.step(u, scenario.dt)
        positions = step_obstacle(positions, goals, speeds, scenario.dt)
        u_prev = u

    deltas = [float(np.linalg.norm(r.delta)) for r in records]
    return SimLog(
        label=spec_label(scenario.risk),
        records=tuple(records),
        reached_goal=reached,
        goal_time=goal_time,
        min_h=min((r.h_min for r in records), default=math.inf),
        total_deviation=float(sum(d * scenario.dt for d in deltas)),
        max_delta=max(deltas, default=0.0),
        feasibility_violations=violations,
    )


def comparison_to_csv(logs, path) -> None:
    """Write the summary table: one row per run, the fields of summary_dict."""
    cols = [
        "label",
        "reached_goal",
        "goal_time",
        "min_h",
        "total_deviation",
        "max_delta",
        "feasibility_violations",
        "steps",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for log in logs:
            fh.write(
                ",".join(
                    [
                        log.label,
                        "1" if log.reached_goal else "0",
                        "" if log.goal_time is None else f"{log.goal_time:.17g}",
                        f"{log.min_h:.17g}",
                        f"{log.total_deviation:.17g}",
                        f"{log.max_delta:.17g}",
                        str(log.feasibility_violations),
                        str(log.steps),
                    ]
                )
                + "\n"
            )


def _heading_towards(start, goal) -> float:
    d = _vec2(goal) - _vec2(start)
    return math.atan2(d[1], d[0])


def single_obstacle_scenario(
    risk: RiskSpec,
    dt: float = 0.02,
    t_max: float = 60.0,
    goal_tol: float = 0.1,
    eta1_gain: float = 1.0,
    m: int = 10,
) -> Scenario:
    """Unicycle agent from (5, 2) to (10, 10) crossing one obstacle that
    moves from (13, 13) to (2, 3); cost constants k1=200, k2=0.01 with
    localization radius 0.5 and rho at the mean cost of that radius."""
    params = CostFieldParams(200.0, 0.01, 0.5, m=m)
    gain = np.array([0.6, 0.6])
    start = np.array([5.0, 2.0])
    goal = np.array([10.0, 10.0])
    obs_start = np.array([13.0, 13.0])
    obs_goal = np.array([2.0, 3.0])
    speed = default_obstacle_speed(obs_start, obs_goal, start, goal, gain)
    return Scenario(
        agent=Unicycle(start, _heading_towards(start, goal), 0.2),
        goal=goal,
        nominal_gain=gain,
        obstacles=(ObstacleModel(obs_start, obs_goal, speed),),
        field=params,
        risk=risk,
        barrier=BarrierConfig(rho=params.sigma_peak, eta1_gain=eta1_gain),
        dt=dt,
        t_max=t_max,
        goal_tol=goal_tol,
    )


def multi_obstacle_scenario(
    risk: RiskSpec,
    dt: float = 0.02,
    t_max: float = 60.0,
    goal_tol: float = 0.1,
    eta1_gain: float = 1.0,
    m: int = 10,
) -> Scenario:
    """Unicycle agent from (-15, -15) to (15, 15) against three crossing
    obstacles; gain 1.6, localization radius 2.5, same cost constants."""
    params = CostFieldParams(200.0, 0.01, 2.5, m=m)
    gain = np.array([1.6, 1.6])
    start = np.array([-15.0, -15.0])
    goal = np.array([15.0, 15.0])
    paths = [
        ((-17.0, 0.0), (17.0, 0.0)),
        ((0.0, 14.0), (0.0, -14.0)),
        ((10.0, -10.0), (-10.0, 10.0)),
    ]
    obstacles = tuple(
        ObstacleModel(s, g, default_obstacle_speed(s, g, start, goal, gain))
        for s, g in paths
    )
    return Scenario(
        agent=Unicycle(start, _heading_towards(start, goal), 0.2),
        goal=goal,
        nominal_gain=gain,
        obstacles=obstacles,
        field=params,
        risk=risk,
        barrier=BarrierConfig(rho=params.sigma_peak, eta1_gain=eta1_gain),
        dt=dt,
        t_max=t_max,
        goal_tol=goal_tol,
    )
