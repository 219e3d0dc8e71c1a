"""Closed-loop simulation of an agent avoiding uncertain moving obstacles.

A proportional controller drives the agent to its goal, and a safety
filter minimally modifies the nominal control to meet the active
(lowest-barrier) obstacle's constraint. simulate runs one scenario under
S risk specs as lanes, stepped in lockstep and in rounds: a round rolls
the lanes forward under the nominal control for a block of steps, then
makes one risk evaluation over the block's (S, B, K) barrier rows and
one filter call over their active rows, and keeps the steps up to the
first one the filter changes. Each lane's log has the bytes of a run of
its spec alone, filtered one step at a time. The control is held over
each step and the agent is stepped exactly, one lane at a time. The agent
models are validated start states; within simulate a lane's agent is a
row of floats (x, y, heading, px, py), stepped by the float kernels
_unicycle_step and _integrator_step, the one kinematics path.
Each obstacle moves on a straight line at a fixed speed and then rests,
so obstacle_motion gives its position and velocity at any t in closed
form, for all lanes at once. Unicycle agents are controlled through the
projected point a distance l ahead of the body, whose dynamics are the
single integrator the filter assumes; goal arrival is measured at that
controlled point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .barrier import BarrierConfig, barrier_constraint, qp_filter, row_norm
from ._format import format_rows, write_json
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


@dataclass(frozen=True)
class Unicycle:
    """Unicycle agent controlled via the projected point p = x + l*d(phi).

    The filtered control u maps to (v, omega) by unicycle_transform, under
    which pdot = u exactly; _unicycle_step moves the body in closed form.
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


AgentModel = Union[SingleIntegrator, Unicycle]


def _finite(x: float, y: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"stepped agent position ({x!r}, {y!r}) is not finite")


def _integrator_step(x: float, y: float, ux: float, uy: float, dt: float) -> tuple[float, ...]:
    """The single integrator's row (x, y, nan, x, y) after u is held over
    dt: its position has the bytes of position + dt * u on arrays, and is
    its controlled point. Raises ValueError if it is not finite."""
    x, y = x + dt * ux, y + dt * uy
    _finite(x, y)
    return x, y, math.nan, x, y


def _unicycle_point(x: float, y: float, phi: float, l: float) -> tuple[float, float]:
    """The unicycle's controlled point x + l*d(phi)."""
    return x + l * math.cos(phi), y + l * math.sin(phi)


def _unicycle_step(x: float, y: float, phi: float, ux: float, uy: float, dt: float,
                   l: float) -> tuple[float, ...]:
    """The unicycle's row (x, y, phi, px, py) after the controlled point's
    velocity u is held over dt, in closed form; (px, py) has the bytes of
    _unicycle_point. Raises ValueError if it is not finite."""
    # With u held over dt the point moves by exactly dt*u. The heading
    # error e to atan2(u) obeys edot = -(|u|/l) sin e, so tan(e/2) shrinks
    # by k = exp(-|u| dt / l); with turn = 1 - k the heading turns by
    # e0 - e = 2 atan2(turn sin e0, 2 - turn (1 - cos e0)), in (-pi, pi).
    e0 = math.atan2(uy, ux) - phi
    turn = -math.expm1(-math.hypot(ux, uy) * dt / l)
    turned = phi + 2.0 * math.atan2(turn * math.sin(e0), 2.0 - turn * (1.0 - math.cos(e0)))
    # the bytes of position + dt * u + l * (d(phi) - d(turned)) on arrays
    c, s = math.cos(turned), math.sin(turned)
    x = x + dt * ux + l * (math.cos(phi) - c)
    y = y + dt * uy + l * (math.sin(phi) - s)
    _finite(x, y)  # a heading that is not finite leaves x and y not finite too
    return x, y, turned, x + l * c, y + l * s


def _float_agent(agent: AgentModel, dt: float):
    """The agent as simulate steps it: its row (x, y, heading, px, py) of
    floats, the heading nan for a single integrator, and step(row,
    (ux, uy)), the row after that control is held over dt."""
    x, y = agent.position.tolist()
    if isinstance(agent, Unicycle):
        phi, l = agent.heading, agent.offset_l
        return (x, y, phi, *_unicycle_point(x, y, phi, l)), lambda r, u: _unicycle_step(*r[:3], *u, dt, l)
    return (x, y, math.nan, x, y), lambda r, u: _integrator_step(r[0], r[1], *u, dt)


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
        # the last two columns hold small integers, which '%.17g' writes as '%d' does
        with open(path, "wb") as fh:
            fh.write((",".join(cols) + "\n").encode("ascii"))
            fh.writelines(format_rows(table))

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
        write_json(path, {"summary": self.summary_dict(), "records": records})


# the most steps one round rolls forward: a round doubles after a clean
# one, up to this, and drops back to one step after a miss
_ROUND_CAP = 32


def simulate(scenario: Scenario, specs: Iterable[RiskSpec]) -> list[SimLog]:
    """Zero-order-hold closed loops of the scenario under each spec; one
    log per spec, each row one step.

    The specs run side by side as lanes, stepped in lockstep and in
    rounds. A round rolls the live lanes forward for up to a block of
    steps under the nominal control alone, each agent stepped exactly, on
    its own, as a row of floats (x, y, heading, px, py) by the float
    kernels of _float_agent. It then makes
    one barrier_constraint call over the block's (S, B, K) rows, one
    qp_filter call over their active rows and one arrival check. Its
    steps are accepted up to and including the first miss: a step where
    some lane's control, filtered or held where the filter finds the lane
    infeasible, differs from its nominal one to the bit, a lane arrives,
    or t_max is reached. Up to the miss every step keeps the nominal
    control, so the accepted states are exact; the steps after it are discarded, and the next round starts
    from the miss's filtered control. The block doubles after a round
    with no miss, up to _ROUND_CAP steps, and is one step after a miss.
    The batched calls give each row the bytes of a call on its step
    alone, so the rounds reproduce the per-step loop byte for byte. The
    obstacles are placed and the lane-major log, (S, steps), is written
    per block of 256 steps, which no round crosses. A lane stops, and
    drops out of the lockstep, on goal arrival or at t_max, so every log
    has the bytes of a run of its spec alone. Raises ValueError naming
    every spec whose start state is already perceived unsafe, and
    ValueError when a stepped agent state is not finite or a filtered
    step's constraint is not; a speculative step past a round's miss
    raises nothing. Infeasible filter states hold the lane's previous
    control, are logged, and flag its run.
    """
    specs = tuple(specs)
    if not specs:
        return []
    labels = [spec_label(spec) for spec in specs]
    dt, goal, n_obs = scenario.dt, scenario.goal, len(scenario.obstacles)
    (gx, gy), (kx, ky) = goal.tolist(), scenario.nominal_gain.tolist()
    row, step = _float_agent(scenario.agent, dt)
    current = [row] * len(specs)  # the live lanes' agents, as rows
    live, lanes = np.arange(len(specs)), specs  # the lanes still running
    at = slice(None)  # their rows of the log
    u_prev = np.zeros((len(specs), 2))  # the live lanes' last controls
    last = np.zeros(len(specs), dtype=int)
    reached = np.zeros(len(specs), dtype=bool)
    n_steps = math.ceil(scenario.t_max / dt)
    # grown as a list would be: t_max / dt may be far more steps than run
    records = np.empty((len(specs), min(n_steps + 1, 256)), _log_dtype(n_obs))
    k, size = 0, 1  # the round's first step and its block length

    while True:
        j = k % 256
        if j == 0:  # the obstacles depend on t alone: place them for 256 steps at once
            times = np.arange(k, min(k + 256, n_steps + 1)) * dt
            path_positions, path_velocities = obstacle_motion(*scenario.obstacle_paths, times[:, None])
            if k == records.shape[1]:
                records = np.concatenate([records, np.empty_like(records)], axis=1)
            block = records[:, k : k + len(times)]
            block["t"], block["obstacles"] = times, path_positions  # for every lane, running or not
            # the block's fields that each round writes, as views
            log_position, log_heading, log_point, log_u_nominal, log_u_filtered, log_h, log_feasible = (
                block[name] for name in ("position", "heading", "point", "u_nominal", "u_filtered", "h", "feasible"))
        # roll forward under the nominal control, in floats with the bytes
        # of nominal_control; a step that fails ends the block, and raises
        # only if the loop takes it (below)
        rows = [current]  # per step, the live lanes' rows
        try:
            for _ in range(min(size, len(times) - j) - 1):
                rows.append([step(r, (kx * (gx - r[3]), ky * (gy - r[4]))) for r in rows[-1]])
        except (ArithmeticError, ValueError):
            pass
        agents = np.array(rows).transpose(1, 0, 2)  # (S, B, 5)
        n = agents.shape[1]
        points = agents[..., 3:]
        u = u_nom = nominal_control(points, goal, scenario.nominal_gain)
        if not n_obs:
            h, feasible = np.empty((len(live), n, 0)), np.ones((len(live), n), dtype=bool)
        else:
            h, a, b = barrier_constraint(lanes, scenario.field, scenario.barrier, points[:, :, None],
                                         path_positions[j : j + n], path_velocities[j : j + n])
            active = np.arange(len(live))[:, None], np.arange(n), h.argmin(axis=2)  # ties go to the lowest index
            if k == 0 and not (h[active][:, 0] > 0).all():
                unsafe = [f"{label} (h_min = {h_s:g})" for label, h_s in zip(labels, h[active][:, 0].tolist())
                          if not h_s > 0]
                raise ValueError(f"scenario starts perceived unsafe for {', '.join(unsafe)}")
            a, b = a[active], b[active]
            try:
                u, feasible = qp_filter(u_nom, a, b)
            except ValueError:
                # filter only the steps before the first non-finite row, or
                # that row alone, which raises as it does on its own
                finite = np.isfinite(a).all(axis=(0, 2)) & np.isfinite(b).all(axis=0)
                n = max(int(finite.argmin()), 1)
                u, feasible = qp_filter(u_nom[:, :n], a[:, :n], b[:, :n])
            if not feasible.all():  # hold the previous step's control
                u = np.where(feasible[..., None], u, np.concatenate([u_prev[:, None], u_nom[:, : n - 1]], axis=1))
        arrived = row_norm(points[:, :n] - goal) <= scenario.goal_tol
        # a miss: some lane arrives, or its control, filtered or held, is not
        # the nominal one to the bit (a step that keeps it leaves the next exact)
        miss = (arrived | (u.view(np.int64) != u_nom[:, :n].view(np.int64)).any(axis=2)).any(axis=0)
        clean = not miss.any()
        m = n - 1 if clean else int(miss.argmax())  # the round's last step
        size = min(2 * size, _ROUND_CAP) if clean else 1

        taken = slice(j, j + m + 1)
        log_position[at, taken], log_heading[at, taken] = agents[:, : m + 1, :2], agents[:, : m + 1, 2]
        log_point[at, taken], log_u_nominal[at, taken] = points[:, : m + 1], u_nom[:, : m + 1]
        log_u_filtered[at, taken], log_h[at, taken], log_feasible[at, taken] = (
            u[:, : m + 1], h[:, : m + 1], feasible[:, : m + 1])
        k += m
        current, u, arrived = rows[m], u[:, m], arrived[:, m]
        if k == n_steps or arrived.any():
            done = arrived | (k == n_steps)
            last[live[done]], reached[live[done]] = k, arrived[done]
            live, u = live[~done], u[~done]
            if not len(live):
                break
            lanes = tuple(specs[s] for s in live.tolist())
            current = [r for r, stop in zip(current, done.tolist()) if not stop]
            at = live
        current = [step(r, u_s) for r, u_s in zip(current, u.tolist())]
        u_prev = u
        k += 1

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
