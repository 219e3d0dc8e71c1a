"""The shipped scenarios, built from ``configs/`` as the CLI builds them,
the lane cases that variants of them run, and seeded layouts of crossing
obstacles."""

import dataclasses
import math
import random
from functools import lru_cache
from pathlib import Path

import numpy as np

from riskcbf.config import load_config
from riskcbf.field import evaluate
from riskcbf.risk import CPT, CVaR, ExpectedRisk
from riskcbf.sim import ObstacleModel, SingleIntegrator, default_obstacle_speed, simulate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_scenario(name, **overrides):
    """The scenario of ``configs/<name>.cfg``, with fields such as dt or
    t_max replaced."""
    return dataclasses.replace(load_config(CONFIGS / f"{name}.cfg").scenario(), **overrides)


def run_spec(scenario, spec):
    """The log of scenario under spec: simulate's one-lane run."""
    (log,) = simulate(scenario, [spec])
    return log


def lane_case(name):
    """A scenario and the specs that run on it side by side."""
    single, multi = (load_config(CONFIGS / f"{n}.cfg") for n in ("single_obstacle", "multi_obstacle"))
    mixed = (ExpectedRisk(), CVaR(0.4), CPT(0.74, 1.0, 0.88, 2.25), CPT(0.74, 1.0, 0.5, 3.0))
    return {
        "single_obstacle": (single.scenario(), single.specs()),
        "multi_obstacle": (multi.scenario(), multi.specs()),
        "single_integrator": (dataclasses.replace(multi.scenario(), agent=SingleIntegrator([-15.0, -15.0])), mixed),
        "no_obstacles": (dataclasses.replace(single.scenario(), obstacles=()), mixed),
        "t_max_cutoff": (dataclasses.replace(single.scenario(), t_max=2.0), single.specs()),
    }[name]


# the specs each crossing layout runs, as the sim_crowd benchmark does
CROWD_SPECS = (ExpectedRisk(), CVaR(0.1), CPT(0.74, 1.0, 0.88, 2.25))


@lru_cache(maxsize=1)
def _crowd_base():
    # multi_obstacle.cfg, and the distance beyond which every crowd spec's
    # perceived risk is below 0.9 rho, on a 0.05 grid
    scenario = shipped_scenario("multi_obstacle")
    r = np.arange(0.0, 40.0, 0.05)
    xi = np.stack([r, np.zeros_like(r)], axis=-1)
    risky = [evaluate(spec, scenario.field, xi, grad=False)[0] >= 0.9 * scenario.barrier.rho for spec in CROWD_SPECS]
    return scenario, float(r[np.logical_or.reduce(risky)].max()) + 0.05


def crossing_layout(seed):
    """multi_obstacle.cfg with its obstacles replaced by 2-5 seeded ones.

    Each obstacle's path crosses the middle 60% of the agent's nominal
    segment at 30-150 degrees, at the config's auto speed. Both of its
    ends keep a clearance beyond which no spec of CROWD_SPECS perceives
    a risk of 0.9 rho from the agent's start and goal, so every run
    starts perceived safe and its goal stays reachable."""
    scenario, clearance = _crowd_base()
    rng = random.Random(f"crossing/{seed}")
    a, b = scenario.agent.position.tolist(), scenario.goal.tolist()
    heading = math.atan2(b[1] - a[1], b[0] - a[0])
    obstacles = []
    for _ in range(rng.randint(2, 5)):
        while True:
            s = rng.uniform(0.2, 0.8)
            cx, cy = a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])
            theta = heading + rng.choice((-1.0, 1.0)) * math.radians(rng.uniform(30.0, 150.0))
            d0, d1 = (rng.uniform(0.5, 2.0) * clearance for _ in "01")
            start = (cx - d0 * math.cos(theta), cy - d0 * math.sin(theta))
            goal = (cx + d1 * math.cos(theta), cy + d1 * math.sin(theta))
            if math.dist(start, a) >= clearance and math.dist(goal, b) >= clearance:
                break
        speed = default_obstacle_speed(start, goal, a, b, scenario.nominal_gain)
        obstacles.append(ObstacleModel(start, goal, speed))
    return dataclasses.replace(scenario, obstacles=tuple(obstacles))
