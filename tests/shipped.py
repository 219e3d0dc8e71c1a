"""The shipped scenarios, built from ``configs/`` as the CLI builds them,
and the lane cases that variants of them run."""

import dataclasses
from pathlib import Path

from riskcbf.config import load_config
from riskcbf.risk import CPT, CVaR, ExpectedRisk
from riskcbf.sim import SingleIntegrator, simulate

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
