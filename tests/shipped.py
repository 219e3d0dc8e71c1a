"""The shipped scenarios, built from ``configs/`` as the CLI builds them."""

import dataclasses
from pathlib import Path

from riskcbf.config import load_config
from riskcbf.sim import simulate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_scenario(name, **overrides):
    """The scenario of ``configs/<name>.cfg``, with fields such as dt or
    t_max replaced."""
    return dataclasses.replace(load_config(CONFIGS / f"{name}.cfg").scenario(), **overrides)


def run_spec(scenario, spec):
    """The log of scenario under spec: simulate's one-lane run."""
    (log,) = simulate(scenario, [spec])
    return log
