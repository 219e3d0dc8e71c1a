"""The shipped scenarios, built from ``configs/`` as the CLI builds them."""

import dataclasses
from pathlib import Path

from riskcbf.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_scenario(name, spec, **overrides):
    """The scenario of ``configs/<name>.cfg`` for spec, with fields such
    as dt or t_max replaced."""
    return dataclasses.replace(load_config(CONFIGS / f"{name}.cfg").scenario(spec), **overrides)
