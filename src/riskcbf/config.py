"""Scenario/config file ingestion with line-level validation.

Config files are INI-style text: ``[section]`` headers and ``key = value``
pairs, full-line comments starting with ``#`` or ``;``. Obstacles live in
numbered sections ``[obstacle.1]``, ``[obstacle.2]``, ... ``load_config``
rejects unknown sections and keys and converts and range-checks each value
once, by the converter the table ``_KEYS`` gives its key, whatever command
reads the file; each such error carries the value's line. The builders
assemble dataclasses from the typed values and defaults, and report a
missing section or key (without a line) and the checks that involve two
keys (each on the line of one of them).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierConfig
from .field import CostFieldParams
from .risk import CPT, CVaR, RiskSpec, parse_spec, spec_label
from .sim import (
    ObstacleModel,
    Scenario,
    SingleIntegrator,
    Unicycle,
    default_obstacle_speed,
)


class ConfigError(Exception):
    """Invalid config file; message carries ``path:line``."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        loc = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{loc}: {message}")


# -- converters: value text -> typed value, ValueError when out of range ----


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _checked(convert, ok, requirement: str):
    """convert, then reject a value for which ok is false."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {requirement}, got {value!r}")
        return value

    return check


def _count(minimum: int):
    return _checked(_integer, lambda value: value >= minimum, f">= {minimum}")


_positive = _checked(_number, lambda value: value > 0, "> 0")
_nonnegative = _checked(_number, lambda value: value >= 0, ">= 0")
_model = _checked(
    str.lower, lambda value: value in ("unicycle", "single_integrator"), "unicycle or single_integrator"
)


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(_number(tok.strip()) for tok in text.split(",") if tok.strip())


def _pair(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"must be two comma-separated numbers, got {text!r}")
    pair = np.array([_number(part.strip()) for part in parts])
    pair.setflags(write=False)  # shared by every scenario built from the config
    return pair


def _list_of(build):
    """A number list, each number passed through build, which may reject it."""
    return lambda text: tuple(build(value) for value in _numbers(text))


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text.lower() in ("true", "yes", "1")


def _auto(convert):
    """convert, with the value ``auto`` read as None."""
    return lambda text: None if text.lower() == "auto" else convert(text)


def _spec_list(text: str) -> tuple[RiskSpec, ...]:
    specs = {}
    tokens = [token.strip() for token in re.split(r",(?![^()]*\))", text)]  # at commas outside parentheses
    for token in filter(None, tokens):
        spec = parse_spec(token)
        label = spec_label(spec)  # names the output files, so it must be unique
        if label in specs:
            raise ValueError(f"{token!r} has the label {label!r} of an earlier spec")
        specs[label] = spec
    if not specs:
        raise ValueError("must list at least one spec")
    return tuple(specs.values())


# -- the key table ---------------------------------------------------------------

_REQUIRED = object()  # the default of a key that has none


def _key(convert, default: str | None = None) -> tuple:
    """A key's converter and its default, written as in a config file and
    converted once, here."""
    return convert, _REQUIRED if default is None else convert(default)


_KEYS = {
    "field": {
        "k1": _key(_positive),
        "k2": _key(_positive),
        "r_bar": _key(_nonnegative),
        "m": _key(_count(2), "10"),
    },
    "risk": {"specs": _key(_spec_list)},
    "barrier": {
        "rho": _key(_auto(_positive), "auto"),
        "eta1_gain": _key(_positive, "1.0"),
    },
    "grid": {
        "xmin": _key(_number),
        "xmax": _key(_number),
        "ymin": _key(_number),
        "ymax": _key(_number),
        "nx": _key(_count(2)),
        "ny": _key(_count(2)),
        "source": _key(_pair),
        "levels": _key(_numbers, ""),
    },
    "audit": {
        "cvar_q": _key(_list_of(CVaR), "0.0, 0.001, 0.1, 0.4, 0.8, 0.95, 0.999"),
        # CPT itself checks each gamma and lambda
        "cpt_gammas": _key(_list_of(lambda g: CPT(1.0, 1.0, g, 1.0).gamma), "0.785, 0.79, 0.8, 0.85, 0.9, 1.0"),
        "cpt_lambdas": _key(_list_of(lambda l: CPT(1.0, 1.0, 1.0, l).lam), "1.5, 2.0, 2.5, 3.0, 3.5"),
        "cpt_alpha": _key(_positive, "0.74"),
        "cpt_beta": _key(_positive, "1.0"),
        "include_extremes": _key(_bool, "true"),
    },
    "agent": {
        "model": _key(_model),
        "start": _key(_pair),
        "goal": _key(_pair),
        "heading": _key(_auto(_number), "auto"),
        "offset_l": _key(_positive, "0.2"),
        "gain": _key(_pair),
    },
    "sim": {
        "dt": _key(_positive, "0.02"),
        "t_max": _key(_positive, "60.0"),
        "goal_tol": _key(_positive, "0.1"),
    },
    "feasibility": {
        "n_states": _key(_count(1), "20"),
        "n_samples": _key(_count(1), "400"),
        "u_max": _key(_positive, "5.0"),
    },
}
_OBSTACLE_KEYS = {
    "start": _key(_pair),
    "goal": _key(_pair),
    "speed": _key(_auto(_nonnegative), "auto"),
}
_OBSTACLE_RE = re.compile(r"^obstacle\.(\d+)$")
_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")


def _keys(section: str) -> dict:
    return _OBSTACLE_KEYS if _OBSTACLE_RE.match(section) else _KEYS[section]


@dataclass(frozen=True)
class _Entry:
    value: object
    line: int


class Config:
    """A loaded config: each value of the file, converted, with its line."""

    def __init__(self, path, sections: dict[str, dict[str, _Entry]]):
        self.path = str(path)
        self._sections = sections

    def _get(self, section: str, key: str):
        """The value of section.key, else its default; an error if it has none."""
        entry = self._sections.get(section, {}).get(key)
        if entry is not None:
            return entry.value
        default = _keys(section)[key][1]
        if default is _REQUIRED:
            if section not in self._sections:
                raise ConfigError(self.path, None, f"missing required section [{section}]")
            raise ConfigError(self.path, None, f"missing key {key!r} in section [{section}]")
        return default

    def _fail(self, section: str, key: str, message: str) -> ConfigError:
        """message on the line of section.key, if the file sets it."""
        entry = self._sections.get(section, {}).get(key)
        return ConfigError(self.path, None if entry is None else entry.line, f"{section}.{key}: {message}")

    # -- typed builders -----------------------------------------------------

    def field_params(self) -> CostFieldParams:
        return CostFieldParams(*(self._get("field", key) for key in ("k1", "k2", "r_bar", "m")))

    def barrier_config(self, params: CostFieldParams) -> BarrierConfig:
        rho = self._get("barrier", "rho")
        if rho is None:  # auto: the mean cost at the localization radius
            rho = params.sigma_peak
            if rho == 0.0:
                raise self._fail("field", "r_bar", "makes c_mu(r_bar) zero, so barrier.rho = auto is not positive")
        return BarrierConfig(rho=rho, eta1_gain=self._get("barrier", "eta1_gain"))

    def specs(self) -> tuple[RiskSpec, ...]:
        return self._get("risk", "specs")

    def grid_geometry(self):
        xmin, xmax, ymin, ymax, nx, ny, source = (
            self._get("grid", key) for key in ("xmin", "xmax", "ymin", "ymax", "nx", "ny", "source")
        )
        if not xmax > xmin:
            raise self._fail("grid", "xmax", f"must exceed grid.xmin = {xmin!r}, got {xmax!r}")
        if not ymax > ymin:
            raise self._fail("grid", "ymax", f"must exceed grid.ymin = {ymin!r}, got {ymax!r}")
        return (xmin, xmax, ymin, ymax), (nx, ny), source

    def levels(self) -> tuple[float, ...]:
        return self._get("grid", "levels")

    def audit_families(self, c_min: float, c_max: float, rho: float):
        """CVaR and CPT families for the audits; the CPT family can add
        the analytic extremes lambda = rho/c_min and gamma = log(rho)/
        log(c_max) when include_extremes is set."""
        cvar_family = list(self._get("audit", "cvar_q"))
        alpha, beta = self._get("audit", "cpt_alpha"), self._get("audit", "cpt_beta")
        gammas, lams = self._get("audit", "cpt_gammas"), self._get("audit", "cpt_lambdas")
        cpt_family = [CPT(alpha, beta, g, l) for g in gammas for l in lams]
        if self._get("audit", "include_extremes"):
            if c_min > 0:
                cpt_family.append(CPT(1.0, 1.0, 1.0, max(1.0, rho / c_min)))
            if c_max > 1.0 and rho > 1.0:
                gamma_ext = min(1.0, math.log(rho) / math.log(c_max))
                cpt_family.append(CPT(1.0, 1.0, gamma_ext, 1.0))
        # an empty list is an error only where it leaves its family empty
        if not cvar_family:
            empty = "cvar_q"
        elif not cpt_family:  # no gamma x lambda product and no extreme
            empty = "cpt_gammas" if not gammas else "cpt_lambdas"
        else:
            return cvar_family, cpt_family
        raise self._fail("audit", empty, "is empty and leaves its family empty")

    def obstacles(self, agent_start, agent_goal, gain) -> tuple[ObstacleModel, ...]:
        names = sorted(
            (name for name in self._sections if _OBSTACLE_RE.match(name)),
            key=lambda n: int(_OBSTACLE_RE.match(n).group(1)),
        )
        obstacles = []
        for name in names:
            start, goal, speed = (self._get(name, key) for key in ("start", "goal", "speed"))
            if speed is None:  # auto: on the agent's nominal time scale
                if np.array_equal(agent_start, agent_goal):
                    raise self._fail("agent", "goal", f"equals agent.start, so {name}.speed = auto is undefined")
                speed = default_obstacle_speed(start, goal, agent_start, agent_goal, gain)
                if not 0 <= speed < math.inf:
                    raise self._fail("agent", "gain", f"makes {name}.speed = auto {speed!r}, not a finite speed >= 0")
            obstacles.append(ObstacleModel(start, goal, speed))
        return tuple(obstacles)

    def scenario(self) -> Scenario:
        start, goal, gain = (self._get("agent", key) for key in ("start", "goal", "gain"))
        if self._get("agent", "model") == "unicycle":
            heading = self._get("agent", "heading")
            if heading is None:  # auto: face the goal
                d = goal - start
                heading = math.atan2(d[1], d[0])
            agent = Unicycle(start, heading, self._get("agent", "offset_l"))
        else:
            agent = SingleIntegrator(start)
        dt, t_max = self._get("sim", "dt"), self._get("sim", "t_max")
        if not t_max > dt:
            # a default t_max leaves dt as the key to blame
            key = "t_max" if "t_max" in self._sections.get("sim", {}) else "dt"
            raise self._fail("sim", key, f"needs t_max > dt, got t_max = {t_max!r} and dt = {dt!r}")
        params = self.field_params()
        return Scenario(
            agent=agent,
            goal=goal,
            nominal_gain=gain,
            obstacles=self.obstacles(start, goal, gain),
            field=params,
            barrier=self.barrier_config(params),
            dt=dt,
            t_max=t_max,
            goal_tol=self._get("sim", "goal_tol"),
        )

    def feasibility_settings(self) -> dict:
        return {key: self._get("feasibility", key) for key in ("n_states", "n_samples", "u_max")}


def load_config(path) -> Config:
    """Parse a config file, rejecting unknown keys and converting and
    checking each value at its line."""
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(path, None, f"cannot read config: {exc}") from exc

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        header = _SECTION_RE.match(line)
        if header:
            name = header.group(1).strip().lower()
            if not (name in _KEYS or _OBSTACLE_RE.match(name)):
                raise ConfigError(path, lineno, f"unknown section [{name}]")
            if name in sections:
                raise ConfigError(path, lineno, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(path, lineno, "key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        keys = _keys(current)
        if key not in keys:
            raise ConfigError(path, lineno, f"unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(path, lineno, f"duplicate key {key!r} in section [{current}]")
        if not value:
            raise ConfigError(path, lineno, f"empty value for {current}.{key}")
        convert = keys[key][0]
        try:
            sections[current][key] = _Entry(convert(value), lineno)
        except ValueError as exc:
            raise ConfigError(path, lineno, f"{current}.{key}: {exc}") from exc

    return Config(path, sections)
