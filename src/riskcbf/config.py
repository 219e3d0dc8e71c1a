"""Scenario/config file ingestion with line-level validation.

Config files are INI-style text: ``[section]`` headers and ``key = value``
pairs, full-line comments starting with ``#`` or ``;``. Unknown sections
or keys are rejected, every physical quantity is validated on load, and
all errors carry the offending line number. Obstacles live in numbered
sections ``[obstacle.1]``, ``[obstacle.2]``, ...
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


_SCHEMA = {
    "field": {"k1", "k2", "r_bar", "m"},
    "risk": {"specs"},
    "barrier": {"rho", "eta1_gain"},
    "grid": {"xmin", "xmax", "ymin", "ymax", "nx", "ny", "source", "levels"},
    "audit": {
        "cvar_q",
        "cpt_gammas",
        "cpt_lambdas",
        "cpt_alpha",
        "cpt_beta",
        "include_extremes",
    },
    "agent": {"model", "start", "goal", "heading", "offset_l", "gain"},
    "sim": {"dt", "t_max", "goal_tol"},
    "feasibility": {"n_states", "n_samples", "u_max"},
}
_OBSTACLE_KEYS = {"start", "goal", "speed"}
_OBSTACLE_RE = re.compile(r"^obstacle\.(\d+)$")
_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")


@dataclass(frozen=True)
class _Entry:
    value: str
    line: int


class Config:
    """Parsed and validated configuration."""

    def __init__(self, path, sections: dict[str, dict[str, _Entry]]):
        self.path = str(path)
        self._sections = sections

    # -- raw access helpers -------------------------------------------------

    def _fail(self, line, message) -> "ConfigError":
        return ConfigError(self.path, line, message)

    def _require_section(self, name: str) -> dict[str, _Entry]:
        if name not in self._sections:
            raise self._fail(None, f"missing required section [{name}]")
        return self._sections[name]

    def _entry(self, section: str, key: str, default=None) -> _Entry | None:
        sec = self._sections.get(section, {})
        if key in sec:
            return sec[key]
        if default is None:
            return None
        return _Entry(default, 0)

    def _require(self, section: str, key: str) -> _Entry:
        entry = self._entry(section, key)
        if entry is None:
            raise self._fail(None, f"missing key {key!r} in section [{section}]")
        return entry

    def _float(self, section, key, default=None, minimum=None, positive=False):
        entry = self._entry(section, key, default)
        if entry is None:
            raise self._fail(None, f"missing key {key!r} in section [{section}]")
        try:
            value = float(entry.value)
        except ValueError:
            raise self._fail(entry.line, f"{section}.{key} must be a number, got {entry.value!r}")
        self._check_finite(entry, section, key, [value])
        if positive and value <= 0:
            raise self._fail(entry.line, f"{section}.{key} must be > 0, got {value!r}")
        if minimum is not None and value < minimum:
            raise self._fail(entry.line, f"{section}.{key} must be >= {minimum}, got {value!r}")
        return value

    def _int(self, section, key, default=None, minimum=None):
        entry = self._entry(section, key, default)
        if entry is None:
            raise self._fail(None, f"missing key {key!r} in section [{section}]")
        try:
            value = int(entry.value)
        except ValueError:
            raise self._fail(entry.line, f"{section}.{key} must be an integer, got {entry.value!r}")
        if minimum is not None and value < minimum:
            raise self._fail(entry.line, f"{section}.{key} must be >= {minimum}, got {value!r}")
        return value

    def _pair(self, section, key, default=None) -> np.ndarray:
        entry = self._entry(section, key, default)
        if entry is None:
            raise self._fail(None, f"missing key {key!r} in section [{section}]")
        parts = [p.strip() for p in entry.value.split(",")]
        if len(parts) != 2:
            raise self._fail(entry.line, f"{section}.{key} must be two comma-separated numbers")
        try:
            values = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise self._fail(entry.line, f"{section}.{key} must be numeric, got {entry.value!r}")
        self._check_finite(entry, section, key, values)
        return np.array(values)

    def _float_list(self, section, key, default=None) -> list[float]:
        entry = self._entry(section, key, default)
        if entry is None:
            raise self._fail(None, f"missing key {key!r} in section [{section}]")
        try:
            values = [float(tok) for tok in entry.value.split(",") if tok.strip()]
        except ValueError:
            raise self._fail(entry.line, f"{section}.{key} must be a comma-separated number list")
        self._check_finite(entry, section, key, values)
        return values

    def _check_finite(self, entry, section, key, values) -> None:
        if not all(math.isfinite(v) for v in values):
            raise self._fail(entry.line, f"{section}.{key} must be finite, got {entry.value!r}")

    def _audit_list(self, key, default, build) -> list:
        """Each number of an [audit] list passed through build; a value
        the risk spec rejects is an error on that list's line."""
        values = self._float_list("audit", key, default)
        try:
            return [build(v) for v in values]
        except ValueError as exc:
            raise self._fail(self._entry("audit", key, default).line, f"audit.{key}: {exc}") from exc

    def _bool(self, section, key, default="false") -> bool:
        entry = self._entry(section, key, default)
        text = entry.value.strip().lower()
        if text in ("true", "yes", "1"):
            return True
        if text in ("false", "no", "0"):
            return False
        raise self._fail(entry.line, f"{section}.{key} must be true or false, got {entry.value!r}")

    # -- typed builders -----------------------------------------------------

    def field_params(self) -> CostFieldParams:
        self._require_section("field")
        try:
            return CostFieldParams(
                k1=self._float("field", "k1", positive=True),
                k2=self._float("field", "k2", positive=True),
                r_bar=self._float("field", "r_bar", minimum=0.0),
                m=self._int("field", "m", default="10", minimum=2),
            )
        except ValueError as exc:
            raise self._fail(None, f"invalid [field] section: {exc}") from exc

    def barrier_config(self) -> BarrierConfig:
        params = self.field_params()
        entry = self._entry("barrier", "rho", default="auto")
        if entry.value.strip().lower() == "auto":
            rho = params.sigma_peak
        else:
            rho = self._float("barrier", "rho", positive=True)
        gain = self._float("barrier", "eta1_gain", default="1.0", positive=True)
        return BarrierConfig(rho=rho, eta1_gain=gain)

    def specs(self) -> list[RiskSpec]:
        self._require_section("risk")
        entry = self._require("risk", "specs")
        specs = {}
        for token in _split_spec_list(entry.value):
            try:
                spec = parse_spec(token)
            except ValueError as exc:
                raise self._fail(entry.line, str(exc)) from exc
            label = spec_label(spec)  # names the output files, so it must be unique
            if label in specs:
                raise self._fail(entry.line, f"risk.specs: {token!r} has the label {label!r} of an earlier spec")
            specs[label] = spec
        if not specs:
            raise self._fail(entry.line, "risk.specs must list at least one spec")
        return list(specs.values())

    def grid_geometry(self):
        self._require_section("grid")
        xmin = self._float("grid", "xmin")
        xmax = self._float("grid", "xmax")
        ymin = self._float("grid", "ymin")
        ymax = self._float("grid", "ymax")
        if xmax <= xmin or ymax <= ymin:
            raise self._fail(None, "grid bounds must satisfy xmin < xmax and ymin < ymax")
        nx = self._int("grid", "nx", minimum=2)
        ny = self._int("grid", "ny", minimum=2)
        source = self._pair("grid", "source")
        return (xmin, xmax, ymin, ymax), (nx, ny), source

    def levels(self) -> list[float]:
        return self._float_list("grid", "levels", default="")

    def audit_families(self, c_min: float, c_max: float, rho: float):
        """CVaR and CPT families for the audits; the CPT family can add
        the analytic extremes lambda = rho/c_min and gamma = log(rho)/
        log(c_max) when include_extremes is set."""
        cvar_family = self._audit_list("cvar_q", "0.0, 0.001, 0.1, 0.4, 0.8, 0.95, 0.999", CVaR)
        alpha = self._float("audit", "cpt_alpha", default="0.74", positive=True)
        beta = self._float("audit", "cpt_beta", default="1.0", positive=True)
        # CPT itself checks each gamma and lambda
        gammas = self._audit_list(
            "cpt_gammas", "0.785, 0.79, 0.8, 0.85, 0.9, 1.0", lambda g: CPT(alpha, beta, g, 1.0).gamma
        )
        lams = self._audit_list(
            "cpt_lambdas", "1.5, 2.0, 2.5, 3.0, 3.5", lambda l: CPT(alpha, beta, 1.0, l).lam
        )
        cpt_family = [CPT(alpha, beta, g, l) for g in gammas for l in lams]
        if self._bool("audit", "include_extremes", default="true"):
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
        raise self._fail(self._entry("audit", empty).line, f"audit.{empty} is empty and leaves its family empty")

    def obstacles(self, agent_start, agent_goal, gain) -> tuple[ObstacleModel, ...]:
        names = sorted(
            (name for name in self._sections if _OBSTACLE_RE.match(name)),
            key=lambda n: int(_OBSTACLE_RE.match(n).group(1)),
        )
        obstacles = []
        for name in names:
            start = self._pair(name, "start")
            goal = self._pair(name, "goal")
            entry = self._entry(name, "speed", default="auto")
            if entry.value.strip().lower() == "auto":
                speed = default_obstacle_speed(start, goal, agent_start, agent_goal, gain)
            else:
                speed = self._float(name, "speed", minimum=0.0)
            obstacles.append(ObstacleModel(start, goal, speed))
        return tuple(obstacles)

    def scenario(self, spec: RiskSpec) -> Scenario:
        self._require_section("agent")
        model = self._require("agent", "model")
        start = self._pair("agent", "start")
        goal = self._pair("agent", "goal")
        gain = self._pair("agent", "gain")
        kind = model.value.strip().lower()
        if kind == "unicycle":
            entry = self._entry("agent", "heading", default="auto")
            if entry.value.strip().lower() == "auto":
                d = goal - start
                heading = math.atan2(d[1], d[0])
            else:
                heading = self._float("agent", "heading")
            agent = Unicycle(
                start, heading, self._float("agent", "offset_l", default="0.2", positive=True)
            )
        elif kind == "single_integrator":
            agent = SingleIntegrator(start)
        else:
            raise self._fail(model.line, f"agent.model must be unicycle or single_integrator, got {model.value!r}")
        try:
            return Scenario(
                agent=agent,
                goal=goal,
                nominal_gain=gain,
                obstacles=self.obstacles(start, goal, gain),
                field=self.field_params(),
                risk=spec,
                barrier=self.barrier_config(),
                dt=self._float("sim", "dt", default="0.02", positive=True),
                t_max=self._float("sim", "t_max", default="60.0", positive=True),
                goal_tol=self._float("sim", "goal_tol", default="0.1", positive=True),
            )
        except ValueError as exc:
            raise self._fail(None, f"invalid scenario: {exc}") from exc

    def feasibility_settings(self) -> dict:
        return {
            "n_states": self._int("feasibility", "n_states", default="20", minimum=1),
            "n_samples": self._int("feasibility", "n_samples", default="400", minimum=1),
            "u_max": self._float("feasibility", "u_max", default="5.0", positive=True),
        }


def _split_spec_list(text: str) -> list[str]:
    """Split a comma-separated spec list, keeping parenthesized args intact."""
    tokens = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            tokens.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        tokens.append(tail)
    return [t for t in tokens if t]


def load_config(path) -> Config:
    """Parse and validate a config file, rejecting unknown keys."""
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(path, None, f"cannot read config: {exc}") from exc

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        header = _SECTION_RE.match(line)
        if header:
            name = header.group(1).strip().lower()
            if not (name in _SCHEMA or _OBSTACLE_RE.match(name)):
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
        allowed = _OBSTACLE_KEYS if _OBSTACLE_RE.match(current) else _SCHEMA[current]
        if key not in allowed:
            raise ConfigError(path, lineno, f"unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(path, lineno, f"duplicate key {key!r} in section [{current}]")
        if not value:
            raise ConfigError(path, lineno, f"empty value for {current}.{key}")
        sections[current][key] = _Entry(value, lineno)

    return Config(path, sections)
