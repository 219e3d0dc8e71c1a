"""Output checks for one CLI invocation, by the README schemas.

Each ``check_<command>`` reads what the command wrote into its output
directory and returns a :class:`Checked`: the problems found (empty when
the outputs are right), the files that make up the output digest, and
counts the metrics need. Nothing here imports ``riskcbf``; the checks
hold for any version of the program that keeps the documented formats.
Files the README does not name (such as a future run manifest) are
neither checked nor digested.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import get_value, parse_ini, split_specs

GRID_HEADER = "xmin,xmax,ymin,ymax,nx,ny"
SIM_TAIL = ("unom_x", "unom_y", "u_x", "u_y", "delta_x", "delta_y", "h_min", "active_obstacle", "feasible")
SUMMARY_COLUMNS = "label,reached_goal,goal_time,min_h,total_deviation,max_delta,feasibility_violations,steps"
AUDIT_PAIR_KEYS = {
    "family1", "family2", "rho", "safe_subset", "risky_subset", "safe_witnesses",
    "risky_witnesses", "safe_violations", "risky_violations", "verdict", "scope",
}
AUDIT_FAMILY_KEYS = {"levels", "achieved", "achieved_by", "runs", "interval", "rho", "scope"}
VERDICTS = {"strictly more inclusive", "more inclusive", "equivalent", "incomparable"}
MARGIN_KEYS = {"lhs", "rhs", "eta", "h", "feasible"}


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    grid_cells: int = 0
    sim_runs: int = 0
    sim_steps: int = 0
    unsafe_runs: int = 0


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_grid(path: Path, geometry) -> np.ndarray:
    """Parse a grid CSV and check its header against the config geometry."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(len(lines) >= 2 and lines[0] == GRID_HEADER, f"{path.name}: bad header")
    meta = lines[1].split(",")
    _require(len(meta) == 6, f"{path.name}: bad geometry line")
    bounds, (nx, ny) = geometry
    _require(
        [float(v) for v in meta[:4]] == list(bounds) and (int(meta[4]), int(meta[5])) == (nx, ny),
        f"{path.name}: geometry {meta} does not match the config",
    )
    rows = lines[2:]
    _require(len(rows) == nx, f"{path.name}: {len(rows)} rows, expected {nx}")
    _require(all(r.count(",") == ny - 1 for r in rows), f"{path.name}: a row does not hold {ny} values")
    values = np.array(",".join(rows).split(","), dtype=float).reshape(nx, ny)
    _require(bool(np.isfinite(values).all()), f"{path.name}: non-finite value")
    return values


def _geometry(sections):
    bounds = tuple(float(get_value(sections, "grid", k)) for k in ("xmin", "xmax", "ymin", "ymax"))
    res = (int(get_value(sections, "grid", "nx")), int(get_value(sections, "grid", "ny")))
    return bounds, res


def _specs(sections) -> list[str]:
    return split_specs(get_value(sections, "risk", "specs"))


def check_field(out: Path, sections, result: Checked) -> None:
    geometry = _geometry(sections)
    (xmin, xmax, ymin, ymax), (nx, ny) = geometry
    n_specs = len(_specs(sections))
    stems = sorted(p.name[len("risk_"):-len(".csv")] for p in out.glob("risk_*.csv"))
    _require(len(stems) == n_specs, f"field: {len(stems)} risk grids for {n_specs} specs")
    _require("er" in stems, "field: no risk_er.csv")
    c_mu = read_grid(out / "c_mu.csv", geometry)
    read_grid(out / "c_sigma.csv", geometry)
    result.files += [out / "c_mu.csv", out / "c_sigma.csv"]
    for stem in stems:
        risk = read_grid(out / f"risk_{stem}.csv", geometry)
        if stem == "er":
            _require(bool(np.array_equal(risk, c_mu)), "field: risk_er differs from c_mu")
        safe = read_grid(out / f"safe_{stem}.csv", geometry)
        _require(bool(np.isin(safe, (0.0, 1.0)).all()), f"field: safe_{stem} is not 0/1")
        level = out / f"levelset_{stem}.json"
        polylines = json.loads(level.read_text(encoding="utf-8"))
        _require(isinstance(polylines, list), f"{level.name}: not a list")
        for poly in polylines:
            pts = np.asarray(poly, dtype=float)
            _require(pts.ndim == 2 and pts.shape[1] == 2, f"{level.name}: polyline is not a list of [x, y]")
            inside = (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax) & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
            _require(bool(inside.all()), f"{level.name}: vertex outside the bounds")
        result.files += [out / f"risk_{stem}.csv", out / f"safe_{stem}.csv", level]
    result.grid_cells += n_specs * nx * ny


def check_audit(out: Path, sections, result: Checked) -> None:
    path = out / "audit.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    _require({"rho", "cost_range", "inclusiveness", "versatility"} <= set(report), "audit.json: missing keys")
    _require(set(report["inclusiveness"]) == {"cpt_vs_cvar", "cpt_vs_er", "cvar_vs_er"}, "audit.json: pairs")
    for name, pair in report["inclusiveness"].items():
        _require(AUDIT_PAIR_KEYS <= set(pair), f"audit.json: {name} lacks keys")
        _require(pair["verdict"] in VERDICTS, f"audit.json: {name} verdict {pair['verdict']!r}")
    _require(set(report["versatility"]) == {"er", "cvar", "cpt"}, "audit.json: families")
    for name, fam in report["versatility"].items():
        _require(AUDIT_FAMILY_KEYS <= set(fam), f"audit.json: {name} lacks keys")
        _require(len(fam["levels"]) == len(fam["achieved"]), f"audit.json: {name} level count")
    result.files.append(path)


def _sim_columns(n_obs: int) -> list[str]:
    cols = ["t", "x", "y", "heading", "px", "py"]
    for k in range(n_obs):
        cols += [f"obs{k}_x", f"obs{k}_y"]
    return cols + list(SIM_TAIL)


def _in_order(expected: list[str], header: list[str]) -> bool:
    """Every expected column is present, in the documented order."""
    pos = [header.index(c) if c in header else -1 for c in expected]
    return -1 not in pos and pos == sorted(pos)


def check_simulate(out: Path, sections, result: Checked) -> None:
    n_specs = len(_specs(sections))
    n_obs = sum(name.startswith("obstacle.") for name, _ in sections)
    logs = sorted(out.glob("sim_*.csv"))
    _require(len(logs) == n_specs, f"simulate: {len(logs)} logs for {n_specs} specs")
    expected = _sim_columns(n_obs)
    for log in logs:
        lines = log.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        _require(_in_order(expected, header), f"{log.name}: columns {header}")
        _require(len(lines) > 1, f"{log.name}: no steps")
        h_col = header.index("h_min")
        h_min = min(float(line.split(",")[h_col]) for line in lines[1:])
        _require(not math.isnan(h_min), f"{log.name}: h_min is NaN")
        result.sim_runs += 1
        result.sim_steps += len(lines) - 1
        result.unsafe_runs += h_min < 0.0
        result.files.append(log)
    if n_specs > 1:
        summary = out / "summary.csv"
        lines = summary.read_text(encoding="utf-8").splitlines()
        _require(lines[0] == SUMMARY_COLUMNS, f"summary.csv: header {lines[0]!r}")
        labels = sorted(line.split(",")[0] for line in lines[1:])
        _require(len(labels) == n_specs, f"summary.csv: {len(labels)} rows for {n_specs} specs")
        _require(labels == [p.stem[len("sim_"):] for p in logs], "summary.csv: labels differ from the logs")
        result.files.append(summary)


def check_feasibility(out: Path, sections, result: Checked) -> None:
    path = out / "feasibility.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    _require({"seed", "n_samples", "u_max", "states", "summary"} <= set(report), "feasibility.json: missing keys")
    n_specs = len(_specs(sections))
    _require(len(report["summary"]) == n_specs, "feasibility.json: summary is not one entry per spec")
    _require(len(report["states"]) > 0, "feasibility.json: no states")
    for state in report["states"]:
        _require(len(state["margins"]) == n_specs, "feasibility.json: margins per state")
        for margin in state["margins"].values():
            _require(MARGIN_KEYS <= set(margin), "feasibility.json: margin lacks keys")
    result.files.append(path)


CHECKS = {
    "field": check_field,
    "audit": check_audit,
    "simulate": check_simulate,
    "feasibility": check_feasibility,
}


def check(command: str, out: Path, config_text: str) -> Checked:
    """Check the outputs of one command; parse errors count as problems."""
    result = Checked()
    try:
        CHECKS[command](out, parse_ini(config_text), result)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        result.problems.append(f"{command}: {type(exc).__name__}: {exc}")
    return result


def digest(files, root: Path) -> str:
    """SHA-256 over the names and bytes of the given files."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
