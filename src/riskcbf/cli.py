"""Command-line front end: field rasterization, audits, simulation and
feasibility diagnostics, all driven by a single config file.

Exit codes: 0 on success, 2 on config errors, 3 on runtime errors.
Outputs are deterministic for a given config (the probe sampling is
seeded via --seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .barrier import barrier_constraint, feasibility_margin
from .config import Config, ConfigError, load_config
from .field import (
    FieldGrid,
    cost_mean,
    cost_sigma,
    discretized_cost_range,
    inclusiveness_audit,
    level_set,
    polylines_to_json,
    rasterize,
    safe_mask,
    sample_grid,
    versatility_audit,
)
from .risk import ExpectedRisk, spec_label
from .sim import comparison_to_csv, obstacle_motion, simulate


def _select_specs(specs, selector: str | None):
    if selector is None or selector == "all":
        return specs
    if selector.isdigit():
        idx = int(selector)
        if not 1 <= idx <= len(specs):
            raise ConfigError("<cli>", None, f"--spec index {idx} out of range 1..{len(specs)}")
        return [specs[idx - 1]]
    chosen = [s for s in specs if selector in spec_label(s)]
    if not chosen:
        raise ConfigError("<cli>", None, f"--spec {selector!r} matches no configured spec")
    return chosen


def _write_grid(grid: FieldGrid, out: Path, stem: str, fmt: str) -> None:
    if fmt in ("csv", "both"):
        grid.to_csv(out / f"{stem}.csv")
    if fmt in ("json", "both"):
        grid.to_json(out / f"{stem}.json")


def cmd_field(cfg: Config, out: Path, selector, fmt: str, seed: int) -> int:
    params = cfg.field_params()
    barrier = cfg.barrier_config(params)
    bounds, resolution, source = cfg.grid_geometry()
    specs = _select_specs(cfg.specs(), selector)

    _write_grid(sample_grid(partial(cost_mean, params), source, bounds, resolution), out, "c_mu", fmt)
    _write_grid(sample_grid(partial(cost_sigma, params), source, bounds, resolution), out, "c_sigma", fmt)
    for spec in specs:
        label = spec_label(spec)
        grid = rasterize(spec, params, source, bounds, resolution)
        _write_grid(grid, out, f"risk_{label}", fmt)
        mask = safe_mask(grid, barrier.rho)
        _write_grid(dataclasses.replace(grid, values=mask.astype(float)), out, f"safe_{label}", fmt)
        polylines_to_json(level_set(grid, barrier.rho), out / f"levelset_{label}.json")
        print(f"field: wrote grids for {label}")
    return 0


def cmd_audit(cfg: Config, out: Path, selector, fmt: str, seed: int) -> int:
    params = cfg.field_params()
    barrier = cfg.barrier_config(params)
    bounds, resolution, source = cfg.grid_geometry()
    c_min, c_max = discretized_cost_range(params, source, bounds, resolution)
    cvar_family, cpt_family = cfg.audit_families(c_min, c_max, barrier.rho)

    def safe_sets(family):
        # one mask per distinct spec; the three families share no spec
        return {
            spec: safe_mask(rasterize(spec, params, source, bounds, resolution), barrier.rho)
            for spec in dict.fromkeys(family)
        }

    er, cvar, cpt = safe_sets([ExpectedRisk()]), safe_sets(cvar_family), safe_sets(cpt_family)

    levels = cfg.levels()
    if not levels:
        mu = sample_grid(partial(cost_mean, params), source, bounds, resolution).values
        levels = list(np.linspace(float(mu.min()), float(mu.max()), 8))

    args = (params, source, bounds, resolution, barrier.rho)
    report = {
        "rho": barrier.rho,
        "cost_range": [c_min, c_max],
        "inclusiveness": {
            "cpt_vs_cvar": dataclasses.asdict(inclusiveness_audit(cpt, cvar, *args)),
            "cpt_vs_er": dataclasses.asdict(inclusiveness_audit(cpt, er, *args)),
            "cvar_vs_er": dataclasses.asdict(inclusiveness_audit(cvar, er, *args)),
        },
        "versatility": {
            "er": dataclasses.asdict(versatility_audit(er, *args, levels)),
            "cvar": dataclasses.asdict(versatility_audit(cvar, *args, levels)),
            "cpt": dataclasses.asdict(versatility_audit(cpt, *args, levels)),
        },
    }
    path = out / "audit.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for pair, rep in report["inclusiveness"].items():
        print(f"audit: {pair}: {rep['verdict']}")
    print(f"audit: report written to {path}")
    return 0


def cmd_simulate(cfg: Config, out: Path, selector, fmt: str, seed: int) -> int:
    logs = simulate(cfg.scenario(), _select_specs(cfg.specs(), selector))
    for log in logs:
        if fmt in ("csv", "both"):
            log.to_csv(out / f"sim_{log.label}.csv")
        if fmt in ("json", "both"):
            log.to_json(out / f"sim_{log.label}.json")
        flag = "" if log.feasibility_violations == 0 else f" [feasibility violations: {log.feasibility_violations}]"
        print(
            f"simulate: {log.label}: reached={log.reached_goal} "
            f"min_h={log.min_h:.4g} deviation={log.total_deviation:.4g}{flag}"
        )
    if len(logs) > 1:
        comparison_to_csv(logs, out / "summary.csv")
        print(f"simulate: summary written to {out / 'summary.csv'}")
    return 0


def cmd_feasibility(cfg: Config, out: Path, selector, fmt: str, seed: int) -> int:
    specs = _select_specs(cfg.specs(), selector)
    settings = cfg.feasibility_settings()
    scenario = cfg.scenario()
    params, barrier = scenario.field, scenario.barrier

    # the agent's nominal path: without obstacles nothing is filtered
    (nominal_log,) = simulate(dataclasses.replace(scenario, obstacles=()), specs[:1])
    stride = max(1, nominal_log.steps // settings["n_states"])
    obstacles = scenario.obstacles
    # K is fixed for a run, so without obstacles no state has one to check
    sampled = nominal_log.records[::stride][: settings["n_states"] if obstacles else 0]
    points, u_nom = sampled["point"], sampled["u_nominal"]
    positions, velocities = obstacle_motion(*scenario.obstacle_paths, sampled["t"][:, None])
    # each state checks the obstacle nearest its point
    dists = np.linalg.norm(positions - points[:, None, :], axis=2)
    nearest = dists.argmin(axis=1) if obstacles else np.zeros(0, dtype=int)
    at = np.arange(len(nearest))
    ys, f_ys = positions[at, nearest], velocities[at, nearest]

    rng = np.random.default_rng(seed)
    u_samples = rng.uniform(-settings["u_max"], settings["u_max"], (settings["n_samples"], 2))

    margins, probes, summary = {}, {}, {}
    for spec in specs:
        label = spec_label(spec)
        h, a, b = barrier_constraint(spec, params, barrier, points, ys, f_ys)
        lhs, eta, feasible, angle_defined = feasibility_margin(h, a, f_ys - u_nom, barrier.eta1_gain)
        margins[label] = [
            {
                "lhs": lhs_i,
                "rhs": None if math.isinf(eta_i) else -eta_i,
                "eta": None if math.isinf(eta_i) else eta_i,
                "h": h_i,
                "feasible": feasible_i,
                "angle_defined": defined_i,
            }
            for lhs_i, eta_i, h_i, feasible_i, defined_i in zip(
                lhs.tolist(), eta.tolist(), h.tolist(), feasible.tolist(), angle_defined.tolist()
            )
        ]
        # one gemv per state: a gemm over all states rounds differently
        probes[label] = np.array([u_samples @ a_i for a_i in a]) >= b[:, None]
        etas = eta[np.isfinite(eta)]
        summary[label] = {
            "feasible_fraction": float(np.mean(feasible)) if feasible.size else None,
            "mean_eta": float(np.mean(etas)) if etas.size else None,
            "min_eta": float(np.min(etas)) if etas.size else None,
        }

    er_feasible = probes.get(spec_label(ExpectedRisk()))
    counts = {label: probe.sum(axis=1).tolist() for label, probe in probes.items()}
    not_in = {} if er_feasible is None else {
        label: (er_feasible & ~probe).sum(axis=1).tolist() for label, probe in probes.items()
    }
    states = [
        {
            "t": t,
            "point": point,
            "obstacle": y,
            "margins": {label: rows[i] for label, rows in margins.items()},
            "probe_counts": {label: rows[i] for label, rows in counts.items()},
            "er_feasible_not_in": {label: rows[i] for label, rows in not_in.items()},
        }
        for i, (t, point, y) in enumerate(zip(sampled["t"].tolist(), points.tolist(), ys.tolist()))
    ]

    report = {
        "seed": seed,
        "n_samples": settings["n_samples"],
        "u_max": settings["u_max"],
        "states": states,
        "summary": summary,
    }
    path = out / "feasibility.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for label, row in summary.items():
        fraction = "n/a" if row["feasible_fraction"] is None else f"{row['feasible_fraction']:.3f}"
        print(f"feasibility: {label}: nominal-feasible fraction {fraction}")
    print(f"feasibility: report written to {path}")
    return 0


_COMMANDS = {
    "field": cmd_field,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
    "feasibility": cmd_feasibility,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcbf",
        description="Perceived-risk fields, safety audits and safe-control simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("field", "rasterize cost and perceived-risk grids, masks and level sets"),
        ("audit", "run inclusiveness and versatility audits"),
        ("simulate", "run closed-loop scenarios per risk spec"),
        ("feasibility", "feasibility margins and control-set probes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the scenario config file")
        p.add_argument("--out", default="out", help="output directory (created if missing)")
        p.add_argument("--spec", default=None, help="spec selector: label substring or 1-based index")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled probes")
        p.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    created = not out.exists()
    try:
        cfg = load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.spec, args.format, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        # a command that fails before writing leaves no empty --out behind
        if created and out.is_dir() and not any(out.iterdir()):
            out.rmdir()


if __name__ == "__main__":
    sys.exit(main())
