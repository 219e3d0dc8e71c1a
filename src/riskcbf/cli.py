"""Command-line front end: field rasterization, audits, simulation and
feasibility diagnostics, all driven by a single config file.

Exit codes: 0 on success, 2 on config and usage errors, 3 on runtime
errors. Outputs are deterministic for a given config (the probe sampling
is seeded via --seed).

``field`` deals the two cost grids and its specs round-robin over the
usable CPUs (``os.sched_getaffinity``; one where the platform lacks
it). It runs the first share itself and forks one child per other
share with the POSIX ``os.fork``. Every child is joined before the
command returns, also on an error, and the bytes are those of a write
in one process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from ._format import write_json
from .barrier import barrier_constraint, feasibility_margin
from .config import Config, ConfigError, load_config
from .field import (
    FieldGrid,
    discretized_cost_range,
    inclusiveness_audit,
    level_set,
    moment_grids,
    polylines_to_json,
    rasterize,
    safe_mask,
    versatility_audit,
)
from .risk import ExpectedRisk, spec_label
from .sim import SimLog, comparison_to_csv, obstacle_motion, simulate


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


def _save(write, path: Path) -> None:
    """write(path); a failure is raised as RuntimeError naming the file."""
    try:
        write(path)
    except Exception as exc:
        raise RuntimeError(f"writing {path.name}: {exc}") from exc


def _write(output: FieldGrid | SimLog, out: Path, stem: str, fmt: str) -> None:
    for suffix in ("csv", "json"):
        if fmt in (suffix, "both"):
            _save(getattr(output, f"to_{suffix}"), out / f"{stem}.{suffix}")


def _run_shares(run, shares) -> None:
    """Call run(share) on every share: the first in this process, each
    other in a child made with os.fork. Every child is joined before this
    returns, also on an error; then a child that failed raises
    RuntimeError with its message. A child ends with os._exit, so it
    flushes none of the parent's buffers and runs none of its exit handlers."""
    children = []  # (pid, read end of the pipe for its error)
    try:
        for share in shares[1:]:
            fd, child_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(child_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(fd)
                    with open(child_fd, "wb") as pipe:
                        try:
                            run(share)
                            code = 0
                        except Exception as exc:  # noqa: BLE001 - reported through the pipe
                            pipe.write(str(exc).encode(errors="replace"))
                finally:
                    # also on an interrupt: the child never returns into the caller
                    os._exit(code)
            os.close(child_fd)
            children.append((pid, fd))
        run(shares[0])
    finally:
        reports = []
        for pid, fd in children:
            # read to the end first: a child blocked on a full pipe never exits
            with open(fd, "rb") as pipe:
                message = pipe.read().decode(errors="replace")
            reports.append((os.waitpid(pid, 0)[1], message))
    failures = [message or f"exited with status {os.waitstatus_to_exitcode(status)}"
                for status, message in reports if status]
    if failures:
        raise RuntimeError("; ".join(failures))


def cmd_field(cfg: Config, out: Path, selector, fmt: str) -> int:
    params = cfg.field_params()
    barrier = cfg.barrier_config(params)
    bounds, resolution, source = cfg.grid_geometry()
    specs = _select_specs(cfg.specs(), selector)
    labels = [spec_label(spec) for spec in specs]

    # computed before any fork, so every share inherits them
    c_mu, c_sigma = moment_grids(params, source, bounds, resolution)

    def run(share) -> None:
        for task in share:
            if isinstance(task, str):  # c_mu or c_sigma
                _write(c_mu if task == "c_mu" else c_sigma, out, task, fmt)
                continue
            grid = rasterize(specs[task], params, source, bounds, resolution)
            label = labels[task]
            _write(grid, out, f"risk_{label}", fmt)
            mask = safe_mask(grid, barrier.rho)
            _write(dataclasses.replace(grid, values=mask.astype(float)), out, f"safe_{label}", fmt)
            polylines = level_set(specs[task], params, source, bounds, resolution, barrier.rho)
            _save(lambda path: polylines_to_json(polylines, path), out / f"levelset_{label}.json")

    # the tasks dealt round-robin to the usable CPUs: one share, and no
    # fork, without sched_getaffinity (macOS, Windows). A share keeps its
    # specs in order, so a lam group stays consecutive in each share.
    tasks = ["c_mu", "c_sigma", *range(len(specs))]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    _run_shares(run, [tasks[i::cpus] for i in range(min(cpus, len(tasks)))])
    for label in labels:
        print(f"field: wrote grids for {label}")
    return 0


def cmd_audit(cfg: Config, out: Path) -> int:
    params = cfg.field_params()
    barrier = cfg.barrier_config(params)
    bounds, resolution, source = cfg.grid_geometry()
    c_min, c_max = discretized_cost_range(params, source, bounds, resolution)
    cvar_family, cpt_family = cfg.audit_families(c_min, c_max, barrier.rho)

    # one mask per distinct spec, shared by every family that holds it
    families = [ExpectedRisk()], cvar_family, cpt_family
    specs = list(dict.fromkeys(spec for family in families for spec in family))
    masks = {spec: safe_mask(rasterize(spec, params, source, bounds, resolution), barrier.rho) for spec in specs}
    er, cvar, cpt = ({spec: masks[spec] for spec in family} for family in families)

    mu = moment_grids(params, source, bounds, resolution)[0].values
    levels = cfg.levels() or list(np.linspace(float(mu.min()), float(mu.max()), 8))
    scope = (
        f"fixed field k1={params.k1:g} k2={params.k2:g} r_bar={params.r_bar:g} "
        f"m={params.m}, source=({source[0]:g}, {source[1]:g}), bounds={bounds}, resolution={resolution}"
    )

    def entry(report) -> dict:
        return {**dataclasses.asdict(report), "rho": barrier.rho, "scope": scope}

    report = {
        "rho": barrier.rho,
        "cost_range": [c_min, c_max],
        "inclusiveness": {
            "cpt_vs_cvar": entry(inclusiveness_audit(cpt, cvar)),
            "cpt_vs_er": entry(inclusiveness_audit(cpt, er)),
            "cvar_vs_er": entry(inclusiveness_audit(cvar, er)),
        },
        "versatility": {name: entry(versatility_audit(family, mu, levels))
                        for name, family in (("er", er), ("cvar", cvar), ("cpt", cpt))},
    }
    path = out / "audit.json"
    write_json(path, report)
    for pair, rep in report["inclusiveness"].items():
        print(f"audit: {pair}: {rep['verdict']}")
    print(f"audit: report written to {path}")
    return 0


def cmd_simulate(cfg: Config, out: Path, selector, fmt: str) -> int:
    logs = simulate(cfg.scenario(), _select_specs(cfg.specs(), selector))
    for log in logs:
        _write(log, out, f"sim_{log.label}", fmt)
        flag = "" if log.feasibility_violations == 0 else f" [feasibility violations: {log.feasibility_violations}]"
        print(
            f"simulate: {log.label}: reached={log.reached_goal} "
            f"min_h={log.min_h:.4g} deviation={log.total_deviation:.4g}{flag}"
        )
    if len(logs) > 1:
        comparison_to_csv(logs, out / "summary.csv")
        print(f"simulate: summary written to {out / 'summary.csv'}")
    return 0


def cmd_feasibility(cfg: Config, out: Path, selector, seed: int) -> int:
    specs = tuple(_select_specs(cfg.specs(), selector))
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

    # the specs run as lanes: (S, N) rows of every spec at every state
    h, a, b = barrier_constraint(specs, params, barrier, np.broadcast_to(points, (len(specs), *points.shape)), ys, f_ys)
    lhs, eta, feasible, angle_defined = feasibility_margin(h, a, f_ys - u_nom, barrier.eta1_gain)
    probes = a @ u_samples.T >= b[..., None]

    labels = [spec_label(spec) for spec in specs]
    summary, margins = {}, []
    for label, lhs_s, eta_s, h_s, feasible_s, defined_s in zip(labels, lhs, eta, h, feasible, angle_defined):
        margins.append([
            {
                "lhs": lhs_i,
                "rhs": None if math.isinf(eta_i) else -eta_i,
                "eta": None if math.isinf(eta_i) else eta_i,
                "h": h_i,
                "feasible": feasible_i,
                "angle_defined": defined_i,
            }
            for lhs_i, eta_i, h_i, feasible_i, defined_i in zip(
                lhs_s.tolist(), eta_s.tolist(), h_s.tolist(), feasible_s.tolist(), defined_s.tolist()
            )
        ])
        etas = eta_s[np.isfinite(eta_s)]
        summary[label] = {
            "feasible_fraction": float(np.mean(feasible_s)) if feasible_s.size else None,
            "mean_eta": float(np.mean(etas)) if etas.size else None,
            "min_eta": float(np.min(etas)) if etas.size else None,
        }

    counts = probes.sum(axis=2).tolist()
    er_feasible = probes[specs.index(ExpectedRisk())] if ExpectedRisk() in specs else None
    not_in = [] if er_feasible is None else (er_feasible & ~probes).sum(axis=2).tolist()
    states = [
        {
            "t": t,
            "point": point,
            "obstacle": y,
            "margins": {label: rows[i] for label, rows in zip(labels, margins)},
            "probe_counts": {label: rows[i] for label, rows in zip(labels, counts)},
            "er_feasible_not_in": {label: rows[i] for label, rows in zip(labels, not_in)},
        }
        for i, (t, point, y) in enumerate(zip(sampled["t"].tolist(), points.tolist(), ys.tolist()))
    ]

    report = {"seed": seed, "n_samples": settings["n_samples"], "u_max": settings["u_max"],
              "states": states, "summary": summary}
    path = out / "feasibility.json"
    write_json(path, report)
    for label, row in summary.items():
        fraction = "n/a" if row["feasible_fraction"] is None else f"{row['feasible_fraction']:.3f}"
        print(f"feasibility: {label}: nominal-feasible fraction {fraction}")
    print(f"feasibility: report written to {path}")
    return 0


_OPTIONS = {
    "--spec": {"dest": "selector", "metavar": "SPEC", "help": "spec selector: label substring or 1-based index"},
    "--seed": {"type": int, "default": 0, "help": "seed for sampled probes"},
    "--format": {"dest": "fmt", "choices": ("csv", "json", "both"), "default": "csv"},
}

# each command, its help and the options it reads
_COMMANDS = {
    "field": (cmd_field, "rasterize cost and perceived-risk grids, masks and level sets", ("--spec", "--format")),
    "audit": (cmd_audit, "run inclusiveness and versatility audits", ()),
    "simulate": (cmd_simulate, "run closed-loop scenarios per risk spec", ("--spec", "--format")),
    "feasibility": (cmd_feasibility, "feasibility margins and control-set probes", ("--spec", "--seed")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on the first
    call, so that each later main call only parses."""
    parser = argparse.ArgumentParser(
        prog="riskcbf",
        description="Perceived-risk fields, safety audits and safe-control simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(parser=p)
        p.add_argument("--config", required=True, help="path to the scenario config file")
        p.add_argument("--out", default="out", help="output directory (created if missing)")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    options, unknown = build_parser().parse_known_args(argv)
    options = vars(options)
    parser = options.pop("parser")
    if unknown:
        # the subcommand's usage lists the options it does take
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    command, config, out = options.pop("command"), options.pop("config"), Path(options.pop("out"))
    created = False
    try:
        cfg = load_config(config)
        try:
            out.mkdir(parents=True)
            created = True  # only an --out this run made is removed on a failure
        except FileExistsError:
            if not out.is_dir():
                raise
        code = _COMMANDS[command][0](cfg, out, **options)
        created = False  # a command that succeeds keeps its --out
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if created:  # field has joined its children
            shutil.rmtree(out)


if __name__ == "__main__":
    sys.exit(main())
