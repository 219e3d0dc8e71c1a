"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: it reads a shipped
config from ``configs/``, draws variants with a ``random.Random`` seeded
from the workload name and the seed, and renders INI text. Nothing here
imports ``riskcbf``; safe-start and path-crossing rules are plain
geometry plus an upper bound on perceived risk written out below, so
every commit of the program receives byte-identical inputs. A layout is
only ever re-drawn when it breaks a geometric rule, never because of
how it simulates.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# Iterations per pass, shipped config included. Sized so one untraced
# pass takes about 12 s on the 2-core reference machine, so a 55 s run
# repeats every input four or five times.
PASS_LENGTH = {"field_maps": 5, "sim_crowd": 20}

SHIPPED = {
    "field_maps": "configs/field_default.cfg",
    "sim_crowd": "configs/multi_obstacle.cfg",
}

# CLI commands of one iteration, in order.
COMMANDS = {
    "field_maps": ("field", "audit"),
    "sim_crowd": ("simulate", "feasibility"),
}

CROWD_SPECS = "er, cvar(0.1), cpt(0.74, 1.0, 0.88, 2.25)"
# Obstacle counts of the sim_crowd variants, cycled so every seed gets
# the same mix.
CROWD_COUNTS = (2, 3, 4, 5)


def parse_ini(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """Ordered sections of an INI text; comments and blank lines dropped."""
    sections: list[tuple[str, list[tuple[str, str]]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), []))
            continue
        key, _, value = line.partition("=")
        sections[-1][1].append((key.strip(), value.strip()))
    return sections


def render_ini(sections, header: str) -> str:
    lines = [f"# {header}"]
    for name, entries in sections:
        lines.append("")
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries)
    return "\n".join(lines) + "\n"


def get_value(sections, section: str, key: str) -> str:
    for name, entries in sections:
        if name == section:
            for k, v in entries:
                if k == key:
                    return v
    raise KeyError(f"[{section}] {key}")


def _set(sections, section: str, key: str, value: str) -> None:
    for name, entries in sections:
        if name == section:
            for idx, (k, _) in enumerate(entries):
                if k == key:
                    entries[idx] = (key, value)
                    return
            entries.append((key, value))
            return
    sections.append((section, [(key, value)]))


def _num(x: float) -> str:
    return f"{x:.6g}"


def parse_pair(text: str) -> tuple[float, float]:
    a, b = (float(t) for t in text.split(","))
    return a, b


def split_specs(text: str) -> list[str]:
    out, depth, cur = [], 0, ""
    for ch in text:
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            out.append(cur.strip())
            cur = ""
        else:
            cur += ch
    out.append(cur.strip())
    return [s for s in out if s]


def risk_upper_bound(spec: str, mu: float, sigma: float) -> float:
    """Upper bound on any model's perceived risk of a truncated Gaussian
    cost with mean mu and deviation sigma (support mu +- 3 sigma).

    ER is mu. CVaR never exceeds mu + 3.4 sigma under either closed-form
    convention for q >= 0.001 (the shipped floor). CPT is lam * sum_i
    pi_i * c_i^gamma with decision weights summing to one, so it is at
    most lam * max(c_max, 1)^gamma.
    """
    kind = spec.split("(")[0].strip().lower()
    if kind == "er":
        return mu
    if kind == "cvar":
        return mu + 3.4 * sigma
    args = [float(t) for t in spec[spec.index("(") + 1 : spec.rindex(")")].split(",")]
    gamma, lam = args[2], args[3]
    return lam * max(mu + 3.0 * sigma, 1.0) ** gamma


def safe_clearance(sections, specs: list[str]) -> float:
    """Distance beyond which every spec's perceived risk is below 0.9 rho,
    from the [field] constants and rho = auto (the mean cost at r_bar)."""
    k1 = float(get_value(sections, "field", "k1"))
    k2 = float(get_value(sections, "field", "k2"))
    r_bar = float(get_value(sections, "field", "r_bar"))
    rho = k1 * math.exp(-k2 * r_bar * r_bar)
    r = 0.0
    while r < 1e3:
        mu = k1 * math.exp(-k2 * r * r)
        sigma = rho / (2.0 * math.pi) * math.exp(-0.5 * r * r)
        if all(risk_upper_bound(s, mu, sigma) < 0.9 * rho for s in specs):
            # the bound decreases in r, so the first clear radius holds beyond
            return r
        r += 0.05
    raise ValueError("no safe clearance below 1000 units")


def crossing_path(rng: random.Random, a, b, clearance: float):
    """An obstacle path that crosses the agent's nominal segment a->b in
    its middle part. It starts at least ``clearance`` from the agent's
    start, so the run starts perceived safe, and ends at least
    ``clearance`` from the agent's goal, so the goal stays reachable."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    heading = math.atan2(uy, ux)
    while True:
        s = rng.uniform(0.2, 0.8)
        cx, cy = a[0] + s * ux, a[1] + s * uy
        theta = heading + rng.choice((-1.0, 1.0)) * rng.uniform(math.radians(30), math.radians(150))
        dx, dy = math.cos(theta), math.sin(theta)
        d0 = rng.uniform(0.5, 2.0) * clearance
        d1 = rng.uniform(0.5, 2.0) * clearance
        start = (round(cx - d0 * dx, 3), round(cy - d0 * dy, 3))
        goal = (round(cx + d1 * dx, 3), round(cy + d1 * dy, 3))
        if math.dist(start, a) >= clearance and math.dist(goal, b) >= clearance:
            return start, goal


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], ascending."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def _field_draws(rng: random.Random, sections, n: int) -> list[tuple[tuple[float, float], float]]:
    """Source and r_bar of each of n variants, as a Latin hypercube: each
    variant takes one stratum of each range, paired at random, so every
    pass spans the ranges evenly and does similar level-set work in all."""
    xmin, xmax = float(get_value(sections, "grid", "xmin")), float(get_value(sections, "grid", "xmax"))
    ymin, ymax = float(get_value(sections, "grid", "ymin")), float(get_value(sections, "grid", "ymax"))
    margin_x, margin_y = 0.15 * (xmax - xmin), 0.15 * (ymax - ymin)
    columns = [
        strata(rng, n, xmin + margin_x, xmax - margin_x),
        strata(rng, n, ymin + margin_y, ymax - margin_y),
        # k2 stays at 0.01, the value of every shipped config; r_bar spans
        # the shipped 0.5..2.5
        strata(rng, n, 0.5, 2.5),
    ]
    for column in columns:
        rng.shuffle(column)
    return [((x, y), r_bar) for x, y, r_bar in zip(*columns)]


def _field_variant(rng: random.Random, sections, source: tuple[float, float], r_bar: float) -> None:
    _set(sections, "grid", "source", f"{_num(source[0])}, {_num(source[1])}")
    _set(sections, "field", "r_bar", _num(r_bar))

    specs = split_specs(get_value(sections, "risk", "specs"))
    n_cvar = sum(s.startswith("cvar") for s in specs)
    n_cpt = sum(s.startswith("cpt") for s in specs)
    # One draw from each of n equal strata, so every variant spans the
    # shipped ranges evenly. CPT gamma and lambda are paired in ascending
    # order: a CPT spec's peak risk grows with both, so the number of specs
    # whose field reaches rho, and with it the level-set work, varies little
    # from seed to seed (random pairing let it vary by a third).
    qs = [round(q, 3) for q in strata(rng, n_cvar, 0.001, 0.999)]
    gammas = [round(g, 3) for g in strata(rng, n_cpt, 0.45, 0.95)]
    lams = [round(math.exp(x), 2) for x in strata(rng, n_cpt, 0.0, math.log(100.0))]
    drawn = ["er", *(f"cvar({q:g})" for q in qs), *(f"cpt(0.74, 1.0, {g:g}, {lam:g})" for g, lam in zip(gammas, lams))]
    _set(sections, "risk", "specs", ", ".join(drawn))

    def draw_list(key, lo, hi, fixed=()):
        n = len(get_value(sections, "audit", key).split(",")) - len(fixed)
        values: set[float] = set()
        while len(values) < n:
            values.add(round(rng.uniform(lo, hi), 4))
        _set(sections, "audit", key, ", ".join(f"{v:g}" for v in (*fixed, *sorted(values))))

    draw_list("cvar_q", 0.001, 0.999, fixed=(0.0,))
    draw_list("cpt_gammas", 0.785, 1.0)
    draw_list("cpt_lambdas", 1.5, 3.5)


def _agent_segment(sections):
    """Agent start and goal, and the clearance the obstacle ends keep."""
    a = parse_pair(get_value(sections, "agent", "start"))
    b = parse_pair(get_value(sections, "agent", "goal"))
    return a, b, safe_clearance(sections, split_specs(get_value(sections, "risk", "specs")))


def _crowd_variant(rng: random.Random, sections, n_obstacles: int) -> None:
    _set(sections, "risk", "specs", CROWD_SPECS)
    a, b, clearance = _agent_segment(sections)
    sections[:] = [s for s in sections if not s[0].startswith("obstacle.")]
    for k in range(1, n_obstacles + 1):
        start, goal = crossing_path(rng, a, b, clearance)
        sections.append(
            (
                f"obstacle.{k}",
                [("start", f"{start[0]:g}, {start[1]:g}"), ("goal", f"{goal[0]:g}, {goal[1]:g}"), ("speed", "auto")],
            )
        )


def generate(workload: str, seed: int, root: Path) -> list[tuple[str, str | None]]:
    """The iteration inputs of one pass: ``(name, text)`` pairs, where the
    first is the shipped config (text None: it is used in place) and the
    rest are seeded variants of it."""
    shipped_text = (root / SHIPPED[workload]).read_text(encoding="utf-8")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    out: list[tuple[str, str | None]] = [("shipped", None)]
    if workload == "field_maps":
        draws = _field_draws(rng, parse_ini(shipped_text), PASS_LENGTH[workload] - 1)
    for i in range(1, PASS_LENGTH[workload]):
        sections = parse_ini(shipped_text)
        if workload == "field_maps":
            _field_variant(rng, sections, *draws[i - 1])
        else:
            _crowd_variant(rng, sections, CROWD_COUNTS[(i - 1) % len(CROWD_COUNTS)])
        header = f"{workload} variant {i} of {SHIPPED[workload]}, seed {seed}"
        out.append((f"variant{i:02d}", render_ini(sections, header)))
    return out
