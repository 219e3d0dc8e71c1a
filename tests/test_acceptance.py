"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from riskcbf.distributions import DiscreteCost
from riskcbf.field import (
    CostFieldParams,
    discretized_cost_range,
    evaluate,
    inclusiveness_audit,
    rasterize,
    moment_grids,
    safe_mask,
)
from riskcbf.risk import (
    CPT,
    CVaR,
    ExpectedRisk,
    moment_risk,
    risk_value,
)
from riskcbf.barrier import qp_filter
from riskcbf.sim import simulate
from shipped import run_spec, shipped_scenario

PARAMS = CostFieldParams(200.0, 0.01, 0.5)
SOURCE = np.array([10.0, 10.0])
BOUNDS = (0.0, 15.0, 0.0, 15.0)
RES = (150, 150)
RHO_SINGLE = 200.0 * math.exp(-0.01 * 0.25)
RHO_MULTI = 200.0 * math.exp(-0.01 * 6.25)

LAMBDA_SWEEP = [CPT(0.74, 1.0, 0.88, lam) for lam in (1.5, 2.0, 2.5, 3.0, 3.5)]
GAMMA_SWEEP = [CPT(0.74, 1.0, g, 2.25) for g in (0.785, 0.79, 0.8, 0.85, 0.9, 1.0)]
CVAR_SWEEP = [CVaR(q) for q in (0.001, 0.1, 0.4, 0.8, 0.95, 0.999)]
SWEEPS = LAMBDA_SWEEP + GAMMA_SWEEP + CVAR_SWEEP


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_lottery(rng, low=0.0, high=200.0):
    m = int(rng.integers(2, 33))
    return DiscreteCost(np.sort(rng.uniform(low, high, m)), rng.dirichlet(np.ones(m)))


def test_criterion_01_model_coincidence_identities():
    rng = np.random.default_rng(1)
    unit = CPT(1.0, 1.0, 1.0, 1.0)
    lams = (1.0, 2.5, 10.0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dc = random_lottery(rng)
        er = risk_value(ExpectedRisk(), dc)
        worst = max(worst, abs(risk_value(unit, dc) - er), abs(risk_value(CVaR(0.0), dc) - er))
        for lam in lams:
            worst = max(worst, abs(risk_value(CPT(1.0, 1.0, 1.0, lam), dc) - lam * er))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"identities within {worst:.2e} (<=1e-9) over 1000 lotteries in {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_cvar_structure():
    rng = np.random.default_rng(2)
    qs = np.linspace(0.0, 1.0, 26)
    monotone = True
    max_exact = True
    for _ in range(300):
        dc = random_lottery(rng)
        values = [risk_value(CVaR(float(q)), dc) for q in qs]
        monotone &= all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        max_exact &= risk_value(CVaR(1.0), dc) == dc.outcomes[-1]
    report(2, monotone and max_exact, "CVaR nondecreasing in q; CVaR(1) = max outcome exactly")


def test_criterion_03_range_sandwich():
    rng = np.random.default_rng(3)
    qs = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0)
    counterexamples = 0
    for _ in range(200):
        dc = random_lottery(rng, low=1.0001, high=180.0)
        cvar_values = [risk_value(CVaR(q), dc) for q in qs]
        lam = math.ceil(float(dc.outcomes[-1]) / risk_value(ExpectedRisk(), dc)) + 1
        theta_grid = [CPT(1, 1, 1, lam), CPT(1, 1, 0.5, 1), CPT(0.74, 1, 0.88, 2.25)]
        values = [risk_value(th, dc) for th in theta_grid]
        if not (max(values) > max(cvar_values) and min(values) < min(cvar_values)):
            counterexamples += 1
    report(3, counterexamples == 0, f"{counterexamples} range-sandwich counterexamples in 200 lotteries")


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(4)
    worst_partials = 0.0
    for _ in range(100):
        mu = rng.uniform(5.0, 200.0)
        sigma = rng.uniform(0.01, mu / 3.5)
        theta = CPT(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0), rng.uniform(1.0, 4.0))
        step = 1e-5 * max(1.0, abs(mu))
        fd_mu = (
            moment_risk(theta, mu + step, sigma, grad=False)[0] - moment_risk(theta, mu - step, sigma, grad=False)[0]
        ) / (2 * step)
        fd_sig = (
            moment_risk(theta, mu, sigma + step, grad=False)[0] - moment_risk(theta, mu, sigma - step, grad=False)[0]
        ) / (2 * step)
        _, d_mu, d_sigma = moment_risk(theta, mu, sigma)
        worst_partials = max(
            worst_partials,
            abs(d_mu - fd_mu) / max(1e-12, abs(fd_mu)),
            abs(d_sigma - fd_sig) / max(1e-12, abs(fd_sig)),
        )

    worst_field = 0.0
    h = 1e-6
    for spec in (ExpectedRisk(), CVaR(0.2), CPT(0.74, 1.0, 0.88, 2.25)):
        done = 0
        while done < 100:
            angle = rng.uniform(0, 2 * math.pi)
            xi = rng.uniform(1e-6 + 0.05, 9.0) * np.array([math.cos(angle), math.sin(angle)])
            if np.linalg.norm(xi) <= 1e-6:
                continue
            g = evaluate(spec, PARAMS, xi)[1]
            # central differences along both axes in one batch
            steps = h * np.eye(2)
            up, down = (evaluate(spec, PARAMS, xi + sign * steps, grad=False)[0] for sign in (1, -1))
            fd = (up - down) / (2 * h)
            worst_field = max(worst_field, np.linalg.norm(g - fd) / max(1e-12, np.linalg.norm(fd)))
            done += 1
    ok = worst_partials < 1e-4 and worst_field < 1e-4
    report(4, ok, f"FD agreement: partials {worst_partials:.2e}, field gradient {worst_field:.2e} (<1e-4)")


def test_criterion_05_qp_optimality():
    rng = np.random.default_rng(5)
    # blocks of 4 QPs keep each candidate temporary near 300 KB, within a core's cache
    n_qps, n_candidates, block = 10_000, 10_000, 4
    k = rng.uniform(-10.0, 10.0, (n_qps, 2))
    a = rng.uniform(-4.0, 4.0, (n_qps, 2))
    b = rng.uniform(-12.0, 12.0, n_qps)
    norm2 = np.einsum("ij,ij->i", a, a)
    keep = norm2 >= 1e-12
    k, a, b, norm2 = k[keep], a[keep], b[keep], norm2[keep]
    u, _ = qp_filter(k, a, b)  # every QP, one per row
    worst_violation = float(np.max(b - np.einsum("ij,ij->i", a, u)))
    closed = k + (np.maximum(0.0, b - np.einsum("ij,ij->i", a, k)) / norm2)[:, None] * a
    cross_check = float(np.max(np.linalg.norm(u - closed, axis=1)))
    # each QP's candidates fill a strip of its admissible halfplane from the boundary
    a_hat = a / np.sqrt(norm2)[:, None]
    perp = np.column_stack([-a_hat[:, 1], a_hat[:, 0]])
    base = (b / norm2)[:, None] * a
    moved = np.linalg.norm(u - k, axis=1)
    beaten = 0
    for i in range(0, len(k), block):
        rows = slice(i, i + block)
        t = rng.uniform(0.0, 8.0, (len(moved[rows]), n_candidates))
        s = rng.uniform(-8.0, 8.0, t.shape)
        # each axis apart: a reduction over a length-2 axis is many times slower
        dx, dy = (base[rows, j, None] + t * a_hat[rows, j, None] + s * perp[rows, j, None] - k[rows, j, None]
                  for j in (0, 1))
        best = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
        beaten += int(np.count_nonzero(moved[rows] > best + 1e-9))
    ok = worst_violation <= 1e-12 and beaten == 0 and cross_check <= 1e-12
    report(
        5,
        ok,
        f"constraint slack {worst_violation:.1e} (<=1e-12), beaten by samples {beaten}, "
        f"closed-form gap {cross_check:.1e}",
    )


def _invariance_sweep(number, name, rho, check_switching):
    failures = []
    for spec in SWEEPS:
        start = time.perf_counter()
        log = run_spec(shipped_scenario(name), spec)
        wall = time.perf_counter() - start
        ok = log.reached_goal and log.min_h >= -1e-3 * rho and wall < 5.0
        if check_switching:
            ok = ok and len(set(log.active_index.tolist())) > 1
        if not ok:
            failures.append((log.label, log.reached_goal, log.min_h, wall))
    report(
        number,
        not failures,
        f"{len(SWEEPS) - len(failures)}/{len(SWEEPS)} specs safe and goal-reaching"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_06_single_obstacle_invariance():
    _invariance_sweep(6, "single_obstacle", RHO_SINGLE, check_switching=False)


def test_criterion_07_multi_obstacle_invariance():
    _invariance_sweep(7, "multi_obstacle", RHO_MULTI, check_switching=True)


def test_criterion_08_versatility_extremes():
    insensitive = rasterize(CPT(0.74, 1.0, 0.45, 1.0), PARAMS, SOURCE, BOUNDS, RES)
    safe_fraction = safe_mask(insensitive, 27.0).mean()
    averse = rasterize(CPT(0.74, 1.0, 0.88, 100.0), PARAMS, SOURCE, BOUNDS, RES)
    unsafe_fraction = 1.0 - safe_mask(averse, 199.0).mean()
    ok = safe_fraction == 1.0 and unsafe_fraction >= 0.95
    report(
        8,
        ok,
        f"gamma=0.45 rho=27: {100 * safe_fraction:.1f}% safe; "
        f"lambda=100 rho=199: {100 * unsafe_fraction:.1f}% unsafe (>=95%)",
    )


def test_criterion_09_inclusiveness_audit():
    rho = RHO_SINGLE
    c_min, c_max = discretized_cost_range(PARAMS, SOURCE, BOUNDS, RES)
    assert c_min > 1.0  # grid minimum exceeds 1 with these constants
    _, sigma_grid = moment_grids(PARAMS, SOURCE, BOUNDS, RES)
    assert sigma_grid.values.min() > 0.0  # uncertainty positive on the whole grid

    cvar_family = [CVaR(q) for q in (0.0, 0.001, 0.1, 0.4, 0.8, 0.95, 0.999)]
    cpt_family = [CPT(0.74, 1.0, g, l) for g in (0.785, 0.9, 1.0) for l in (1.5, 2.5, 3.5)]
    cpt_family.append(CPT(1.0, 1.0, 1.0, max(1.0, rho / c_min)))
    cpt_family.append(CPT(1.0, 1.0, min(1.0, math.log(rho) / math.log(c_max)), 1.0))
    er_family = [ExpectedRisk()]
    cpt_safe, cvar_safe, er_safe = (
        {s: safe_mask(rasterize(s, PARAMS, SOURCE, BOUNDS, RES), rho) for s in family}
        for family in (cpt_family, cvar_family, er_family)
    )

    cpt_cvar = inclusiveness_audit(cpt_safe, cvar_safe)
    cpt_er = inclusiveness_audit(cpt_safe, er_safe)
    cvar_er = inclusiveness_audit(cvar_safe, er_safe)
    violations = (
        cpt_cvar.safe_violations
        + cpt_cvar.risky_violations
        + cpt_er.safe_violations
        + cpt_er.risky_violations
        + cvar_er.safe_violations
        + cvar_er.risky_violations
    )
    ok = (
        cpt_cvar.verdict == "strictly more inclusive"
        and cpt_er.verdict == "strictly more inclusive"
        and cvar_er.verdict in ("more inclusive", "strictly more inclusive")
        and violations == 0
    )
    report(
        9,
        ok,
        f"CPT vs CVaR: {cpt_cvar.verdict}; CPT vs ER: {cpt_er.verdict}; "
        f"CVaR vs ER: {cvar_er.verdict}; subset violations: {violations}",
    )


def test_criterion_10_deviation_ordering():
    specs = (
        [ExpectedRisk()]
        + CVAR_SWEEP
        + [CPT(1.0, 1.0, 1.0, 1.0), CPT(1.05, 1.0, 0.98, 1.1), CPT(0.74, 1.0, 0.88, 1.5)]
    )
    rows = simulate(shipped_scenario("single_obstacle"), specs)
    er_max = next(r.max_delta for r in rows if r.label == "er")
    cvar_max = [r.max_delta for r in rows if r.label.startswith("cvar")]
    cpt_rows = [r for r in rows if r.label.startswith("cpt")]
    winners = [
        r.label
        for r in cpt_rows
        if r.max_delta <= er_max + 1e-12 and all(r.max_delta <= v + 1e-12 for v in cvar_max)
    ]
    report(
        10,
        bool(winners),
        f"CPT rows with max-perturbation <= ER and every CVaR: {winners or 'none'}",
    )


def test_criterion_11_convergence_sanity():
    # states at t = 2 s, before arrival: the final record's time shifts
    # by up to one step between step sizes
    at_2s = {}
    for dt in (0.05, 0.025):
        log = run_spec(shipped_scenario("single_obstacle", dt=dt), CPT(0.74, 1.0, 0.88, 2.25))
        at_2s[dt] = log.records["position"][round(2.0 / dt)]
    change = float(np.linalg.norm(at_2s[0.05] - at_2s[0.025]))
    report(11, change < 0.1, f"position change at t = 2 s {change:.4f} (<0.1) when halving dt")
