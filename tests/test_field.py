import dataclasses
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import riskcbf._format
import riskcbf.field
from riskcbf._format import _FORMAT_BLOCK, _significand, format_rows, write_json
from riskcbf.field import (
    MAX_WITNESSES,
    CostFieldParams,
    FieldGrid,
    cost_mean,
    cost_sigma,
    discretized_cost_range,
    evaluate,
    inclusiveness_audit,
    level_set,
    moment_grids,
    polylines_to_json,
    rasterize,
    safe_mask,
    versatility_audit,
)
from riskcbf.config import load_config
from riskcbf.distributions import lattice_coeffs
from riskcbf.risk import CPT, CVaR, ExpectedRisk, moment_risk, spec_label

PARAMS = CostFieldParams(200.0, 0.01, 0.5)
SOURCE = np.array([10.0, 10.0])
BOUNDS = (0.0, 15.0, 0.0, 15.0)
RES = (150, 150)


def polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


# --- cost fields -------------------------------------------------------------


@pytest.mark.parametrize(
    "k1, k2, r_bar",
    [
        (0.0, 0.01, 0.5),
        (200.0, -0.01, 0.5),
        (200.0, 0.01, -0.5),
        (math.nan, 0.01, 0.5),
        (200.0, math.nan, 0.5),
        (200.0, 0.01, math.nan),
        (math.inf, 0.01, 0.5),
        (200.0, math.inf, 0.5),
        (200.0, 0.01, math.inf),
        (200.0, math.nextafter(0.5, 1.0), 0.5),
    ],
)
def test_cost_field_params_reject_out_of_range(k1, k2, r_bar):
    with pytest.raises(ValueError):
        CostFieldParams(k1, k2, r_bar)


def test_cost_field_params_need_two_lattice_bins():
    with pytest.raises(ValueError, match="m must be at least 2"):
        CostFieldParams(200.0, 0.01, 0.5, m=1)


def test_no_lattice_outcome_is_negative_on_the_domain():
    # for k2 <= 1/2, c_mu >= 2 pi c_sigma > |g_1| c_sigma, so every outcome
    # sigma * g + mu (moment_risk's order) is >= +0.0, out to radii where
    # both moments underflow to 0; discretized_cost_range relies on this
    rng = np.random.default_rng(20)
    k2s = np.append(0.5 - rng.uniform(0.0, 0.5, 199), 0.5)  # in (0, 0.5]
    for k2 in k2s:
        params = CostFieldParams(10.0 ** rng.uniform(-3.0, 3.0), k2, rng.uniform(0.0, 5.0), rng.choice([2, 10, 40]))
        # k1 <= 1e3 and k2 <= 1/2 put both moments below 2**-1075 at this radius
        r = np.linspace(0.0, math.sqrt(760.0 / k2), 3001)
        for xi in (r[:, None] * (1.0, 0.0), r[:, None] * (0.6, 0.8)):
            mu, sigma = cost_mean(params, xi), cost_sigma(params, xi)
            assert mu[-1] == 0.0 and sigma[-1] == 0.0
            c = sigma[:, None] * lattice_coeffs(params.m) + mu[:, None]
            assert (c >= 0.0).all() and not np.signbit(c).any(), params


def test_cost_mean_peak_at_source():
    assert cost_mean(PARAMS, [0.0, 0.0]) == 200.0


def test_cost_mean_at_distance_ten():
    assert cost_mean(PARAMS, [10.0, 0.0]) == pytest.approx(200.0 * math.exp(-1.0), rel=1e-12)
    assert cost_mean(PARAMS, [10.0, 0.0]) == pytest.approx(73.5759, abs=1e-4)


def test_cost_mean_rotational_symmetry():
    for angle in (0.1, 1.2, 2.9):
        xi = 4.0 * np.array([math.cos(angle), math.sin(angle)])
        assert cost_mean(PARAMS, xi) == pytest.approx(cost_mean(PARAMS, [4.0, 0.0]), rel=1e-12)


def test_cost_sigma_peak_and_decay():
    peak = PARAMS.sigma_peak / (2.0 * math.pi)
    assert cost_sigma(PARAMS, [0.0, 0.0]) == pytest.approx(peak, rel=1e-12)
    assert cost_sigma(PARAMS, [40.0, 0.0]) < 1e-200
    expected = 200.0 * math.exp(-0.0025) / (2.0 * math.pi) * math.exp(-0.5)
    assert cost_sigma(PARAMS, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(19.2582646, abs=1e-6)


def gradients_of_moments(monkeypatch, xi):
    """evaluate's gradients of c_mu and c_sigma at xi: ER's gradient (its
    partials are (1, 0)), which is the analytic -2 k2 xi c_mu, and the
    gradient under the partials (0, 1)."""
    grad_mu = evaluate(ExpectedRisk(), PARAMS, xi)[1]
    np.testing.assert_array_equal(grad_mu, -2.0 * PARAMS.k2 * np.asarray(xi) * cost_mean(PARAMS, xi))
    with monkeypatch.context() as patch:
        patch.setattr(riskcbf.field, "moment_risk",
                      lambda spec, mu, sigma, m, grad: (mu, np.zeros_like(mu), np.ones_like(mu)))
        grad_sigma = evaluate(ExpectedRisk(), PARAMS, xi)[1]
    return grad_mu, grad_sigma


def test_cost_gradients_vanish_at_source(monkeypatch):
    gm, gs = gradients_of_moments(monkeypatch, [0.0, 0.0])
    assert np.allclose(gm, 0.0) and np.allclose(gs, 0.0)


def test_cost_gradients_point_inward(monkeypatch):
    xi = np.array([3.0, -2.0])
    gm, gs = gradients_of_moments(monkeypatch, xi)
    assert np.dot(gm, -xi) > 0.0
    assert np.dot(gs, -xi) > 0.0


def test_cost_gradients_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        xi = rng.uniform(0.1, 7.0) * _unit(rng)
        gm, gs = gradients_of_moments(monkeypatch, xi)
        fd_m, fd_s = np.zeros(2), np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd_m[k] = (cost_mean(PARAMS, xi + e) - cost_mean(PARAMS, xi - e)) / (2 * h)
            fd_s[k] = (cost_sigma(PARAMS, xi + e) - cost_sigma(PARAMS, xi - e)) / (2 * h)
        assert np.linalg.norm(gm - fd_m) / np.linalg.norm(fd_m) < 1e-6
        assert np.linalg.norm(gs - fd_s) / np.linalg.norm(fd_s) < 1e-6


def _unit(rng):
    angle = rng.uniform(0, 2 * math.pi)
    return np.array([math.cos(angle), math.sin(angle)])


# --- perceived risk -----------------------------------------------------------


def test_perceived_risk_er_is_mean_cost():
    for xi in ([0.0, 0.0], [2.0, 1.0], [8.0, -3.0]):
        assert evaluate(ExpectedRisk(), PARAMS, xi, grad=False)[0] == cost_mean(PARAMS, xi)


def test_perceived_risk_unit_cpt_close_to_er():
    theta = CPT(1.0, 1.0, 1.0, 1.0)
    xi = np.array([[0.5, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
    gap = np.abs(evaluate(theta, PARAMS, xi, grad=False)[0] - evaluate(ExpectedRisk(), PARAMS, xi, grad=False)[0])
    assert np.all(gap <= 3.0 * cost_sigma(PARAMS, xi) / PARAMS.m + 1e-12)


def test_perceived_risk_lambda_scaling():
    base = CPT(1.0, 1.0, 1.0, 1.0)
    doubled = CPT(1.0, 1.0, 1.0, 2.0)
    xi = np.array([1.5, 0.5])
    assert float(evaluate(doubled, PARAMS, xi, grad=False)[0]) == pytest.approx(
        2.0 * float(evaluate(base, PARAMS, xi, grad=False)[0]), rel=1e-12
    )


def test_risk_gradient_er_equals_mean_gradient():
    xi = np.array([2.0, -1.0])
    gm = -2.0 * PARAMS.k2 * xi * cost_mean(PARAMS, xi)
    assert np.allclose(evaluate(ExpectedRisk(), PARAMS, xi)[1], gm)


def test_risk_gradient_zero_at_source():
    for spec in (ExpectedRisk(), CVaR(0.3), CPT(0.74, 1.0, 0.88, 2.25)):
        assert np.allclose(evaluate(spec, PARAMS, [0.0, 0.0])[1], 0.0)


def test_risk_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    specs = [ExpectedRisk(), CVaR(0.2), CVaR(0.9), CPT(0.74, 1.0, 0.88, 2.25), CPT(1, 1, 1, 1)]
    h = 1e-6
    for spec in specs:
        for _ in range(100):
            xi = rng.uniform(0.05, 9.0) * _unit(rng)
            g = evaluate(spec, PARAMS, xi)[1]
            # central differences along both axes in one batch
            steps = h * np.eye(2)
            up, down = (evaluate(spec, PARAMS, xi + sign * steps, grad=False)[0] for sign in (1, -1))
            fd = (up - down) / (2 * h)
            assert np.linalg.norm(g - fd) / max(1e-12, np.linalg.norm(fd)) < 1e-4


def test_evaluate_batch_and_grid_match_pointwise():
    # byte for byte: a point's risk and gradient do not depend on how many
    # points share its call (a gemv over the CPT lattice rounded rows by N)
    rng = np.random.default_rng(11)
    batch = rng.uniform(-6.0, 6.0, (7, 2))
    grid = rng.uniform(-6.0, 6.0, (12, 15, 2))
    specs = [ExpectedRisk(), CVaR(0.0), CVaR(0.3), CVaR(1.0), CPT(0.74, 1.0, 0.88, 2.25)]
    for spec in specs:
        for xi in (batch, grid):
            value, grad = evaluate(spec, PARAMS, xi)
            assert value.shape == xi.shape[:-1] and grad.shape == xi.shape
            for idx in np.ndindex(*xi.shape[:-1]):
                v, g = evaluate(spec, PARAMS, xi[idx])
                assert value[idx] == v and np.array_equal(grad[idx], g)
            assert np.array_equal(evaluate(spec, PARAMS, xi, grad=False)[0], value)
    # nor on the specs beside it: a tuple of specs runs them as lanes
    # along the leading axis (gamma = 0.5, where a scalar power is a sqrt)
    lanes = (*specs, CPT(0.74, 1.0, 0.5, 3.0))
    xi = rng.uniform(-6.0, 6.0, (len(lanes), 50, 2))
    value, grad = evaluate(lanes, PARAMS, xi)
    for s, spec in enumerate(lanes):
        v, g = evaluate(spec, PARAMS, xi[s])
        assert value[s].tobytes() == v.tobytes() and grad[s].tobytes() == g.tobytes()
    assert np.array_equal(evaluate(lanes, PARAMS, xi, grad=False)[0], value)


# --- rasterization -------------------------------------------------------------


def test_rasterize_er_equals_mean_grid():
    grid = rasterize(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, RES)
    xs, ys = grid.x_centers(), grid.y_centers()
    manual = np.empty((RES[0], RES[1]))
    for i in range(0, RES[0], 37):  # spot-check a deterministic subset
        for j in range(0, RES[1], 37):
            manual[i, j] = cost_mean(PARAMS, SOURCE - np.array([xs[i], ys[j]]))
            assert grid.values[i, j] == manual[i, j]


def test_rasterize_peak_near_source():
    grid = rasterize(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, RES)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    center = np.array([grid.x_centers()[i], grid.y_centers()[j]])
    assert np.linalg.norm(center - SOURCE) <= math.hypot(grid.dx, grid.dy)
    assert grid.values[i, j] == pytest.approx(200.0, abs=0.05)


def test_rasterize_matches_rowmajor_pointwise_loop():
    res = (12, 9)
    for spec in (ExpectedRisk(), CVaR(0.3), CPT(0.74, 1.0, 0.88, 2.0)):
        grid = rasterize(spec, PARAMS, SOURCE, BOUNDS, res)
        for i in range(res[0]):
            for j in range(res[1]):
                center = np.array([grid.x_centers()[i], grid.y_centers()[j]])
                expected, _ = evaluate(spec, PARAMS, SOURCE - center, grad=False)
                assert grid.values[i, j] == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


def direct_risk(spec, params, source, bounds, resolution) -> np.ndarray:
    """A fresh one-spec evaluation of the risk grid, at the spec's own lam."""
    mu, sigma = moment_grids(params, source, bounds, resolution)
    return moment_risk(spec, mu.values, sigma.values, params.m, grad=False)[0]


def assert_fresh(grid, spec, params, source, bounds, resolution):
    assert (grid.xmin, grid.xmax, grid.ymin, grid.ymax) == tuple(bounds)
    assert grid.values.tobytes() == direct_risk(spec, params, source, bounds, resolution).tobytes()


def unit_evaluations(monkeypatch) -> list:
    """A list that gets the key of every grid rasterize evaluates from now
    on, behind a fresh one-entry cache: a CPT spec's key has lam = 1, any
    other spec's key is the spec."""
    keys = []
    evaluate_unit = riskcbf.field._unit_risk.__wrapped__

    def counting(key, *args):
        keys.append(key)
        return evaluate_unit(key, *args)

    monkeypatch.setattr(riskcbf.field, "_unit_risk", functools.lru_cache(maxsize=1)(counting))
    return keys


def test_rasterize_shares_a_consecutive_lambda_group_and_keeps_the_bytes(monkeypatch):
    specs = (
        ExpectedRisk(),
        CPT(0.74, 1.0, 0.5, 2.0),  # gamma = 0.5: the one-spec c **= 0.5 is np.sqrt
        CPT(0.74, 1.0, 0.5, 3.5),  # the lambda group of specs[1], consecutive
        CVaR(0.0),
        CPT(0.74, 1.0, 1.0, 3.0),
        CPT(0.74, 1.0, 0.5, 1.0),  # the group of specs[1] again, after other specs
        CVaR(1.0),
        CPT(0.74, 1.0, 0.88, 1.0),  # lambda = 1 alone
        CPT(0.74, 1.0, 1.0, 3.0),
        CPT(0.74, 1.0, 1.0, 3.0),  # a repeated spec
        CPT(0.5, 2.0, 1.0, 2.0),  # gamma = 1 of another (alpha, beta)
    )
    res = (30, 20)
    evaluated = unit_evaluations(monkeypatch)
    for spec in specs:
        assert_fresh(rasterize(spec, PARAMS, SOURCE, BOUNDS, res), spec, PARAMS, SOURCE, BOUNDS, res)
    # one evaluation per run of consecutive specs with one lam = 1 key
    keys = [dataclasses.replace(s, lam=1.0) if isinstance(s, CPT) else s for s in specs]
    assert evaluated == [key for key, _ in itertools.groupby(keys)]
    assert len(evaluated) == 9


def test_rasterize_after_a_cached_call_on_another_field_or_geometry():
    spec, other_lam = CPT(0.74, 1.0, 0.88, 2.0), CPT(0.74, 1.0, 0.88, 3.0)
    res = (30, 20)
    first = (PARAMS, SOURCE, BOUNDS, res)
    others = (
        (CostFieldParams(150.0, 0.02, 0.5), SOURCE, BOUNDS, res),
        (CostFieldParams(200.0, 0.01, 0.5, m=12), SOURCE, BOUNDS, res),
        (PARAMS, (7.5, 3.0), BOUNDS, res),
        (PARAMS, SOURCE, (0.0, 12.0, -3.0, 15.0), res),
        (PARAMS, SOURCE, BOUNDS, (20, 30)),
    )
    for args in others:
        assert_fresh(rasterize(spec, *first), spec, *first)
        assert_fresh(rasterize(spec, *args), spec, *args)
        assert_fresh(rasterize(other_lam, *args), other_lam, *args)


@pytest.mark.parametrize("spec", [ExpectedRisk(), CVaR(0.4), CPT(0.74, 1.0, 0.88, 1.0), CPT(0.74, 1.0, 0.88, 2.0)])
def test_rasterize_returns_a_grid_of_its_own(spec):
    res = (30, 20)
    grid = rasterize(spec, PARAMS, SOURCE, BOUNDS, res)
    grid.values[:] = -1.0  # the caller's own array: the write reaches no cache
    again = rasterize(spec, PARAMS, SOURCE, BOUNDS, res)
    assert again.values is not grid.values
    assert_fresh(again, spec, PARAMS, SOURCE, BOUNDS, res)


def test_moment_grids_share_one_read_only_pair():
    first = moment_grids(PARAMS, SOURCE, BOUNDS, (12, 9))
    again = moment_grids(PARAMS, tuple(SOURCE), list(BOUNDS), np.array([12, 9]))
    for grid, other in zip(first, again, strict=True):
        assert grid.values is other.values  # one geometry, one pair
        assert (grid.xmin, grid.xmax, grid.ymin, grid.ymax, grid.nx, grid.ny) == (*BOUNDS, 12, 9)
        with pytest.raises(ValueError, match="read-only"):
            grid.values += 1.0
    # the moments at xi = source - center(i, j), byte for byte
    centers = np.meshgrid(first[0].x_centers(), first[0].y_centers(), indexing="ij")
    xi = SOURCE - np.stack(centers, axis=-1)
    assert first[0].values.tobytes() == cost_mean(PARAMS, xi).tobytes()
    assert first[1].values.tobytes() == cost_sigma(PARAMS, xi).tobytes()


def test_field_grid_is_its_bounds_and_values():
    assert [f.name for f in dataclasses.fields(FieldGrid)] == ["xmin", "xmax", "ymin", "ymax", "values"]
    grid = FieldGrid(0.0, 1.5, -1.0, 1.0, np.zeros((3, 4)))
    assert (grid.nx, grid.ny, grid.dx, grid.dy) == (3, 4, 0.5, 0.5)
    assert grid.x_centers().tolist() == [0.25, 0.75, 1.25]
    assert grid.y_centers().tolist() == [-0.75, -0.25, 0.25, 0.75]
    for shape in ((1, 4), (3, 1), (12,), (2, 2, 2)):
        with pytest.raises(ValueError, match="at least 2 per axis"):
            FieldGrid(0.0, 1.5, -1.0, 1.0, np.zeros(shape))


def test_safe_mask_bounds_and_monotonicity():
    grid = rasterize(CVaR(0.4), PARAMS, SOURCE, BOUNDS, (60, 60))
    assert safe_mask(grid, grid.values.max() + 1.0).all()
    assert not safe_mask(grid, grid.values.min() - 1.0).any()
    fractions = [safe_mask(grid, rho).mean() for rho in np.linspace(0, 250, 11)]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))


def test_safe_mask_partitions_grid():
    grid = rasterize(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, (40, 40))
    for rho in (50.0, 150.0, 250.0):
        safe = safe_mask(grid, rho)
        assert np.array_equal(~safe, grid.values > rho)


# --- level sets -----------------------------------------------------------------


def test_level_set_single_closed_contour():
    polys = level_set(ExpectedRisk(), PARAMS, SOURCE, (0.0, 20.0, 0.0, 20.0), (160, 160), 150.0)
    assert len(polys) == 1
    poly = polys[0]
    assert np.array_equal(poly[0], poly[-1])
    radii = np.linalg.norm(poly - SOURCE, axis=1)
    expected_r = math.sqrt(math.log(200.0 / 150.0) / 0.01)
    assert radii.min() == pytest.approx(expected_r, rel=1e-9)
    assert radii.max() == pytest.approx(expected_r, rel=1e-9)


def test_level_set_vertices_track_level():
    # re-evaluation oracle: the true field value at each vertex is rho
    spec = CPT(0.74, 1.0, 0.88, 2.0)
    rho = 150.0
    polys = level_set(spec, PARAMS, SOURCE, (0.0, 20.0, 0.0, 20.0), (120, 120), rho)
    assert polys
    for poly in polys:
        value, _ = evaluate(spec, PARAMS, SOURCE - poly, grad=False)
        assert value == pytest.approx(np.full(len(poly), rho), rel=1e-9)


def test_level_set_area_grows_with_lambda():
    rho = PARAMS.sigma_peak
    areas = []
    for lam in (1.5, 2.0, 2.5, 3.0, 3.5):
        polys = level_set(
            CPT(0.74, 1.0, 0.95, lam), PARAMS, SOURCE, (-20.0, 40.0, -20.0, 40.0), (200, 200), rho
        )
        areas.append(sum(polygon_area(p) for p in polys))
    assert all(a < b for a, b in zip(areas, areas[1:]))


def test_level_set_empty_outside_range():
    values = rasterize(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, (40, 40)).values
    for rho in (values.max() + 10.0, values.min() - 10.0):
        assert level_set(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, (40, 40), rho) == []


def window_of(bounds, resolution):
    grid = FieldGrid(*bounds, values=np.zeros(resolution))
    xs, ys = grid.x_centers(), grid.y_centers()
    return (xs[0], xs[-1], ys[0], ys[-1]), min(grid.dx, grid.dy)


def assert_clipped_circles(polys, source, bounds, resolution):
    """Each polyline lies on one circle about source, counter-clockwise,
    with chords within a hundredth of a cell of the arc, inside the
    cell-center window; open ones end exactly on its edge. Returns the
    radii, one per polyline."""
    (x0, x1, y0, y1), cell = window_of(bounds, resolution)
    radii = []
    for poly in polys:
        assert poly.ndim == 2 and poly.shape[1] == 2 and len(poly) >= 2
        offsets = poly - source
        r = np.linalg.norm(offsets, axis=1)
        assert r.max() - r.min() <= 1e-12 * r.max()
        radii.append(r.mean())
        # the sagitta of each chord: its arc's distance from its midpoint
        sagitta = r.mean() - np.linalg.norm(0.5 * (offsets[1:] + offsets[:-1]), axis=1)
        assert sagitta.max() <= 0.01 * cell * (1 + 1e-9)
        turn = np.diff(np.unwrap(np.arctan2(offsets[:, 1], offsets[:, 0])))
        assert (turn > 0).all()
        assert ((x0 <= poly[:, 0]) & (poly[:, 0] <= x1) & (y0 <= poly[:, 1]) & (poly[:, 1] <= y1)).all()
        if not np.array_equal(poly[0], poly[-1]):
            for x, y in poly[[0, -1]]:
                assert x in (x0, x1) or y in (y0, y1)
    # by ascending radius; arcs of one circle may differ in the last digit
    assert all(a < b * (1 + 1e-12) for a, b in zip(radii, radii[1:]))
    return radii


@pytest.mark.parametrize(
    "source, r",
    [
        ((10.0, 10.0), 3.0),  # inside the window: one closed circle
        ((10.0, 10.0), 6.7),  # cut by two edges near a corner
        ((10.0, 10.0), 10.3),  # cut by three edges
        ((-3.0, 7.0), 5.0),  # about a source outside the window
        ((7.5, -1.0), 8.0),  # about a source below the window
    ],
)
def test_level_set_circles_are_clipped_to_the_window(source, r):
    rho = cost_mean(PARAMS, [r, 0.0])
    polys = level_set(ExpectedRisk(), PARAMS, source, BOUNDS, RES, rho)
    assert polys
    radii = assert_clipped_circles(polys, np.array(source), BOUNDS, RES)
    assert radii == pytest.approx([r] * len(polys), rel=1e-9)


def test_level_set_arc_through_angle_zero_is_one_polyline():
    # about a source near the left edge, the circle's inside run passes
    # angle 0 and its outside run angle pi
    source = np.array([1.0, 7.5])
    polys = level_set(ExpectedRisk(), PARAMS, source, BOUNDS, RES, cost_mean(PARAMS, [3.0, 0.0]))
    assert len(polys) == 1
    (poly,) = polys
    assert not np.array_equal(poly[0], poly[-1])
    assert poly[0, 0] == poly[-1, 0] == 0.05
    assert poly[0, 1] < source[1] < poly[-1, 1]
    assert_clipped_circles(polys, source, BOUNDS, RES)


def test_level_set_circle_outside_the_window_is_empty():
    # a radius beyond the window's farthest corner from the source
    assert level_set(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, RES, cost_mean(PARAMS, [15.0, 0.0])) == []
    # and one that surrounds no cell center about a source outside
    assert level_set(ExpectedRisk(), PARAMS, (-3.0, 7.0), BOUNDS, RES, cost_mean(PARAMS, [2.0, 0.0])) == []


def test_level_set_of_a_constant_field_is_empty():
    spec = CPT(0.74, 1.0, 0.0, 2.0)
    values = rasterize(spec, PARAMS, SOURCE, BOUNDS, (20, 20)).values
    assert (values == values[0, 0]).all()
    for rho in (0.5 * values[0, 0], values[0, 0], 2.0 * values[0, 0]):
        assert level_set(spec, PARAMS, SOURCE, BOUNDS, RES, rho) == []


def test_level_set_two_roots_give_two_closed_circles():
    polys = level_set(CPT(0.3, 1.0, 0.8, 3.0), PARAMS, SOURCE, BOUNDS, RES, PARAMS.sigma_peak)
    assert len(polys) == 2
    assert all(np.array_equal(p[0], p[-1]) for p in polys)
    radii = assert_clipped_circles(polys, SOURCE, BOUNDS, RES)
    assert radii == pytest.approx([0.3178, 2.1801], abs=1e-4)


def test_safe_mask_agrees_with_level_set_radii_off_the_circles():
    # radial oracle: a cell center more than a cell diagonal from every
    # level-set circle is safe exactly when the number of circles inside
    # its radius flips the source's side an even number of times
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "field_default.cfg")
    params = cfg.field_params()
    rho = cfg.barrier_config(params).rho
    bounds, resolution, source = cfg.grid_geometry()
    source = np.asarray(source, dtype=float)
    cvar, cpt = cfg.audit_families(*discretized_cost_range(params, source, bounds, resolution), rho)
    specs = list(dict.fromkeys([*cfg.specs(), *cvar, *cpt, CPT(0.3, 1.0, 0.8, 3.0), CPT(0.74, 1.0, 0.0, 2.0)]))
    for spec in specs:
        grid = rasterize(spec, params, source, bounds, resolution)
        polys = level_set(spec, params, source, bounds, resolution, rho)
        radii = np.unique(np.round(assert_clipped_circles(polys, source, bounds, resolution), 9))
        r = np.hypot(*np.meshgrid(grid.x_centers() - source[0], grid.y_centers() - source[1], indexing="ij"))
        diagonal = math.hypot(grid.dx, grid.dy)
        # a circle just past the farthest cell center meets no cell, so no
        # polyline shows it: the extreme CPT(1, 1, 1, rho / c_min) has its
        # root at that cell, its one cell with R <= rho
        far = (np.abs(r[..., None] - radii) > diagonal).all(axis=-1) & (r < r.max() - diagonal)
        source_safe = evaluate(spec, params, np.zeros(2), grad=False)[0] <= rho
        expected = source_safe ^ ((r[..., None] > radii).sum(axis=-1) % 2 == 1)
        assert np.array_equal(safe_mask(grid, rho)[far], expected[far]), spec_label(spec)
        assert far.mean() > 0.5


# --- audits ---------------------------------------------------------------------


AUDIT_RES = (100, 100)


def cvar_family():
    return [CVaR(q) for q in (0.0, 0.001, 0.1, 0.4, 0.8, 0.95, 0.999)]


def cpt_family(rho):
    c_min, c_max = discretized_cost_range(PARAMS, SOURCE, BOUNDS, AUDIT_RES)
    fam = [CPT(0.74, 1.0, g, l) for g in (0.785, 0.9, 1.0) for l in (1.5, 2.5, 3.5)]
    fam.append(CPT(1.0, 1.0, 1.0, max(1.0, rho / c_min)))
    fam.append(CPT(1.0, 1.0, min(1.0, math.log(rho) / math.log(c_max)), 1.0))
    return fam


def safe_sets(family, rho):
    """The audits' input: each member spec's safe mask on the audit grid."""
    return {
        spec: safe_mask(rasterize(spec, PARAMS, SOURCE, BOUNDS, AUDIT_RES), rho)
        for spec in family
    }


def audit_mu():
    """The mean cost of each cell of the audit grid."""
    return moment_grids(PARAMS, SOURCE, BOUNDS, AUDIT_RES)[0].values


def test_inclusiveness_self_comparison():
    fam = safe_sets(cvar_family(), 150.0)
    report = inclusiveness_audit(fam, fam)
    assert report.safe_subset and report.risky_subset
    assert report.safe_witnesses == 0 and report.risky_witnesses == 0
    assert report.verdict == "equivalent"


def test_inclusiveness_cpt_beats_cvar_and_er():
    rho = PARAMS.sigma_peak
    cpt = safe_sets(cpt_family(rho), rho)
    for other in (safe_sets(cvar_family(), rho), safe_sets([ExpectedRisk()], rho)):
        report = inclusiveness_audit(cpt, other)
        assert report.verdict == "strictly more inclusive"
        assert report.safe_violations == 0 and report.risky_violations == 0


def test_inclusiveness_cvar_beats_er():
    rho = PARAMS.sigma_peak
    report = inclusiveness_audit(safe_sets(cvar_family(), rho), safe_sets([ExpectedRisk()], rho))
    assert report.verdict in ("more inclusive", "strictly more inclusive")
    assert report.safe_violations == 0 and report.risky_violations == 0


def test_versatility_er_single_threshold():
    rho = 100.0
    levels = [30.0, 60.0, 90.0, 120.0, 150.0, 180.0]
    report = versatility_audit(safe_sets([ExpectedRisk()], rho), audit_mu(), levels)
    assert list(report.achieved) == [lvl <= rho for lvl in levels]
    assert report.interval == (30.0, 90.0)


def test_versatility_cpt_extremes_cover_full_range():
    rho = 100.0
    levels = [30.0, 60.0, 90.0, 120.0, 150.0, 180.0, 199.0]
    report = versatility_audit(safe_sets(cpt_family(rho), rho), audit_mu(), levels)
    assert all(report.achieved)
    assert report.interval == (30.0, 199.0)


def test_versatility_interval_widths_ordered():
    rho = 100.0
    levels = [30.0, 60.0, 90.0, 120.0, 150.0, 180.0, 199.0]
    args = (audit_mu(), levels)
    er_report = versatility_audit(safe_sets([ExpectedRisk()], rho), *args)
    cvar_report = versatility_audit(safe_sets(cvar_family(), rho), *args)
    cpt_report = versatility_audit(safe_sets(cpt_family(rho), rho), *args)
    er_set = {l for l, a in zip(er_report.levels, er_report.achieved) if a}
    cvar_set = {l for l, a in zip(cvar_report.levels, cvar_report.achieved) if a}
    cpt_set = {l for l, a in zip(cpt_report.levels, cpt_report.achieved) if a}
    assert er_set <= cvar_set <= cpt_set


def test_versatility_cvar_capped_by_er_threshold_levels():
    rho = 100.0
    levels = [30.0, 60.0, 90.0, 120.0, 150.0, 180.0, 199.0]
    report = versatility_audit(safe_sets(cvar_family(), rho), audit_mu(), levels)
    achieved = {l for l, a in zip(report.levels, report.achieved) if a}
    assert achieved <= {l for l in levels if l <= rho}


def test_audit_requires_nonempty_families():
    with pytest.raises(ValueError):
        inclusiveness_audit({}, safe_sets(cvar_family(), 100.0))
    with pytest.raises(ValueError):
        versatility_audit({}, audit_mu(), [50.0])


def test_inclusiveness_audit_matches_its_definition_on_random_masks():
    # brute force over seeded cases, cell by cell on Python sets: each
    # family draws members from a small pool of masks, some all safe or
    # all unsafe, so that one family often holds the other's members and
    # every verdict comes up
    rng = np.random.default_rng(0)
    verdicts, truncated = set(), 0
    for _ in range(300):
        shape = tuple(rng.integers(1, 9, size=2))
        pool = [rng.random(shape) < rng.random() for _ in range(rng.integers(1, 5))]
        pool += [np.ones(shape, bool), np.zeros(shape, bool)][: rng.integers(3)]
        specs = [CVaR(i / 10) for i in range(len(pool))]
        family1, family2 = (
            {specs[i]: pool[i] for i in rng.choice(len(pool), size=rng.integers(1, len(pool) + 1), replace=False)}
            for _ in range(2)
        )
        report = inclusiveness_audit(family1, family2)

        cells = set(itertools.product(range(shape[0]), range(shape[1])))
        safe1, safe2 = ({c for c in cells if any(m[c] for m in f.values())} for f in (family1, family2))
        risky1, risky2 = ({c for c in cells if not all(m[c] for m in f.values())} for f in (family1, family2))
        assert report.family1 == tuple(spec_label(s) for s in family1)
        assert report.family2 == tuple(spec_label(s) for s in family2)
        assert report.safe_subset == (safe2 <= safe1) and report.risky_subset == (risky2 <= risky1)
        assert (report.safe_witnesses, report.risky_witnesses) == (len(safe1 - safe2), len(risky1 - risky2))
        assert (report.safe_violations, report.risky_violations) == (len(safe2 - safe1), len(risky2 - risky1))
        # the first witnesses in row-major order, which sorted tuples follow
        assert report.witness_cells_safe == tuple(sorted(safe1 - safe2)[:MAX_WITNESSES])
        assert report.witness_cells_risky == tuple(sorted(risky1 - risky2)[:MAX_WITNESSES])
        if safe2 <= safe1 and risky2 <= risky1:
            strict = (safe2 < safe1) + (risky2 < risky1)
            verdict = ("equivalent", "more inclusive", "strictly more inclusive")[strict]
        else:
            verdict = "incomparable"
        assert report.verdict == verdict
        verdicts.add(verdict)
        truncated += len(safe1 - safe2) > MAX_WITNESSES
    assert len(verdicts) == 4 and truncated > 0


@pytest.mark.parametrize(
    "masks1, verdict, witnesses_safe, witnesses_risky",
    [
        # family2 is the one mask [[1, 0], [0, 0]]: safe cell (0, 0), the others risky
        ([[[1, 0], [0, 0]]], "equivalent", (), ()),
        ([[[1, 1], [0, 0]], [[1, 0], [0, 0]]], "more inclusive", ((0, 1),), ()),
        ([[[1, 1], [0, 0]], [[0, 0], [0, 0]]], "strictly more inclusive", ((0, 1),), ((0, 0),)),
        ([[[0, 1], [0, 0]]], "incomparable", ((0, 1),), ((0, 0),)),
    ],
)
def test_inclusiveness_audit_verdicts_on_built_masks(masks1, verdict, witnesses_safe, witnesses_risky):
    family1 = {CVaR(i / 10): np.array(mask, bool) for i, mask in enumerate(masks1)}
    report = inclusiveness_audit(family1, {ExpectedRisk(): np.array([[1, 0], [0, 0]], bool)})
    assert report.verdict == verdict
    assert report.witness_cells_safe == witnesses_safe and report.witness_cells_risky == witnesses_risky


def test_versatility_audit_matches_its_definition_on_random_masks():
    # brute force over seeded cases: tied, non-radial mean costs; masks
    # that mix a sublevel set with noise, or are all safe or all unsafe;
    # levels below, inside and above the costs, some drawn from the costs
    # so that a level equal to a member's reach must count as missed
    rng = np.random.default_rng(0)
    ties = 0
    for _ in range(200):
        shape = tuple(rng.integers(1, 9, size=2))
        mu = rng.integers(0, 12, size=shape).astype(float)
        masks = []
        for _ in range(rng.integers(1, 6)):
            kind = rng.integers(4)
            noise = rng.random(shape) < rng.random()
            masks.append(
                np.ones(shape, bool) if kind == 0
                else noise if kind == 1
                else (mu <= rng.integers(-1, 13)) | noise if kind == 2
                else mu <= rng.integers(-1, 13)
            )
        family = {CVaR(i / 10): mask for i, mask in enumerate(masks)}
        levels = [*rng.choice(mu.ravel(), size=rng.integers(0, 6)), *rng.uniform(-2.0, 14.0, size=rng.integers(0, 4))]
        if rng.random() < 0.3:
            levels.append(levels[0] if levels else mu.min())  # a repeated level
        report = versatility_audit(family, mu, levels)

        assert report.levels == tuple(sorted(levels))
        covers = [[bool(mask[mu <= level].all()) for mask in masks] for level in report.levels]
        labels = [spec_label(spec) for spec in family]
        assert report.achieved == tuple(any(row) for row in covers)
        assert report.achieved_by == tuple(labels[row.index(True)] if any(row) else None for row in covers)
        # the maximal runs of achieved levels; the widest is the interval
        runs = []
        for hit, run in itertools.groupby(zip(report.levels, report.achieved), key=lambda pair: pair[1]):
            if hit:
                run = list(run)
                runs.append((run[0][0], run[-1][0]))
        assert report.runs == tuple(runs)
        assert report.interval == (max(runs, key=lambda run: run[1] - run[0]) if runs else None)
        # the prefix property: no achieved level above a missed one
        assert list(report.achieved) == sorted(report.achieved, reverse=True)
        ties += sum(level == mu[~mask].min() for mask in masks if not mask.all() for level in report.levels)
    assert ties > 50


def test_versatility_reach_lies_on_a_radial_root():
    # the grid reach of each audited member, the least mean cost of its
    # unsafe cells, sits at the radius sqrt(ln(k1 / reach) / k2): within
    # a cell diagonal of a root of the exact radial profile, or of the
    # farthest cell center, where the window cuts the unsafe set off
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "field_default.cfg")
    params = cfg.field_params()
    rho = cfg.barrier_config(params).rho
    bounds, resolution, source = cfg.grid_geometry()
    mu, _ = moment_grids(params, source, bounds, resolution)
    cvar, cpt = cfg.audit_families(*discretized_cost_range(params, source, bounds, resolution), rho)
    specs = [ExpectedRisk(), *cvar, *cpt]
    assert len(set(specs)) == len(specs) == 40
    r = np.hypot(*np.meshgrid(mu.x_centers() - source[0], mu.y_centers() - source[1], indexing="ij"))
    r_max, cell, diagonal = r.max(), min(mu.dx, mu.dy), math.hypot(mu.dx, mu.dy)
    unsafe_members = 0
    for spec in specs:
        unsafe = ~safe_mask(rasterize(spec, params, source, bounds, resolution), rho)
        roots = riskcbf.field._root_radii(spec, params, rho, r_max, cell / 8)
        if not unsafe.any():
            assert roots.size == 0, spec_label(spec)
            continue
        unsafe_members += 1
        reach = mu.values[unsafe].min()
        radius = math.sqrt(math.log(params.k1 / reach) / params.k2)
        assert np.abs(radius - np.append(roots, r_max)).min() <= diagonal, spec_label(spec)
    assert unsafe_members == 25


# --- exports ----------------------------------------------------------------------


def read_grid_csv(path):
    """The geometry fields and the values of a grid CSV, after checking
    its header line."""
    header, meta = path.read_text().split("\n", 2)[:2]
    assert header == "xmin,xmax,ymin,ymax,nx,ny"
    return meta.split(","), np.loadtxt(path, delimiter=",", skiprows=2)


def test_grid_csv_round_trip(tmp_path):
    grid = rasterize(CVaR(0.4), PARAMS, SOURCE, BOUNDS, (20, 30))
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    meta, values = read_grid_csv(path)
    assert (int(meta[4]), int(meta[5])) == (20, 30)
    assert float(meta[0]) == grid.xmin and float(meta[3]) == grid.ymax
    assert np.array_equal(values, grid.values)


def test_grid_csv_writes_each_value_as_17g(tmp_path):
    values = np.array(
        [
            [-0.0, 5e-324, 1e308, 0.1],
            [1 / 3, 0.0, 1.0, -3.0],
            [200.0, 2.0**53, -1e-300, 2.0 / 3],
        ]
    )
    grid = FieldGrid(0.0, 1.5, -1.0, 1.0, values)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    rows = path.read_text().splitlines()[2:]
    assert rows == [",".join(format(v, ".17g") for v in row) for row in values.tolist()]
    assert rows[0].startswith("-0,4.9406564584124654e-324,")
    assert read_grid_csv(path)[1].tobytes() == values.tobytes()


@pytest.mark.parametrize("odd", [None, -0.0, 0.5, 2.0])
def test_grid_csv_of_a_01_grid_is_its_17g_text(tmp_path, odd):
    # a 0/1 grid (a safe mask) is written from one byte buffer; a -0.0 or
    # any value other than 0 and 1 sends the grid through float formatting
    values = safe_mask(rasterize(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, (12, 9)), 120.0).astype(float)
    assert 0.0 < values.mean() < 1.0
    if odd is not None:
        values[3, 4] = odd
    grid = FieldGrid(0.0, 1.5, -1.0, 1.0, values)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    rows = path.read_text().split("\n", 2)[2]
    assert rows == "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    if odd is not None:
        assert rows.splitlines()[3].split(",")[4] == {-0.0: "-0", 0.5: "0.5", 2.0: "2"}[odd]
    assert read_grid_csv(path)[1].tobytes() == values.tobytes()


def percent_17g(values):
    """The reference: '%.17g' of every value, comma-joined rows."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in values.tolist()).encode()


def exact_ties(rng, count):
    """Doubles odd * 2**-e whose exact decimal expansion has 18 significant
    digits, the last a 5: '%.17g' rounds each half to even."""
    ties = []
    while len(ties) < count:
        e = int(rng.integers(3, 26))
        odd = int(rng.integers(10**17 // 5**e, 10**18 // 5**e)) | 1
        v = odd / 2**e
        if odd < 2**53 and len(str(odd * 5**e)) == 18:
            ties.append(v)
    return ties


def test_format_rows_is_17g_on_every_class_of_double():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=(512, 1024), dtype=np.uint64).view(np.float64)
    decades = [float(f"{m}e{k}") for k in range(-308, 309) for m in ("1", "1.5", "9.999999999999999", "9.9999999999999999")]
    special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e-280, 1e280, math.inf, math.nan]
    switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.9999999999999999e15, 99999999999999984.0]
    ties = exact_ties(rng, 2000)
    singles = np.array(decades + special + switches + ties + [2.0**-1074 * k for k in range(1, 200)])
    with np.errstate(over="ignore"):  # nextafter of the largest double is inf
        near = [np.nextafter(singles, direction) for direction in (math.inf, -math.inf)]
    singles = np.concatenate([singles, *near])
    singles = np.concatenate([singles, -singles])
    # block edges: a row of one block, one value narrower and one wider,
    # and rows of 8 that leave a last block of one row
    edges = [singles[None, :_FORMAT_BLOCK + d] for d in (0, -1, 1)]
    edges.append(singles[: (_FORMAT_BLOCK // 8 + 1) * 8].reshape(-1, 8))
    for values in (bits, singles[: len(singles) // 8 * 8].reshape(-1, 8), singles[None, :], singles[:, None], *edges):
        assert b"".join(format_rows(values)) == percent_17g(values)


@pytest.mark.parametrize("width", [1, 3, 8])
def test_format_rows_is_17g_on_signed_zeros(width):
    # rows of only 0 and -0, and rows that end in one, among other values
    rng = np.random.default_rng(23)
    signs = rng.integers(0, 2, size=(64, width)).astype(bool)
    zeros = np.where(signs, -0.0, 0.0)
    values = rng.standard_normal((64, width)) * 10.0 ** rng.integers(-8, 8, size=(64, width))
    values[:, -1] = zeros[:, -1]
    values[::5] = zeros[::5]
    values[1::7, 0] = math.nan
    for rows in (zeros, values, np.concatenate([values, zeros])):
        assert b"".join(format_rows(rows)) == percent_17g(rows)
    assert b"".join(format_rows(np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]))) == b"0,-0,0\n-0,-0,0\n"


def test_format_rows_fills_each_value_group_once(monkeypatch):
    # the group tables are the module's: a second call on the same values
    # finds every group filled and derives no power of ten
    pow10, calls = riskcbf._format._pow10, []
    monkeypatch.setattr(riskcbf._format, "_pow10", lambda p: calls.append(p) or pow10(p))
    values = np.outer([-1.5, 1.5], 10.0 ** np.arange(-280.0, 280.0, 7.0))
    first = b"".join(format_rows(values))
    calls.clear()
    assert b"".join(format_rows(values)) == first == percent_17g(values)
    assert calls == []


@pytest.mark.parametrize(
    "hi, lo, decided",
    [
        (12345678901234512.0, 0.25, True),
        (12345678901234512.0, 0.5, False),  # a tie, left to '%.17g'
        (12345678901234512.0, 0.5 + 2.0**-38, True),
        (99999999999999984.0, 15.4, True),
        (99999999999999984.0, 15.7, False),  # rounds to 1e17
        (9999999999999998.0, 1.97, True),  # rounds to 1e16, as 17 digits would
        (9999999999999998.0, 1.9, False),  # 17 digits of the lower exponent end 9
    ],
)
def test_significand_defers_what_its_bound_cannot_decide(hi, lo, decided):
    n, ok = _significand(np.ones(1), np.array([hi]), np.array([lo]))
    assert ok.tolist() == [decided]
    if decided:
        assert n.tolist() == [int(hi) + round(lo)]


@pytest.mark.parametrize("source", [SOURCE, (7.3137, 9.8731)])
def test_format_rows_is_17g_on_every_shipped_grid(source):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "field_default.cfg")
    params = cfg.field_params()
    bounds, resolution, _ = cfg.grid_geometry()
    grids = list(moment_grids(params, source, bounds, resolution))
    grids += [rasterize(spec, params, source, bounds, resolution) for spec in cfg.specs()]
    for grid in grids:
        assert b"".join(format_rows(grid.values)) == percent_17g(grid.values)


def test_grid_json_schema(tmp_path):
    grid = rasterize(ExpectedRisk(), PARAMS, SOURCE, BOUNDS, (8, 8))
    path = tmp_path / "grid.json"
    grid.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["bounds"] == [0.0, 15.0, 0.0, 15.0]
    assert payload["resolution"] == [8, 8]
    assert len(payload["values"]) == 64
    assert np.allclose(
        np.array(payload["values"]).reshape(8, 8), grid.values
    )


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    # JSON has no token for them: nothing is written, not even an empty file
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"v": [1.0, value]})
    assert not path.exists()


def test_polylines_json(tmp_path):
    polys = level_set(CPT(0.3, 1.0, 0.8, 3.0), PARAMS, SOURCE, BOUNDS, (60, 60), PARAMS.sigma_peak)
    path = tmp_path / "ls.json"
    polylines_to_json(polys, path)
    payload = json.loads(path.read_text())
    assert len(payload) == len(polys) == 2
    assert all(len(pt) == 2 for poly in payload for pt in poly)
    assert all(np.array_equal(a, b) for a, b in zip(payload, polys))


def test_cpt_safe_sets_nested_decreasing_in_lambda():
    # with every discretized outcome >= 1, the value grows with lambda,
    # so safe sets shrink as risk aversion increases
    c_min, _ = discretized_cost_range(PARAMS, SOURCE, BOUNDS, AUDIT_RES)
    assert c_min >= 1.0
    rho = PARAMS.sigma_peak
    previous = None
    for lam in (1.5, 2.0, 2.5, 3.0, 3.5):
        grid = rasterize(CPT(0.74, 1.0, 0.88, lam), PARAMS, SOURCE, BOUNDS, AUDIT_RES)
        current = safe_mask(grid, rho)
        if previous is not None:
            assert not np.any(current & ~previous)  # current subset of previous
        previous = current


# --- one meaning per risk model ---------------------------------------------
#
# Field-level properties the lottery layer has: CPT(1, 1, 1, 1) is ER,
# and CVaR(q) is the mean of the worst 1 - q of the lattice's mass. No
# outcome clamps for any k2 <= 1/2, so they hold on every field; these
# span the domain's edges k2 = 1/2 and r_bar = 0.

# relative positions along one ray, |xi| = 0, 0.1, ..., 4 (0.3 included),
# on which every field's moments stay normal
RAY = np.linspace(0.0, 4.0, 41)[:, None] * np.array([0.6, 0.8])
CVAR_QS = (0.0, 0.001, 0.1, 0.4, 0.8, 0.95, 0.999, 1.0)
LOTTERY_FIELDS = (
    PARAMS,
    CostFieldParams(200.0, 0.5, 0.5),
    CostFieldParams(200.0, 0.5, 0.0),
    CostFieldParams(1.0, 0.2, 0.0, 40),
    CostFieldParams(1e3, 0.05, 5.0, 2),
)


def field_values(spec, params=PARAMS, xi=RAY):
    return evaluate(spec, params, xi, grad=False)[0]


def test_unit_cpt_field_equals_er_field():
    # CPT(1, 1, 1, 1) is the risk-neutral expectation
    for params in LOTTERY_FIELDS:
        np.testing.assert_allclose(field_values(CPT(1.0, 1.0, 1.0, 1.0), params), field_values(ExpectedRisk(), params),
                                   rtol=1e-9, err_msg=str(params))


def test_cvar_field_within_truncation_bound():
    # the cost lottery is truncated at 3 sigma
    for params in LOTTERY_FIELDS:
        bound = cost_mean(params, RAY) + 3.0 * cost_sigma(params, RAY)
        for q in CVAR_QS:
            assert np.all(field_values(CVaR(q), params) <= bound * (1.0 + 1e-12)), (params, q)


def test_cvar_field_nondecreasing_in_q():
    # CVaR(q) averages the worst 1 - q, so it grows with q
    for params in LOTTERY_FIELDS:
        values = np.array([field_values(CVaR(q), params) for q in CVAR_QS])
        assert np.all(np.diff(values, axis=0) >= -1e-12 * values[1:]), params


def test_cvar_field_continuous_at_zero():
    # CVaR(0) is the expectation; a small q stays within 0.1% of it
    er = field_values(CVaR(0.0))
    np.testing.assert_allclose(field_values(CVaR(1e-6)), er, rtol=1e-3)
