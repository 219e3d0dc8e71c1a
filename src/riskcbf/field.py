"""Spatial cost fields, perceived-risk fields and safe-set machinery.

The uncertain cost of being at relative position xi (obstacle minus
agent) has mean k1*exp(-k2*|xi|^2) and standard deviation
c_mu(r_bar) * p_N(xi, I), the bivariate standard normal density scaled
by the mean cost at the localization radius. Risk models from
:mod:`riskcbf.risk` turn the (mean, deviation) pair into a scalar
perceived-risk field whose sublevel sets are the perceived-safe sets.
Both moments depend on |xi| alone, so every field is radial about its
source, and each level set is the circles at the roots of its profile.
Every model reads the same moments, so a grid's (c_mu, c_sigma) pair is
computed once per field and geometry by :func:`moment_grids` and shared
read-only: :func:`rasterize`, the cost range and the audit levels read it.
:func:`rasterize` shares one evaluation among consecutive CPT specs that
differ only in lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._format import format_rows, write_json
from .distributions import lattice_coeffs
from .risk import CPT, RiskSpec, moment_risk, spec_label

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CostFieldParams:
    """Constants of the spatial cost: peak k1, decay k2, localization
    radius r_bar, and the lottery size m used to discretize the cost."""

    k1: float
    k2: float
    r_bar: float
    m: int = 10

    def __post_init__(self):
        # each check is a range that NaN fails
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError("k1 and k2 must be positive and finite")
        if not 0 <= self.r_bar < math.inf:
            raise ValueError("r_bar must be nonnegative and finite")
        if self.m < 2:
            raise ValueError("m must be at least 2")

    @property
    def sigma_peak(self) -> float:
        """c_mu evaluated at the localization radius r_bar."""
        return self.k1 * math.exp(-self.k2 * self.r_bar ** 2)


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    """The centers of the n equal cells that cut [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


@dataclass(frozen=True)
class FieldGrid:
    """Scalar field sampled on cell centers of an axis-aligned rectangle.

    values[i, j] is the sample at (x_i, y_j) with x_i = xmin + (i+0.5)*dx;
    the resolution (nx, ny) is the shape of values. Evaluation and
    serialization are row-major over i then j.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or min(values.shape) < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
        object.__setattr__(self, "values", values)

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / self.ny

    def x_centers(self) -> np.ndarray:
        return _centers(self.xmin, self.xmax, self.nx)

    def y_centers(self) -> np.ndarray:
        return _centers(self.ymin, self.ymax, self.ny)

    def to_csv(self, path) -> None:
        v = self.values
        with open(path, "wb") as fh:
            fh.write(
                f"xmin,xmax,ymin,ymax,nx,ny\n{self.xmin:.17g},{self.xmax:.17g},{self.ymin:.17g},"
                f"{self.ymax:.17g},{self.nx},{self.ny}\n".encode("ascii")
            )
            if ((v == 1.0) | ((v == 0.0) & ~np.signbit(v))).all():
                # a 0/1 grid (a safe mask): '%.17g' writes +0.0 and 1.0 as
                # the digits 0 and 1, so the rows are one byte buffer
                text = np.full((self.nx, 2 * self.ny), ord(","), dtype=np.uint8)
                text[:, 0::2] = v + ord("0")
                text[:, -1] = ord("\n")
                fh.write(text)
                return
            fh.writelines(format_rows(v))

    def to_json(self, path) -> None:
        write_json(path, {
            "bounds": [self.xmin, self.xmax, self.ymin, self.ymax],
            "resolution": [self.nx, self.ny],
            "values": self.values.reshape(-1).tolist(),
        })


def _moments(params: CostFieldParams, r2):
    """Cost mean k1 * exp(-k2 * r2) and deviation
    c_mu(r_bar) * exp(-r2 / 2) / (2*pi) at squared distance r2."""
    mu = params.k1 * np.exp(-params.k2 * r2)
    sigma = params.sigma_peak / TWO_PI * np.exp(-0.5 * r2)
    return mu, sigma


def _r2(xi: np.ndarray):
    # the bytes of np.sum(xi * xi, axis=-1) without its reduction over a
    # length-2 axis, which costs a grid about ten times as much
    return xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1]


def cost_mean(params: CostFieldParams, xi) -> float | np.ndarray:
    """Mean cost k1 * exp(-k2 * |xi|^2); peaks at the source."""
    out = _moments(params, _r2(np.asarray(xi, dtype=float)))[0]
    return float(out) if out.ndim == 0 else out


def cost_sigma(params: CostFieldParams, xi) -> float | np.ndarray:
    """Cost standard deviation c_mu(r_bar) * exp(-|xi|^2 / 2) / (2*pi)."""
    out = _moments(params, _r2(np.asarray(xi, dtype=float)))[1]
    return float(out) if out.ndim == 0 else out


def cost_gradients(params: CostFieldParams, xi) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the mean and deviation fields with respect to xi."""
    xi = np.asarray(xi, dtype=float)
    return _moment_gradients(params, xi, *_moments(params, _r2(xi)))


def _moment_gradients(params, xi, mu, sigma):
    # d c_mu/dxi = -2 k2 xi c_mu and d c_sigma/dxi = -xi c_sigma
    return -2.0 * params.k2 * xi * mu[..., None], -xi * sigma[..., None]


def evaluate(spec: RiskSpec, params: CostFieldParams, xi, grad: bool = True):
    """Perceived risk R and its gradient dR/dxi at relative positions xi.

    xi has shape (..., 2): one point, a batch or a grid. R has shape
    xi.shape[:-1] and dR/dxi the shape of xi; the gradient chains the
    (c_mu, c_sigma) partials of :func:`riskcbf.risk.moment_risk` through
    the cost-field gradients. grad=False returns (R, None) and computes
    no partials.
    """
    xi = np.asarray(xi, dtype=float)
    mu, sigma = _moments(params, _r2(xi))
    value, d_mu, d_sigma = moment_risk(spec, mu, sigma, params.m, grad=grad)
    if not grad:
        return value, None
    grad_mu, grad_sigma = _moment_gradients(params, xi, mu, sigma)
    return value, d_mu[..., None] * grad_mu + d_sigma[..., None] * grad_sigma


@lru_cache(maxsize=1)
def _grid_moments(params: CostFieldParams, source: tuple, bounds: tuple, resolution: tuple):
    # one read-only (c_mu, c_sigma) pair per field and geometry, shared by every grid on it
    (xmin, xmax, ymin, ymax), (nx, ny) = bounds, resolution
    dx = source[0] - _centers(xmin, xmax, nx)[:, None]
    dy = source[1] - _centers(ymin, ymax, ny)
    moments = _moments(params, dx * dx + dy * dy)  # the bytes of _r2 on the cell offsets
    for values in moments:
        values.flags.writeable = False
    return moments


def _geometry(source, bounds, resolution) -> tuple[tuple, tuple, tuple]:
    # the hashable form of a grid's geometry that keys the caches below
    return (tuple(np.asarray(source, dtype=float).tolist()), tuple(float(b) for b in bounds),
            tuple(int(r) for r in resolution))


def moment_grids(params: CostFieldParams, source, bounds, resolution) -> tuple[FieldGrid, FieldGrid]:
    """The c_mu and c_sigma grids over bounds at resolution: cell (i, j)
    holds the cost moments at xi = source - center(i, j). Both are
    computed once per field and geometry and shared read-only."""
    source, bounds, resolution = _geometry(source, bounds, resolution)
    return tuple(FieldGrid(*bounds, values=values) for values in _grid_moments(params, source, bounds, resolution))


@lru_cache(maxsize=1)
def _unit_risk(key: RiskSpec, params: CostFieldParams, source: tuple, bounds: tuple, resolution: tuple):
    # the read-only risk grid of the last key rasterized: CPT specs that
    # differ only in lam share the grid of their lam = 1 key. The previous
    # grid is dropped before this one is evaluated, so the two never
    # coexist: holding it through the evaluation, as a plain lru_cache
    # does, raised the peak RSS of the benchmark's field_maps run by 2%.
    _unit_risk.cache_clear()
    mu, sigma = _grid_moments(params, source, bounds, resolution)
    values = moment_risk(key, mu, sigma, params.m, grad=False)[0]
    values.flags.writeable = False
    return values


def rasterize(
    spec: RiskSpec,
    params: CostFieldParams,
    source,
    bounds: tuple[float, float, float, float],
    resolution: tuple[int, int],
) -> FieldGrid:
    """Evaluate the perceived-risk field over a cell-center grid.

    Cell (i, j) holds the risk at xi = source - center(i, j), from the
    moments of :func:`moment_grids`. The vectorized evaluation is
    cell-wise pure, hence identical to a sequential row-major loop.

    CPT's value lam * sum_i Pi_i * c_i**gamma applies lam last, so a CPT
    spec's grid is lam times the grid of its lam = 1 key, and any other
    spec's is 1.0 times its own: both have the bytes of a direct
    evaluation, as 1.0 * x == x. The last key's grid is kept, so
    consecutive calls on CPT specs that differ only in lam evaluate it
    once. The returned values are the caller's own array. A grid that
    holds inf or nan raises ValueError naming the spec.
    """
    source, bounds, resolution = _geometry(source, bounds, resolution)
    lam, key = (spec.lam, replace(spec, lam=1.0)) if isinstance(spec, CPT) else (1.0, spec)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite grid is refused below
        values = lam * _unit_risk(key, params, source, bounds, resolution)
    if not np.isfinite(values.max()):  # risks are >= 0, and max propagates nan
        raise ValueError(f"the risk grid of {spec_label(spec)} holds a non-finite value")
    return FieldGrid(*bounds, values=values)


def discretized_cost_range(params: CostFieldParams, source, bounds, resolution) -> tuple[float, float]:
    """(min, max) over the grid of the discretized cost outcomes."""
    mu, sigma = (grid.values for grid in moment_grids(params, source, bounds, resolution))
    g = lattice_coeffs(params.m)
    low = np.maximum(mu + g[0] * sigma, 0.0)
    high = mu + g[-1] * sigma
    return float(low.min()), float(high.max())


def safe_mask(grid: FieldGrid, rho: float) -> np.ndarray:
    """Boolean grid of the perceived-safe set {risk <= rho}; the risky
    set is its complement."""
    return grid.values <= rho


# Level sets sample the radial profile every eighth of the smaller cell
# side, finer than the grid can separate two roots, and keep each chord of
# a circle within a hundredth of that side of its arc, far below the grid.
_PROFILE_STEP = 1 / 8
_CHORD_FRACTION = 0.01


def _root_radii(spec, params, rho: float, r_max: float, step: float) -> np.ndarray:
    """Ascending radii in [0, r_max] at which ``R > rho`` changes on the
    radial profile sampled at most step apart, each within step / 64**4.
    ER and CVaR keep R = c_mu + k * c_sigma with k >= 0 at every k2
    (``moment_risk``), and both moments strictly decrease in r, so each
    of their profiles has at most one root at rho; CPT's may have more."""

    def above(r):
        return evaluate(spec, params, r[..., None] * (1.0, 0.0), grad=False)[0] > rho

    lo, hi = np.zeros(1), np.full(1, r_max)
    # the profile, then four rounds that cut every bracket into 64, each one call
    for n in (math.ceil(r_max / step), 64, 64, 64, 64):
        t = lo[:, None] + (hi - lo)[:, None] * (np.arange(n + 1) / n)
        t[:, -1] = hi  # so that each bracket keeps the sides of its ends
        i, j = np.nonzero(np.diff(above(t), axis=1))
        lo, hi = t[i, j], t[i, j + 1]
    return 0.5 * (lo + hi)


def level_set(spec: RiskSpec, params: CostFieldParams, source, bounds, resolution, rho: float) -> list[np.ndarray]:
    """Polylines, as (K, 2) arrays, of the level {R = rho} of ``rasterize(
    spec, params, source, bounds, resolution)`` over its cell-center window
    [x_0, x_{nx-1}] x [y_0, y_{ny-1}]: the circles about source at the radii
    where ``R > rho`` changes out to the window's farthest corner. Roots
    closer together than the profile step may merge, as the grid cannot
    resolve them either. A circle inside the window is one closed polyline
    that repeats its first vertex; one that crosses its edge gives an open
    arc per inside run, ending exactly on the edge. Polylines come by
    ascending radius, each counter-clockwise.
    """
    (xmin, xmax, ymin, ymax), (nx, ny) = bounds, resolution
    (x0, x1), (y0, y1) = _centers(xmin, xmax, nx)[[0, -1]], _centers(ymin, ymax, ny)[[0, -1]]
    cx, cy = np.asarray(source, dtype=float).tolist()
    r_max = max(math.hypot(x - cx, y - cy) for x in (x0, x1) for y in (y0, y1))
    cell = min((xmax - xmin) / nx, (ymax - ymin) / ny)
    polylines = []
    for r in _root_radii(spec, params, rho, r_max, _PROFILE_STEP * cell).tolist():
        cuts = []  # (angle, axis, edge) where the circle meets each window edge
        for axis, center, edge in ((0, cx, x0), (0, cx, x1), (1, cy, y0), (1, cy, y1)):
            d = (edge - center) / r
            if -1.0 <= d <= 1.0:
                cuts += [((axis * math.pi / 2 + s * math.acos(d)) % TWO_PI, axis, edge) for s in (1, -1)]
        # a circle that meets no edge is one span from angle 0 round to
        # 2pi, and setting y = cy at both its ends makes them (cx + r, cy)
        cuts = sorted(cuts) or [(0.0, 1, cy)]
        step = 2.0 * math.acos(max(1.0 - _CHORD_FRACTION * cell / r, -1.0))  # the widest angle within the chord bound
        # the spans between consecutive cuts alternate in and out of the
        # window, and the last one passes angle 0
        for (a, axis0, edge0), (b, axis1, edge1) in zip(cuts, cuts[1:] + [(cuts[0][0] + TWO_PI, *cuts[0][1:])]):
            x, y = cx + r * math.cos(0.5 * (a + b)), cy + r * math.sin(0.5 * (a + b))
            if b > a and x0 <= x <= x1 and y0 <= y <= y1:
                theta = np.linspace(a, b, math.ceil((b - a) / step) + 1)
                poly = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
                poly[0, axis0], poly[-1, axis1] = edge0, edge1
                polylines.append(poly)
    return polylines


def polylines_to_json(polylines, path) -> None:
    """Write level-set polylines as a JSON list of [x, y] point lists."""
    write_json(path, [poly.tolist() for poly in polylines])


@dataclass(frozen=True)
class InclusivenessReport:
    """Cell-wise comparison of two families' total safe and risky sets.

    The audit replaces the universally quantified definition with the
    cells of one grid. Subset flags compare family2's total sets against
    family1's; witness counts are cells family1 covers exclusively,
    violation counts cells that break the subset relation.
    """

    family1: tuple[str, ...]
    family2: tuple[str, ...]
    safe_subset: bool
    risky_subset: bool
    safe_witnesses: int
    risky_witnesses: int
    safe_violations: int
    risky_violations: int
    witness_cells_safe: tuple[tuple[int, int], ...]
    witness_cells_risky: tuple[tuple[int, int], ...]
    verdict: str


# witness cells listed per subset relation in an InclusivenessReport
MAX_WITNESSES = 8


def inclusiveness_audit(family1, family2) -> InclusivenessReport:
    """Decide whether family1 is (strictly) more inclusive than family2.

    Each family maps its member specs to their boolean safe masks, all on
    one grid (``safe_mask(rasterize(spec, ...), rho)``). Total safe and
    risky sets are unions of the per-member sets; the verdict is
    "strictly more inclusive" when both containments are strict, "more
    inclusive" when both hold and at least one is strict, "equivalent"
    when the total sets coincide, else "incomparable".
    """
    if not family1 or not family2:
        raise ValueError("both families must be non-empty")
    safe1, safe2 = (np.any(list(f.values()), axis=0) for f in (family1, family2))
    risky1, risky2 = (~np.all(list(f.values()), axis=0) for f in (family1, family2))

    safe_viol = safe2 & ~safe1
    risky_viol = risky2 & ~risky1
    safe_wit = safe1 & ~safe2
    risky_wit = risky1 & ~risky2

    safe_subset = not safe_viol.any()
    risky_subset = not risky_viol.any()
    n_safe_wit = int(safe_wit.sum())
    n_risky_wit = int(risky_wit.sum())
    if safe_subset and risky_subset:
        if n_safe_wit > 0 and n_risky_wit > 0:
            verdict = "strictly more inclusive"
        elif n_safe_wit > 0 or n_risky_wit > 0:
            verdict = "more inclusive"
        else:
            verdict = "equivalent"
    else:
        verdict = "incomparable"

    def cells(mask):
        idx = np.argwhere(mask)[:MAX_WITNESSES]
        return tuple((int(i), int(j)) for i, j in idx)

    return InclusivenessReport(
        family1=tuple(spec_label(s) for s in family1),
        family2=tuple(spec_label(s) for s in family2),
        safe_subset=safe_subset,
        risky_subset=risky_subset,
        safe_witnesses=n_safe_wit,
        risky_witnesses=n_risky_wit,
        safe_violations=int(safe_viol.sum()),
        risky_violations=int(risky_viol.sum()),
        witness_cells_safe=cells(safe_wit),
        witness_cells_risky=cells(risky_wit),
        verdict=verdict,
    )


@dataclass(frozen=True)
class VersatilityReport:
    """Which mean-cost sublevel sets a family can certify as safe.

    ``achieved[k]`` is True when some member's safe set contains the
    cells whose mean cost is at most levels[k]; ``achieved_by`` names the
    first such member in family order. The sublevel sets grow with the
    level, so the achieved levels are a prefix of the ascending ``levels``:
    ``runs`` holds at most one run, from the lowest level, and
    ``interval`` is that run (None when nothing is achieved).
    """

    levels: tuple[float, ...]
    achieved: tuple[bool, ...]
    achieved_by: tuple[str | None, ...]
    runs: tuple[tuple[float, float], ...]
    interval: tuple[float, float] | None


def versatility_audit(family, mu, c_levels) -> VersatilityReport:
    """Report the interval of mean-cost levels whose sublevel sets some
    family member certifies as safe.

    family maps member specs to their safe masks, as in
    inclusiveness_audit, and mu holds the mean cost of each cell of
    their grid: the ``c_mu`` grid's values from :func:`moment_grids`.
    """
    if not family:
        raise ValueError("family must be non-empty")
    levels = sorted(float(c) for c in c_levels)

    # a member's reach is the least mean cost of its unsafe cells: its
    # safe set contains exactly the sublevel sets of the levels below it.
    # No member after one that reaches past every level is ever first.
    top = levels[-1] if levels else -math.inf
    reach = []
    for safe in family.values():
        reach.append(mu[~safe].min(initial=math.inf))
        if reach[-1] > top:
            break
    # the first member whose reach exceeds a level is the first whose
    # running maximum does; len(reach) where none does
    first = np.searchsorted(np.maximum.accumulate(reach), levels, side="right")
    names = [spec_label(spec) for spec in family] + [None]
    achieved_by = tuple(names[j] for j in first)
    achieved = tuple(name is not None for name in achieved_by)
    runs = ((levels[0], levels[sum(achieved) - 1]),) if any(achieved) else ()

    return VersatilityReport(
        levels=tuple(levels),
        achieved=achieved,
        achieved_by=achieved_by,
        runs=runs,
        interval=runs[0] if runs else None,
    )

