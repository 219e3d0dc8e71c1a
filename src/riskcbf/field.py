"""Spatial cost fields, perceived-risk fields and safe-set machinery.

The uncertain cost of being at relative position xi (obstacle minus
agent) has mean k1*exp(-k2*|xi|^2) and standard deviation
c_mu(r_bar) * p_N(xi, I), the bivariate standard normal density scaled
by the mean cost at the localization radius. Risk models from
:mod:`riskcbf.risk` turn the (mean, deviation) pair into a scalar
perceived-risk field whose sublevel sets are the perceived-safe sets.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

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


@dataclass(frozen=True)
class FieldGrid:
    """Scalar field sampled on cell centers of an axis-aligned rectangle.

    values[i, j] is the sample at (x_i, y_j) with x_i = xmin + (i+0.5)*dx;
    evaluation and serialization are row-major over i then j.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.nx, self.ny):
            raise ValueError(
                f"values shape {values.shape} does not match resolution "
                f"({self.nx}, {self.ny})"
            )
        object.__setattr__(self, "values", values)

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / self.ny

    def x_centers(self) -> np.ndarray:
        return self.xmin + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return self.ymin + (np.arange(self.ny) + 0.5) * self.dy

    def to_csv(self, path) -> None:
        v = self.values
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("xmin,xmax,ymin,ymax,nx,ny\n")
            fh.write(
                f"{self.xmin:.17g},{self.xmax:.17g},{self.ymin:.17g},"
                f"{self.ymax:.17g},{self.nx},{self.ny}\n"
            )
            if ((v == 1.0) | ((v == 0.0) & ~np.signbit(v))).all():
                # a 0/1 grid (a safe mask): '%.17g' writes +0.0 and 1.0 as
                # the digits 0 and 1, so the rows are one byte buffer
                text = np.full((self.nx, 2 * self.ny), ord(","), dtype=np.uint8)
                text[:, 0::2] = v + ord("0")
                text[:, -1] = ord("\n")
                fh.write(text.tobytes().decode("ascii"))
                return
            # '%.17g' % v gives the bytes of f"{v:.17g}" for every float
            row = ",".join(["%.17g"] * self.ny) + "\n"
            for values in v:
                fh.write(row % tuple(values.tolist()))

    @classmethod
    def from_csv(cls, path) -> "FieldGrid":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != ["xmin", "xmax", "ymin", "ymax", "nx", "ny"]:
                raise ValueError(f"unrecognized grid CSV header in {path}")
            meta = fh.readline().strip().split(",")
            xmin, xmax, ymin, ymax = (float(v) for v in meta[:4])
            nx, ny = int(meta[4]), int(meta[5])
            values = np.loadtxt(fh, delimiter=",").reshape(nx, ny)
        return cls(xmin, xmax, ymin, ymax, nx, ny, values)

    def to_json(self, path) -> None:
        payload = {
            "bounds": [self.xmin, self.xmax, self.ymin, self.ymax],
            "resolution": [self.nx, self.ny],
            "values": self.values.reshape(-1).tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


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
def _grid_offsets(source: tuple, bounds: tuple, resolution: tuple) -> np.ndarray:
    # one read-only (nx, ny, 2) array per geometry, shared by every grid on it
    nx, ny = resolution
    grid = FieldGrid(*bounds, nx, ny, values=np.zeros((nx, ny)))
    xi = np.empty((2, nx, ny))  # component-major: _r2 reads each xi[..., k] contiguously
    xi[0] = source[0] - grid.x_centers()[:, None]
    xi[1] = source[1] - grid.y_centers()
    xi.flags.writeable = False
    return np.moveaxis(xi, 0, -1)


def sample_grid(fn, source, bounds, resolution) -> FieldGrid:
    """The cell-center grid over bounds at resolution whose cell (i, j)
    holds fn at xi = source - center(i, j); fn maps the (nx, ny, 2)
    offsets, a read-only array, to (nx, ny) values."""
    bounds = tuple(float(b) for b in bounds)
    resolution = tuple(int(r) for r in resolution)
    xi = _grid_offsets(tuple(np.asarray(source, dtype=float).tolist()), bounds, resolution)
    return FieldGrid(*bounds, *resolution, values=fn(xi))


def rasterize(
    spec: RiskSpec,
    params: CostFieldParams,
    source,
    bounds: tuple[float, float, float, float],
    resolution: tuple[int, int],
) -> FieldGrid:
    """Evaluate the perceived-risk field over a cell-center grid.

    Cell (i, j) holds the risk at xi = source - center(i, j). The
    vectorized evaluation is cell-wise pure, hence identical to a
    sequential row-major loop.
    """
    return sample_grid(lambda xi: evaluate(spec, params, xi, grad=False)[0], source, bounds, resolution)


def rasterize_specs(specs, params: CostFieldParams, source, bounds, resolution):
    """Yield ``rasterize(spec, params, source, bounds, resolution)`` for
    each spec, in order, with the bytes of that one-spec call.

    CPT's value lam * sum_i Pi_i * c_i**gamma applies lam last, so the
    CPT specs that differ only in lam share one rasterize call at lam = 1,
    and each yields lam times that grid: 1.0 * x == x, so the product has
    the bytes of the direct call. A shared grid is held until the last
    spec of its group.
    """
    specs = tuple(specs)
    left = Counter(replace(s, lam=1.0) for s in specs if isinstance(s, CPT))
    unit: dict[CPT, FieldGrid] = {}
    for spec in specs:
        if not isinstance(spec, CPT):
            yield rasterize(spec, params, source, bounds, resolution)
            continue
        key = replace(spec, lam=1.0)
        if key not in unit:
            unit[key] = rasterize(key, params, source, bounds, resolution)
        left[key] -= 1
        grid = unit[key] if left[key] else unit.pop(key)
        grid = replace(grid, values=spec.lam * grid.values)  # drops the reference to the shared grid
        yield grid


def discretized_cost_range(
    params: CostFieldParams, source, bounds, resolution
) -> tuple[float, float]:
    """(min, max) over the grid of the discretized cost outcomes."""
    mu = sample_grid(partial(cost_mean, params), source, bounds, resolution).values
    sigma = sample_grid(partial(cost_sigma, params), source, bounds, resolution).values
    g = lattice_coeffs(params.m)
    low = np.maximum(mu + g[0] * sigma, 0.0)
    high = mu + g[-1] * sigma
    return float(low.min()), float(high.max())


def safe_mask(grid: FieldGrid, rho: float) -> np.ndarray:
    """Boolean grid of the perceived-safe set {risk <= rho}; the risky
    set is its complement."""
    return grid.values <= rho


# Marching-squares segment table. Corners of a marching cell between
# grid nodes (i, j) and (i+1, j+1): A=(i,j), B=(i+1,j), C=(i+1,j+1),
# D=(i,j+1); bit set means the corner is above the level. Edges are
# named by the corner pair they join.
_SEG_TABLE = {
    1: (("AB", "AD"),),
    2: (("AB", "BC"),),
    3: (("AD", "BC"),),
    4: (("BC", "DC"),),
    6: (("AB", "DC"),),
    7: (("AD", "DC"),),
    8: (("AD", "DC"),),
    9: (("AB", "DC"),),
    11: (("BC", "DC"),),
    12: (("AD", "BC"),),
    13: (("AB", "BC"),),
    14: (("AB", "AD"),),
}


def level_set(grid: FieldGrid, rho: float) -> list[np.ndarray]:
    """Marching-squares contour of the level {value == rho}.

    Runs on the cell-center lattice with linear interpolation along
    edges; saddle cells (ambiguous diagonal cases) are resolved by the
    sign of the four-corner mean, a cell-center sample of the field.
    Returns polylines as (K, 2) arrays; closed contours repeat their
    first vertex. Returns [] when rho lies outside the value range.
    """
    v = grid.values
    if rho < v.min() or rho > v.max():
        return []
    s = v - rho
    xs = grid.x_centers()
    ys = grid.y_centers()
    points: dict[tuple, tuple[float, float]] = {}

    def edge_key(name: str, i: int, j: int) -> tuple:
        if name == "AB":
            key = ("h", i, j)
            n0, n1 = (i, j), (i + 1, j)
        elif name == "DC":
            key = ("h", i, j + 1)
            n0, n1 = (i, j + 1), (i + 1, j + 1)
        elif name == "AD":
            key = ("v", i, j)
            n0, n1 = (i, j), (i, j + 1)
        else:  # BC
            key = ("v", i + 1, j)
            n0, n1 = (i + 1, j), (i + 1, j + 1)
        if key not in points:
            s0, s1 = s[n0], s[n1]
            t = s0 / (s0 - s1)
            x0, y0 = xs[n0[0]], ys[n0[1]]
            x1, y1 = xs[n1[0]], ys[n1[1]]
            points[key] = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        return key

    # case of every cell at once; only the cells the level crosses
    # (case neither 0 nor 15) are visited, in row-major order
    a = (s > 0).astype(np.int8)
    cases = a[:-1, :-1] | a[1:, :-1] << 1 | a[1:, 1:] << 2 | a[:-1, 1:] << 3
    crossing = np.nonzero((cases != 0) & (cases != 15))
    segments: list[tuple[tuple, tuple]] = []
    for i, j, case in zip(*(idx.tolist() for idx in crossing), cases[crossing].tolist()):
        if case in (5, 10):
            center_above = (
                s[i, j] + s[i + 1, j] + s[i + 1, j + 1] + s[i, j + 1]
            ) > 0
            if (case == 5) == center_above:
                pairs = (("AB", "BC"), ("AD", "DC"))
            else:
                pairs = (("AB", "AD"), ("BC", "DC"))
        else:
            pairs = _SEG_TABLE[case]
        for e0, e1 in pairs:
            segments.append((edge_key(e0, i, j), edge_key(e1, i, j)))

    return _chain_segments(segments, points)


def _chain_segments(segments, points) -> list[np.ndarray]:
    adjacency: dict[tuple, list] = defaultdict(list)
    for idx, (k0, k1) in enumerate(segments):
        adjacency[k0].append((k1, idx))
        adjacency[k1].append((k0, idx))
    used = [False] * len(segments)

    def walk(start):
        keys = [start]
        cur = start
        while True:
            step = None
            for other, idx in adjacency[cur]:
                if not used[idx]:
                    used[idx] = True
                    step = other
                    break
            if step is None:
                return keys
            keys.append(step)
            cur = step

    polylines = []
    endpoints = [k for k, lst in adjacency.items() if len(lst) == 1]
    for start in endpoints:
        if all(used[idx] for _, idx in adjacency[start]):
            continue
        polylines.append(walk(start))
    for start in adjacency:
        if any(not used[idx] for _, idx in adjacency[start]):
            polylines.append(walk(start))
    return [np.array([points[k] for k in keys]) for keys in polylines]


def polylines_to_json(polylines, path) -> None:
    """Write level-set polylines as a JSON list of [x, y] point lists."""
    payload = [[[float(x), float(y)] for x, y in poly] for poly in polylines]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


@dataclass(frozen=True)
class InclusivenessReport:
    """Cell-wise comparison of two families' total safe and risky sets.

    The audit replaces the universally quantified definition with one
    concrete field, source and grid (recorded in ``scope``). Subset
    flags compare family2's total sets against family1's; witness
    counts are cells family1 covers exclusively, violation counts cells
    that break the subset relation.
    """

    family1: tuple[str, ...]
    family2: tuple[str, ...]
    rho: float
    safe_subset: bool
    risky_subset: bool
    safe_witnesses: int
    risky_witnesses: int
    safe_violations: int
    risky_violations: int
    witness_cells_safe: tuple[tuple[int, int], ...]
    witness_cells_risky: tuple[tuple[int, int], ...]
    verdict: str
    scope: str


# witness cells listed per subset relation in an InclusivenessReport
MAX_WITNESSES = 8


def inclusiveness_audit(
    family1,
    family2,
    params: CostFieldParams,
    source,
    bounds,
    resolution,
    rho: float,
) -> InclusivenessReport:
    """Decide whether family1 is (strictly) more inclusive than family2.

    Each family maps its member specs to their boolean safe masks at
    rho (``safe_mask(rasterize(spec, params, source, bounds,
    resolution), rho)``); params, source, bounds and resolution only
    describe that grid in the report's scope. Total safe and risky sets
    are unions of the per-member sets; the verdict is "strictly more
    inclusive" when both containments are strict, "more inclusive" when
    both hold and at least one is strict, "equivalent" when the total
    sets coincide, else "incomparable".
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
        rho=float(rho),
        safe_subset=safe_subset,
        risky_subset=risky_subset,
        safe_witnesses=n_safe_wit,
        risky_witnesses=n_risky_wit,
        safe_violations=int(safe_viol.sum()),
        risky_violations=int(risky_viol.sum()),
        witness_cells_safe=cells(safe_wit),
        witness_cells_risky=cells(risky_wit),
        verdict=verdict,
        scope=_scope(params, source, bounds, resolution),
    )


@dataclass(frozen=True)
class VersatilityReport:
    """Which mean-cost sublevel sets a family can certify as safe.

    ``achieved[k]`` is True when some member's safe set contains
    {x : c_mu(source - x) <= levels[k]}; ``achieved_by`` names one such
    member. ``interval`` is the widest contiguous run of achieved
    levels (None when nothing is achieved).
    """

    levels: tuple[float, ...]
    achieved: tuple[bool, ...]
    achieved_by: tuple[str | None, ...]
    runs: tuple[tuple[float, float], ...]
    interval: tuple[float, float] | None
    rho: float
    scope: str


def versatility_audit(
    family,
    params: CostFieldParams,
    source,
    bounds,
    resolution,
    rho: float,
    c_levels,
) -> VersatilityReport:
    """Report the interval of mean-cost levels whose sublevel sets some
    family member certifies as safe at tolerance rho.

    family maps member specs to their safe masks at rho on the grid of
    params, source, bounds and resolution, as in inclusiveness_audit.
    """
    if not family:
        raise ValueError("family must be non-empty")
    levels = sorted(float(c) for c in c_levels)
    mu = sample_grid(partial(cost_mean, params), source, bounds, resolution).values

    achieved = []
    achieved_by: list[str | None] = []
    for level in levels:
        sub = mu <= level
        winner = None
        for spec, safe in family.items():
            if not (sub & ~safe).any():
                winner = spec_label(spec)
                break
        achieved.append(winner is not None)
        achieved_by.append(winner)

    runs = []
    k = 0
    while k < len(levels):
        if achieved[k]:
            start = k
            while k + 1 < len(levels) and achieved[k + 1]:
                k += 1
            runs.append((levels[start], levels[k]))
        k += 1
    interval = max(runs, key=lambda r: r[1] - r[0]) if runs else None

    return VersatilityReport(
        levels=tuple(levels),
        achieved=tuple(achieved),
        achieved_by=tuple(achieved_by),
        runs=tuple(runs),
        interval=interval,
        rho=float(rho),
        scope=_scope(params, source, bounds, resolution),
    )


def _scope(params, source, bounds, resolution) -> str:
    source = np.asarray(source, dtype=float)
    return (
        f"fixed field k1={params.k1:g} k2={params.k2:g} r_bar={params.r_bar:g} "
        f"m={params.m}, source=({source[0]:g}, {source[1]:g}), "
        f"bounds={tuple(float(b) for b in bounds)}, "
        f"resolution={tuple(int(r) for r in resolution)}"
    )
