"""Perceived-risk barrier functions and the closed-form safety filter.

The barrier is h(xi) = rho - R(xi), so h > 0 exactly on the
perceived-safe set. Keeping hdot >= -eta1(h) with the linear
eta1(s) = gain * s renders the safe set forward invariant; with
relative dynamics xi_dot = f_y - f - G u the condition is a single
affine constraint in u, and the minimally invasive control is the exact
halfspace projection of the nominal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import CostFieldParams, evaluate, perceived_risk
from .risk import RiskSpec, spec_label


class InfeasibleConstraintError(RuntimeError):
    """The constraint normal vanished while the offset demands progress
    (a = 0, b > 0): the admissible control set is empty at this state."""


@dataclass(frozen=True)
class BarrierConfig:
    """Risk tolerance rho and the gain of the linear class-K function
    eta1."""

    rho: float
    eta1_gain: float = 1.0

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not 0 < self.eta1_gain < math.inf:
            raise ValueError("eta1_gain must be positive and finite")


@dataclass(frozen=True)
class AffineConstraint:
    """Halfspace a . u >= b in control space."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        if not (np.all(np.isfinite(a)) and math.isfinite(self.b)):
            raise ValueError("constraint entries must be finite")

    def satisfied_by(self, u, tol: float = 0.0) -> bool:
        return float(self.a @ np.asarray(u, dtype=float)) >= self.b - tol


def barrier_value(
    spec: RiskSpec, params: CostFieldParams, config: BarrierConfig, xi
) -> float:
    """h(xi) = rho - R(xi); positive iff the state is perceived safe."""
    return config.rho - perceived_risk(spec, params, xi)


def _barrier_terms(spec, params, config, x, y):
    """h and dR/dxi at xi = y - x from one risk evaluation."""
    xi = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    risk, g = evaluate(spec, params, xi)
    return config.rho - risk, g


def barrier_constraint(
    spec: RiskSpec,
    params: CostFieldParams,
    config: BarrierConfig,
    x,
    y,
    f,
    G,
    f_y,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barrier values h(y - x) and the affine constraints a . u >= b
    equivalent to hdot >= -eta1(h), from one risk evaluation.

    y and f_y hold one obstacle's position and velocity, shape (2,), or
    K obstacles', shape (K, 2); h and b have shape y.shape[:-1] and a
    the shape of y. With xi = y - x and g the risk-field gradient,
    hdot = -g . xi_dot = -g . (f_y - f - G u), so a = G^T g and
    b = g . (f_y - f) - eta1(h).
    """
    h, g = _barrier_terms(spec, params, config, x, y)
    d = np.asarray(f_y, dtype=float) - np.asarray(f, dtype=float)
    # stacked matmuls take the BLAS dot and matrix-vector product of a
    # one-obstacle call, so each row of a batch gets the same bytes
    a = (np.asarray(G, dtype=float).T @ g[..., None])[..., 0]
    b = (g[..., None, :] @ d[..., :, None])[..., 0, 0] - config.eta1_gain * h
    return h, a, b


def constraint(
    spec: RiskSpec,
    params: CostFieldParams,
    config: BarrierConfig,
    x,
    y,
    f,
    G,
    f_y,
) -> AffineConstraint:
    """Affine constraint a . u >= b equivalent to hdot >= -eta1(h) for
    one obstacle; see barrier_constraint."""
    _, a, b = barrier_constraint(spec, params, config, x, y, f, G, f_y)
    return AffineConstraint(a, b)


def qp_filter(k_nominal, con: AffineConstraint) -> np.ndarray:
    """Minimally invasive control: argmin ||u - k||^2 s.t. a . u >= b.

    Returns k unchanged when it already satisfies the constraint,
    otherwise the exact projection k + (b - a.k)/|a|^2 * a onto the
    halfspace boundary. Raises InfeasibleConstraintError when a = 0 and
    b > 0 (empty admissible set).
    """
    k = np.asarray(k_nominal, dtype=float)
    residual = con.b - float(con.a @ k)
    if residual <= 0.0:
        return k.copy()
    norm2 = float(con.a @ con.a)
    if norm2 == 0.0:
        raise InfeasibleConstraintError(
            f"constraint 0 . u >= {con.b!r} admits no control"
        )
    return k + (residual / norm2) * con.a


@dataclass(frozen=True)
class FeasibilityDiagnostics:
    """Separated form of the barrier condition at one (state, control).

    lhs is the relative-velocity component along the barrier gradient
    direction -dR/dxi (|xi_dot| times the cosine of the angle between
    them); rhs is -eta, with eta = eta1(h)/|dR/dxi| the model-specific
    bound. feasible is lhs >= rhs, which coincides with hdot >= -eta1(h)
    wherever the angle is defined; where it is not (zero gradient or
    zero relative velocity) feasibility falls back to the direct
    inequality and ``angle_defined`` is False.
    """

    lhs: float
    rhs: float
    feasible: bool
    eta: float
    h: float
    hdot: float
    grad_norm: float
    angle_defined: bool


def feasibility_margin(
    spec: RiskSpec,
    params: CostFieldParams,
    config: BarrierConfig,
    x,
    y,
    f,
    G,
    f_y,
    u,
) -> FeasibilityDiagnostics:
    """Evaluate the separated feasibility condition at (x, y, u).

    The eta reported here reduces per model to eta1(h)/|c_mu'| for ER
    and to the analogous ratios with the sigma-weighted gradient norms
    for CVaR and CPT, since dR/dxi = d_mu * c_mu' + d_sigma * c_sigma'.
    """
    h, g = _barrier_terms(spec, params, config, x, y)
    h = float(h)
    eta1_h = config.eta1_gain * h
    xi_dot = np.asarray(f_y, dtype=float) - (
        np.asarray(f, dtype=float) + np.asarray(G, dtype=float) @ np.asarray(u, dtype=float)
    )
    hdot = -float(g @ xi_dot)
    g_norm = float(np.linalg.norm(g))
    v_norm = float(np.linalg.norm(xi_dot))
    angle_defined = g_norm > 0.0 and v_norm > 0.0
    if g_norm > 0.0:
        lhs = hdot / g_norm
        eta = eta1_h / g_norm
        rhs = -eta
        feasible = lhs >= rhs
    else:
        lhs = 0.0
        eta = math.inf if eta1_h > 0 else -math.inf if eta1_h < 0 else 0.0
        rhs = -eta
        feasible = hdot >= -eta1_h
    return FeasibilityDiagnostics(
        lhs=lhs,
        rhs=rhs,
        feasible=feasible,
        eta=eta,
        h=h,
        hdot=hdot,
        grad_norm=g_norm,
        angle_defined=angle_defined,
    )


@dataclass(frozen=True)
class ProbeResult:
    """Feasible-sample counts of each spec's constraint at one state."""

    labels: tuple[str, ...]
    counts: tuple[int, ...]
    feasible: np.ndarray  # (n_specs, n_samples) boolean

    def to_dict(self) -> dict:
        return {"labels": list(self.labels), "counts": list(self.counts)}


def control_set_probe(
    specs,
    params: CostFieldParams,
    config: BarrierConfig,
    x,
    y,
    f,
    G,
    f_y,
    u_samples,
) -> ProbeResult:
    """Count which control samples satisfy each spec's constraint."""
    samples = np.atleast_2d(np.asarray(u_samples, dtype=float))
    if samples.size == 0:
        raise ValueError("u_samples must be non-empty")
    feasible = np.empty((len(specs), samples.shape[0]), dtype=bool)
    for row, spec in enumerate(specs):
        con = constraint(spec, params, config, x, y, f, G, f_y)
        feasible[row] = samples @ con.a >= con.b
    counts = tuple(int(n) for n in feasible.sum(axis=1))
    return ProbeResult(
        labels=tuple(spec_label(s) for s in specs), counts=counts, feasible=feasible
    )

