"""Perceived-risk barrier functions and the closed-form safety filter.

The barrier is h(xi) = rho - R(xi), so h > 0 exactly on the
perceived-safe set. Keeping hdot >= -eta1(h) with the linear
eta1(s) = gain * s renders the safe set forward invariant. The agent
is assumed to follow xdot = u, so with relative dynamics
xi_dot = f_y - u the condition is a single affine constraint in u, and
the minimally invasive control is the exact halfspace projection of
the nominal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import CostFieldParams, evaluate
from .risk import RiskSpec, row_dot


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


def barrier_constraint(
    spec: RiskSpec,
    params: CostFieldParams,
    config: BarrierConfig,
    x,
    y,
    f_y,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barrier values h(y - x) and the affine constraints a . u >= b
    equivalent to hdot >= -eta1(h), from one risk evaluation.

    The agent is the single integrator xdot = u. y and f_y hold one
    obstacle's position and velocity, shape (2,), or K obstacles',
    shape (K, 2); h and b have the leading shape of y - x and a its
    shape. spec may be a tuple of S specs (see moment_risk): then the
    leading axis of y - x, say of x with shape (S, 1, 2), is the lanes.
    With xi = y - x and g the risk-field gradient,
    hdot = -g . xi_dot = -g . (f_y - u), so a = g and
    b = g . f_y - eta1(h).
    """
    xi = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    risk, a = evaluate(spec, params, xi)
    h = config.rho - risk
    f_y = np.asarray(f_y, dtype=float)
    b = row_dot(a, f_y) - config.eta1_gain * h
    return h, a, b


def qp_filter(k_nominal, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Minimally invasive controls: per row, argmin ||u - k||^2 s.t.
    a . u >= b.

    k and a have shape (..., 2) and b the leading shape (...). Returns
    the controls (..., 2) and the feasibility mask (...). A row keeps k
    where k already satisfies its constraint, and is otherwise the exact
    projection k + (b - a.k)/|a|^2 * a onto the halfspace boundary. Where
    a = 0 and b > 0 the admissible set is empty: the row keeps k and is
    marked infeasible. Raises ValueError on non-finite a or b.
    """
    k = np.asarray(k_nominal, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("constraint entries must be finite")
    residual = b - row_dot(a, k)
    norm2 = row_dot(a, a)
    feasible = (residual <= 0.0) | (norm2 != 0.0)
    project = (residual > 0.0) & feasible
    step = np.divide(residual, norm2, out=np.zeros_like(residual), where=project)
    return np.where(project[..., None], k + step[..., None] * a, k), feasible


def row_norm(v):
    """Lengths of the vectors v (..., 2), each with the bytes of a 1-D
    np.linalg.norm (the sqrt of a dot); np.linalg.norm(v, axis=-1) rounds
    differently."""
    return np.sqrt(row_dot(v, v))


def feasibility_margin(h, a, xi_dot, eta1_gain: float):
    """Separated form of hdot >= -eta1(h) for barrier rows (h, a) of
    barrier_constraint, of any leading shape, under the relative
    velocities xi_dot = f_y - u.

    Returns arrays (lhs, eta, feasible, angle_defined). lhs = hdot/|a|
    is the relative-velocity component along the barrier gradient
    direction -dR/dxi, and eta = eta1(h)/|a| the model-specific bound,
    so lhs + eta = (a.u - b)/|a| is the normalized slack of the row
    a.u >= b, and feasible is lhs >= -eta. Per model eta reduces to
    eta1(h)/|c_mu'| for ER and to the analogous ratios with the
    sigma-weighted gradient norms for CVaR and CPT, since
    dR/dxi = d_mu * c_mu' + d_sigma * c_sigma'.

    Where |a| = 0 the separated form has no direction: lhs is 0, eta is
    +inf, -inf or 0 by the sign of eta1(h), and feasible is the direct
    hdot >= -eta1(h). angle_defined is False there and where xi_dot = 0.
    """
    a = np.asarray(a, dtype=float)
    xi_dot = np.asarray(xi_dot, dtype=float)
    eta1_h = eta1_gain * h
    hdot = -row_dot(a, xi_dot)
    a_norm = row_norm(a)
    directed = a_norm > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # at |a| = 0, eta1(h)/0 is +-inf and 0/0 stands for 0
        lhs = np.where(directed, hdot / a_norm, 0.0)
        eta = np.where(directed | (eta1_h != 0.0), eta1_h / a_norm, 0.0)
    feasible = np.where(directed, lhs >= -eta, hdot >= -eta1_h)
    return lhs, eta, feasible, directed & (row_norm(xi_dot) > 0.0)
