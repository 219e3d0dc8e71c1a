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
from .risk import RiskSpec


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
    shape (K, 2); h and b have shape y.shape[:-1] and a the shape of y.
    With xi = y - x and g the risk-field gradient,
    hdot = -g . xi_dot = -g . (f_y - u), so a = g and
    b = g . f_y - eta1(h).
    """
    xi = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    risk, a = evaluate(spec, params, xi)
    h = config.rho - risk
    f_y = np.asarray(f_y, dtype=float)
    # a stacked matmul takes the BLAS dot of a one-obstacle call, so
    # each row of a batch gets the same bytes
    b = (a[..., None, :] @ f_y[..., :, None])[..., 0, 0] - config.eta1_gain * h
    return h, a, b


def qp_filter(k_nominal, a, b) -> np.ndarray:
    """Minimally invasive control: argmin ||u - k||^2 s.t. a . u >= b.

    Returns k unchanged when it already satisfies the constraint,
    otherwise the exact projection k + (b - a.k)/|a|^2 * a onto the
    halfspace boundary. Raises ValueError on non-finite a or b and
    InfeasibleConstraintError when a = 0 and b > 0 (empty admissible
    set).
    """
    k = np.asarray(k_nominal, dtype=float)
    a = np.asarray(a, dtype=float)
    b = float(b)
    if not (np.all(np.isfinite(a)) and math.isfinite(b)):
        raise ValueError("constraint entries must be finite")
    residual = b - float(a @ k)
    if residual <= 0.0:
        return k.copy()
    norm2 = float(a @ a)
    if norm2 == 0.0:
        raise InfeasibleConstraintError(f"constraint 0 . u >= {b!r} admits no control")
    return k + (residual / norm2) * a


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
    angle_defined: bool


def feasibility_margin(h, a, xi_dot, eta1_gain: float) -> FeasibilityDiagnostics:
    """Separated feasibility condition of one barrier row (h, a) from
    barrier_constraint under the relative velocity xi_dot = f_y - u.

    The eta reported here reduces per model to eta1(h)/|c_mu'| for ER
    and to the analogous ratios with the sigma-weighted gradient norms
    for CVaR and CPT, since dR/dxi = d_mu * c_mu' + d_sigma * c_sigma'.
    """
    a = np.asarray(a, dtype=float)
    xi_dot = np.asarray(xi_dot, dtype=float)
    h = float(h)
    eta1_h = eta1_gain * h
    hdot = -float(a @ xi_dot)
    g_norm = float(np.linalg.norm(a))
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
        angle_defined=angle_defined,
    )
