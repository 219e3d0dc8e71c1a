"""Risk perception models over discrete cost lotteries.

Three model families share one interface: expected risk (ER),
conditional value at risk (CVaR, parameter q), and cumulative prospect
theory (CPT, parameters alpha, beta, gamma, lambda). CPT ranks outcomes
ascending and weights them through the probability weighting function
w(p) = exp(-beta * (-log p)**alpha) applied to upper-tail sums, so high
costs are distorted through the tail of w.

Two layers share the models. The lottery layer (``risk_value`` and the
per-model ``*_value`` functions) evaluates an explicit DiscreteCost.
The moment layer (``moment_risk``) evaluates the truncated-Gaussian
cost straight from its mean and deviation, for arrays of any shape, and
also returns the partials the barrier needs; every field, grid and
barrier computation goes through it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .distributions import (
    DiscreteCost,
    lattice_coeffs,
    lattice_masses,
    std_normal_pdf,
    std_normal_quantile,
)


@dataclass(frozen=True)
class ExpectedRisk:
    """Plain expectation of the cost lottery."""


@dataclass(frozen=True)
class CVaR:
    """Conditional value at risk with tail parameter q in [0, 1].

    The layers read q differently until ROADMAP item 3 makes them agree:
    the field layer (``moment_risk``) is c_mu + c_sigma * pdf(quantile(q))
    / q, the lottery layer (``cvar_value``) the mean of the outcomes at
    or above the q-quantile.
    """

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"CVaR q must lie in [0, 1], got {self.q!r}")


@dataclass(frozen=True)
class CPT:
    """Cumulative prospect theory parameters.

    alpha, beta > 0 tune uncertainty perception, gamma in [0, 1] risk
    sensitivity, lam >= 1 risk aversion; all finite.
    """

    alpha: float
    beta: float
    gamma: float
    lam: float

    def __post_init__(self):
        # each check is a range that NaN fails
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError("CPT alpha and beta must be positive and finite")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"CPT gamma must lie in [0, 1], got {self.gamma!r}")
        if not 1.0 <= self.lam < math.inf:
            raise ValueError(f"CPT lambda must be finite and >= 1, got {self.lam!r}")


RiskSpec = Union[ExpectedRisk, CVaR, CPT]


def utility(c: float, gamma: float, lam: float) -> float:
    """Perceived cost v(c) = lam * c**gamma for c >= 0; v(0) = 0."""
    if c < 0:
        raise ValueError("utility is defined for nonnegative costs")
    return lam * c ** gamma


def prob_weight(p: float, alpha: float, beta: float) -> float:
    """Probability weighting w(p) = exp(-beta * (-log p)**alpha).

    w(0) = 0 by definition and w(1) = 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    return _prob_weight(float(p), float(alpha), float(beta))


def _prob_weight(p: float, alpha: float, beta: float) -> float:
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return math.exp(-beta * (-math.log(p)) ** alpha)


def decision_weights(probabilities, alpha: float, beta: float) -> np.ndarray:
    """Cumulative decision weights for ascending-ranked outcomes.

    With upper-tail sums S_i = p_i + ... + p_M, the weight of outcome i
    is w(S_i) - w(S_{i+1}), anchored by the empty tail S_{M+1} = 0.
    At alpha = beta = 1 the weights reduce to the raw probabilities.
    """
    alpha, beta = float(alpha), float(beta)
    tails = np.cumsum(np.asarray(probabilities, dtype=float)[::-1])[::-1]
    w = np.array([_prob_weight(float(s), alpha, beta) for s in tails])
    return w - np.append(w[1:], 0.0)


def er_value(cost: DiscreteCost) -> float:
    """Expected risk: sum of outcome * probability."""
    return float(cost.outcomes @ cost.probabilities)


def cvar_value(cost: DiscreteCost, q: float) -> float:
    """Discrete CVaR: mean of the outcomes at or above the q-quantile.

    d* is the smallest outcome whose cumulative probability reaches q
    (ties at exactly q resolve to that outcome); the value is the
    probability-weighted mean over outcomes >= d*. q = 0 gives the
    plain expectation, q = 1 the worst-case outcome.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"CVaR q must lie in [0, 1], got {q!r}")
    if q == 0.0:
        return er_value(cost)
    if q == 1.0:
        return float(cost.outcomes[-1])
    cum = np.cumsum(cost.probabilities)
    j = int(np.searchsorted(cum, q, side="left"))
    j = min(j, cost.m - 1)
    tail = cost.outcomes >= cost.outcomes[j]
    mass = cost.probabilities[tail].sum()
    return float((cost.outcomes[tail] @ cost.probabilities[tail]) / mass)


@lru_cache(maxsize=256)
def _linear_gain(spec: Union[ExpectedRisk, CVaR]) -> float:
    """Sigma gain k of moment_risk's value c_mu + k * c_sigma: 0 for ER,
    pdf(quantile(q)) / q for CVaR(q)."""
    if isinstance(spec, ExpectedRisk) or spec.q == 0.0:
        return 0.0
    if spec.q == 1.0:
        return 3.0
    return std_normal_pdf(std_normal_quantile(spec.q)) / spec.q


@lru_cache(maxsize=256)
def cpt_pi_weights(m: int, alpha: float, beta: float) -> np.ndarray:
    """Decision weights of the truncated-Gaussian bin masses.

    The bin masses depend only on M, so the weights are constant across
    every (c_mu, c_sigma) cell and can be shared by field evaluation.
    """
    pi = decision_weights(lattice_masses(m), alpha, beta)
    pi.setflags(write=False)
    return pi


def cpt_value(cost: DiscreteCost, theta: CPT) -> float:
    """CPT value: sum of v(c_i) * Pi_i over the ascending outcomes."""
    weights = decision_weights(cost.probabilities, theta.alpha, theta.beta)
    return theta.lam * float(cost.outcomes ** theta.gamma @ weights)


def row_dot(u, v):
    """Dot products over the last axis of u and v, broadcast over the
    leading axes. The stacked matmul takes the BLAS dot of a one-row
    call, so each row has the bytes it would have alone; u @ v (a gemv)
    and np.sum(u * v, -1) round a row differently depending on the
    batch."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def moment_risk(spec: RiskSpec | tuple[RiskSpec, ...], c_mu, c_sigma, m: int = 10, grad: bool = True):
    """Risk value of the truncated-Gaussian cost and its partials.

    c_mu and c_sigma are arrays (or scalars) of one shape; returns
    (value, d/dc_mu, d/dc_sigma), each of that shape. ER is c_mu with
    partials (1, 0). CVaR is the Gaussian closed form c_mu + k(q)*c_sigma
    with partials (1, k(q)), k(0) = 0 (the ER limit) and k(1) = 3 (the
    truncation bound fallback). CPT is lam * sum_i Pi_i * c_i**gamma over
    the lattice outcomes c_i = c_mu + c_sigma*g_i at the fixed decision
    weights Pi, negative outcomes clamped to zero like the discretizer;
    its partials differentiate that sum at fixed weights, where an
    outcome clamped at zero adds a constant.

    spec is one RiskSpec, or a tuple of S specs evaluated side by side
    as lanes along the leading axis of c_mu and c_sigma; each lane's
    rows have the bytes of a call with its spec alone.

    With grad=False both partials are None and no partial is computed;
    grid callers use this route.
    """
    mu = np.asarray(c_mu, dtype=float)
    sigma = np.asarray(c_sigma, dtype=float)
    if isinstance(spec, tuple):
        return _lane_risk(_lane_params(spec, m), mu, sigma, m, grad)
    if isinstance(spec, (ExpectedRisk, CVaR)):
        return _linear_risk(mu, sigma, _linear_gain(spec), grad)
    if not isinstance(spec, CPT):
        raise TypeError(f"unknown risk spec {spec!r}")
    pi = cpt_pi_weights(m, spec.alpha, spec.beta)
    return _cpt_risk(mu, sigma, m, (-1, 1), spec.gamma, spec.lam * spec.gamma, spec.lam, pi, grad)


def _linear_risk(mu, sigma, k, grad: bool):
    value = mu + k * sigma  # bit-equal to c_mu at k = 0 (c_sigma is finite)
    if not grad:
        return value, None, None
    return value, np.ones(value.shape), np.full(value.shape, k)


def _cpt_risk(mu, sigma, m: int, rows: tuple, gamma, scale, lam, pi, grad: bool, sqrt_rows=None):
    """CPT on the outcome lattice of mu.reshape(rows) + sigma.reshape(rows)
    * g; gamma broadcasts against the lattice, scale = lam * gamma and
    lam against its contractions with the weights pi. sqrt_rows marks
    the lattice rows whose gamma is 0.5, if an array gamma has any."""
    g = lattice_coeffs(m)
    # (..., m) outcome lattice, clamped and powered in place so a grid
    # allocates no further N*m temporaries
    c = mu.reshape(rows) + sigma.reshape(rows) * g
    d_mu = d_sigma = None
    if grad:
        # d/dc max(c, 0)**gamma is gamma * c**(gamma - 1) for c > 0 and 0
        # for c < 0, so this is the exact derivative of the value below
        # wherever no outcome is exactly 0 (where c**(gamma - 1) is singular)
        t = np.power(c, gamma - 1.0, out=np.zeros_like(c), where=c > 0.0)
        d_mu = (scale * row_dot(t, pi)).reshape(mu.shape)
        d_sigma = (scale * row_dot(t, g * pi)).reshape(mu.shape)
    np.maximum(c, 0.0, out=c)
    if sqrt_rows is None:
        c **= gamma
    else:  # a one-spec call's c **= 0.5 is np.sqrt, which rounds unlike np.power
        np.power(c, gamma, out=c, where=~sqrt_rows)
        np.sqrt(c, out=c, where=sqrt_rows)
    value = (lam * row_dot(c, pi)).reshape(mu.shape)
    return value, d_mu, d_sigma


class _LaneParams(NamedTuple):
    """moment_risk's parameters of S lanes, one row each: ER/CVaR lanes
    read the gain k, CPT lanes (cpt) gamma, lam * gamma, lam and the
    weights Pi, shaped for a (S, N, m) lattice; CPT's are placeholders
    on the other lanes. any_linear and any_cpt say which models run."""

    any_linear: bool
    any_cpt: bool
    gain: np.ndarray
    cpt: np.ndarray
    gamma: np.ndarray
    scale: np.ndarray
    lam: np.ndarray
    pi: np.ndarray
    sqrt_rows: Optional[np.ndarray]


@lru_cache(maxsize=64)
def _lane_params(specs: tuple, m: int) -> _LaneParams:
    if not all(isinstance(s, (ExpectedRisk, CVaR, CPT)) for s in specs):
        raise TypeError(f"unknown risk spec in {specs!r}")
    cpt = np.array([isinstance(s, CPT) for s in specs])
    gain = np.array([0.0 if isinstance(s, CPT) else _linear_gain(s) for s in specs])
    gamma = np.array([s.gamma if isinstance(s, CPT) else 1.0 for s in specs])
    lam = np.array([s.lam if isinstance(s, CPT) else 1.0 for s in specs])
    pi = np.array([cpt_pi_weights(m, s.alpha, s.beta) if isinstance(s, CPT) else np.zeros(m) for s in specs])
    sqrt_rows = (cpt & (gamma == 0.5))[:, None, None]
    return _LaneParams(any_linear=not cpt.all(), any_cpt=bool(cpt.any()), gain=gain, cpt=cpt,
                       gamma=gamma[:, None, None], scale=(lam * gamma)[:, None], lam=lam[:, None],
                       pi=pi[:, None, :], sqrt_rows=sqrt_rows if sqrt_rows.any() else None)


def _lane_risk(p: _LaneParams, mu, sigma, m: int, grad: bool):
    lanes = len(p.cpt)
    column = (lanes,) + (1,) * (mu.ndim - 1)
    linear = _linear_risk(mu, sigma, p.gain.reshape(column), grad) if p.any_linear else None
    if not p.any_cpt:
        return linear
    cpt = _cpt_risk(mu, sigma, m, (lanes, -1, 1), p.gamma, p.scale, p.lam, p.pi, grad, p.sqrt_rows)
    if linear is None:
        return cpt
    is_cpt = p.cpt.reshape(column)
    return tuple(None if c is None else np.where(is_cpt, c, x) for c, x in zip(cpt, linear))


def risk_value(spec: RiskSpec, cost: DiscreteCost) -> float:
    """Evaluate any risk spec on a discrete lottery."""
    if isinstance(spec, ExpectedRisk):
        return er_value(cost)
    if isinstance(spec, CVaR):
        return cvar_value(cost, spec.q)
    if isinstance(spec, CPT):
        return cpt_value(cost, spec)
    raise TypeError(f"unknown risk spec {spec!r}")


_SPEC_RE = re.compile(r"^\s*(er|cvar|cpt)\s*(?:\(([^)]*)\))?\s*$", re.IGNORECASE)


def parse_spec(text: str) -> RiskSpec:
    """Parse a spec string: ``er``, ``cvar(q)`` or ``cpt(a, b, g, l)``."""
    match = _SPEC_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse risk spec {text!r}")
    kind = match.group(1).lower()
    args_text = match.group(2)
    args = []
    if args_text is not None and args_text.strip():
        try:
            args = [float(tok) for tok in args_text.split(",")]
        except ValueError:
            raise ValueError(f"non-numeric parameter in risk spec {text!r}") from None
    if kind == "er":
        if args:
            raise ValueError("er takes no parameters")
        return ExpectedRisk()
    if kind == "cvar":
        if len(args) != 1:
            raise ValueError("cvar takes exactly one parameter: cvar(q)")
        return CVaR(args[0])
    if len(args) != 4:
        raise ValueError("cpt takes four parameters: cpt(alpha, beta, gamma, lambda)")
    return CPT(*args)


def spec_label(spec: RiskSpec) -> str:
    """Stable, filename-safe label for a spec."""
    if isinstance(spec, ExpectedRisk):
        return "er"
    if isinstance(spec, CVaR):
        return f"cvar_q{_fmt(spec.q)}"
    if isinstance(spec, CPT):
        return (
            f"cpt_a{_fmt(spec.alpha)}_b{_fmt(spec.beta)}"
            f"_g{_fmt(spec.gamma)}_l{_fmt(spec.lam)}"
        )
    raise TypeError(f"unknown risk spec {spec!r}")


def _fmt(x: float) -> str:
    text = f"{x:g}"
    return text.replace("-", "m").replace(".", "p")
