"""Risk perception models over discrete cost lotteries.

Three model families share one interface: expected risk (ER),
conditional value at risk (CVaR, parameter q), and cumulative prospect
theory (CPT, parameters alpha, beta, gamma, lambda). All three are one
rank-dependent formula, a distortion risk measure (Yaari 1987; Wang,
"Premium calculation by transforming the layer premium density", 1996).
Rank the outcomes ascending, c_1 <= ... <= c_M, with upper-tail masses
S_i = p_i + ... + p_M. A weighting function w on [0, 1], with w(0) = 0
and w(1) = 1, gives the decision weights pi_i = w(S_i) - w(S_{i+1}), and

    R = lam * sum_i pi_i * max(c_i, 0)**gamma.

The models differ only in w, gamma and lam:

- ER: w(S) = S, gamma = lam = 1, so pi is the masses themselves.
- CVaR(q): w(S) = min(S / (1 - q), 1) (w = 1 on S > 0 at q = 1) and
  gamma = lam = 1: the mean of the worst 1 - q of the mass, with the
  q-quantile's atom split. q = 0 is ER, q = 1 the largest outcome.
- CPT: Prelec's w(S) = exp(-beta * (-log S)**alpha) and the spec's own
  gamma and lam.

One function evaluates it: ``moment_risk`` takes the truncated-Gaussian
cost from its mean and deviation, on the lattice of
:mod:`riskcbf.distributions`, for arrays of any shape, with the partials
the barrier needs; every field, grid and barrier value comes from it.
Its public pieces are ``weighting``, ``decision_weights``,
``lattice_coeffs`` and ``lattice_masses``: on a lottery of ascending
outcomes c >= 0 with masses p, R is
``lam * c**gamma @ decision_weights(p, weighting(spec))``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional, Union

import numpy as np

from .distributions import lattice_coeffs, lattice_masses


@dataclass(frozen=True)
class ExpectedRisk:
    """Plain expectation of the cost lottery."""


@dataclass(frozen=True)
class CVaR:
    """Conditional value at risk with tail parameter q in [0, 1]: the mean
    of the worst 1 - q of the cost's mass, through the weighting
    w(S) = min(S / (1 - q), 1) of the upper-tail mass S. CVaR(0) is the
    expectation and CVaR(1) the largest outcome."""

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


def prob_weight(p, alpha: float, beta: float):
    """Prelec's probability weighting w(p) = exp(-beta * (-log p)**alpha),
    elementwise over p in [0, 1]; w(0) = 0 and w(1) = 1 exactly."""
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    with np.errstate(divide="ignore"):  # log(0) = -inf gives w(0) = exp(-inf) = 0
        out = np.exp(-beta * (-np.log(p)) ** alpha)
    return float(out) if out.ndim == 0 else out


def weighting(spec: RiskSpec):
    """The weighting function w of spec over an array of upper-tail masses,
    or None for the identity w(S) = S of ER and CVaR(0)."""
    if isinstance(spec, CPT):
        return partial(prob_weight, alpha=spec.alpha, beta=spec.beta)
    if not isinstance(spec, (ExpectedRisk, CVaR)):
        raise TypeError(f"unknown risk spec {spec!r}")
    q = spec.q if isinstance(spec, CVaR) else 0.0
    if q == 0.0:
        return None
    if q == 1.0:
        return lambda s: (s > 0.0).astype(float)
    return lambda s: np.minimum(s / (1.0 - q), 1.0)


def decision_weights(probabilities, w) -> np.ndarray:
    """Rank-dependent decision weights of ascending-ranked outcomes.

    With upper-tail sums S_i = p_i + ... + p_M, the weight of outcome i
    is w(S_i) - w(S_{i+1}), anchored by the empty tail S_{M+1} = 0; w
    maps an array of masses in [0, 1] to their weights. w = None is the
    identity, whose weights are the probabilities themselves, taken as
    they are rather than as differences of their sums.
    """
    p = np.asarray(probabilities, dtype=float)
    if w is None:
        return p.copy()
    tails = w(np.minimum(np.cumsum(p[::-1])[::-1], 1.0))
    return tails - np.append(tails[1:], 0.0)


@lru_cache(maxsize=256)
def lattice_weights(spec: RiskSpec, m: int) -> np.ndarray:
    """Decision weights of spec on the m-bin lattice's masses.

    The masses depend only on m, so the weights are constant across
    every (c_mu, c_sigma) cell and are shared by field evaluation. The
    array is cached and read-only.
    """
    pi = decision_weights(lattice_masses(m), weighting(spec))
    pi.setflags(write=False)
    return pi


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
    (value, d/dc_mu, d/dc_sigma), each of that shape. The value is the
    module's one formula, lam * sum_i Pi_i * max(c_i, 0)**gamma, over the
    lattice outcomes c_i = c_mu + c_sigma * g_i at the spec's decision
    weights Pi on the lattice masses (``lattice_weights``). CPT evaluates
    it as written; its partials differentiate that sum at fixed weights,
    where an outcome clamped at zero adds a constant, and are exactly 0 at
    gamma = 0 (R = lam * sum_i Pi_i), even where c_mu is subnormal.

    ER and CVaR have gamma = lam = 1, and the weights sum to 1, so where
    no outcome clamps the sum is c_mu + k * c_sigma with one gain
    k = Pi . g per spec, and partials (1, k). They take that form. ER's
    weights are the symmetric masses and g is antisymmetric, so its k is
    exactly 0 and its value has the bytes of c_mu. No outcome clamps on
    any field of :mod:`riskcbf.field` (``CostFieldParams``), so the
    linear form is the lottery's value there; only a direct input with
    c_mu + g_1 * c_sigma < 0 clamps, and ER and CVaR keep the form on it.

    spec is one RiskSpec, or a tuple of S specs evaluated side by side
    as lanes along the leading axis of c_mu and c_sigma; each lane's
    rows have the bytes of a call with its spec alone. A lone spec is a
    one-lane call.

    With grad=False both partials are None and no partial is computed;
    grid callers use this route.
    """
    mu = np.asarray(c_mu, dtype=float)
    sigma = np.asarray(c_sigma, dtype=float)
    if isinstance(spec, tuple):
        return _lane_risk(_lane_params(spec, m), mu, sigma, m, grad)
    lane = _lane_risk(_lane_params((spec,), m), mu[None], sigma[None], m, grad)
    return tuple(None if r is None else r[0] for r in lane)


class _LaneParams(NamedTuple):
    """moment_risk's parameters of S lanes, one row each: ER/CVaR lanes
    read the gain k, CPT lanes (cpt) gamma, the exponent gamma - 1 (0 at
    gamma = 0), lam * gamma, lam, the weights Pi and g * Pi, shaped for a
    (S, N, m) lattice. any_linear and any_cpt say which models run."""

    any_linear: bool
    any_cpt: bool
    gain: np.ndarray
    cpt: np.ndarray
    gamma: np.ndarray
    gamma_less_1: np.ndarray
    scale: np.ndarray
    lam: np.ndarray
    pi: np.ndarray
    g_pi: np.ndarray
    sqrt_rows: Optional[np.ndarray]


@lru_cache(maxsize=64)
def _lane_params(specs: tuple, m: int) -> _LaneParams:
    cpt = np.array([isinstance(s, CPT) for s in specs])
    pi = np.array([lattice_weights(s, m) for s in specs])
    g = lattice_coeffs(m)
    # g[::-1] == -g, so Pi . g = (Pi - Pi reversed) . g / 2, which is
    # exactly 0 for the symmetric weights of ER and CVaR(0)
    gain = np.where(cpt, 0.0, row_dot(pi - pi[:, ::-1], g) / 2.0)
    gamma = np.array([s.gamma if isinstance(s, CPT) else 1.0 for s in specs])
    lam = np.array([s.lam if isinstance(s, CPT) else 1.0 for s in specs])
    sqrt_rows = (cpt & (gamma == 0.5))[:, None, None]
    # a gamma = 0 lane's partials are 0 (scale 0), and its exponent 0, not
    # -1, keeps them so where c is subnormal: 1 / c overflows, 0 * inf is nan
    return _LaneParams(any_linear=not cpt.all(), any_cpt=bool(cpt.any()), gain=gain, cpt=cpt,
                       gamma=gamma[:, None, None], gamma_less_1=np.where(gamma == 0.0, 0.0, gamma - 1.0)[:, None, None],
                       scale=(lam * gamma)[:, None], lam=lam[:, None], pi=pi[:, None, :],
                       g_pi=g * pi[:, None, :], sqrt_rows=sqrt_rows if sqrt_rows.any() else None)


def _lane_risk(p: _LaneParams, mu, sigma, m: int, grad: bool):
    """moment_risk of the lanes p along the leading axis of mu and sigma."""
    column = (len(p.cpt),) + (1,) * (mu.ndim - 1)
    if p.any_linear:
        k = p.gain.reshape(column)
        value = mu + k * sigma  # bit-equal to c_mu at k = 0 (c_sigma is finite)
        if not p.any_cpt:
            return (value, np.ones(value.shape), np.full(value.shape, k)) if grad else (value, None, None)
    g = lattice_coeffs(m)
    # (S, N, m) outcome lattice, built, clamped and powered in place so a
    # grid allocates no further N*m temporaries; sigma * g + mu has the
    # bits of mu + sigma * g, as IEEE addition commutes
    lattice = (len(p.cpt), -1, 1)
    c = sigma.reshape(lattice) * g
    c += mu.reshape(lattice)
    d_mu = d_sigma = None
    if grad:
        # d/dc max(c, 0)**gamma is gamma * c**(gamma - 1) for c > 0 and 0
        # for c < 0, so this is the exact derivative of the value below
        # wherever no outcome is exactly 0 (where c**(gamma - 1) is singular;
        # a gamma = 0 lane raises to 0 instead, _lane_params says why)
        t = np.power(c, p.gamma_less_1, out=np.zeros(c.shape), where=c > 0.0)
        d_mu = (p.scale * row_dot(t, p.pi)).reshape(mu.shape)
        d_sigma = (p.scale * row_dot(t, p.g_pi)).reshape(mu.shape)
    np.maximum(c, 0.0, out=c)
    if p.sqrt_rows is None:
        c **= p.gamma
    else:
        # NumPy raises to a one-element exponent of 0.5, as a one-lane
        # call has, by its sqrt path, but a gamma = 0.5 lane among several
        # by pow, which differs by an ulp on some outcomes (NumPy 2.4);
        # so each gamma = 0.5 lane takes np.sqrt, however many lanes run
        np.power(c, p.gamma, out=c, where=~p.sqrt_rows)
        np.sqrt(c, out=c, where=p.sqrt_rows)
    # lam is applied last, and alone: field.rasterize relies on
    # lam * (the lam = 1 value) having the bytes of this value
    cpt = (p.lam * row_dot(c, p.pi)).reshape(mu.shape)
    if not p.any_linear:
        return cpt, d_mu, d_sigma
    is_cpt = p.cpt.reshape(column)
    value = np.where(is_cpt, cpt, value)
    if not grad:
        return value, None, None
    # the linear lanes' partials are 1 and their lane's k
    return value, np.where(is_cpt, d_mu, 1.0), np.where(is_cpt, d_sigma, k)


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
