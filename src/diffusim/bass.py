"""Closed-form adoption-curve machinery for the two-coefficient diffusion model.

The cumulative adoption proportion n(t) solves

    dn/dt = (p + q*n) * (1 - n),   n(0) = 0,

where p drives spontaneous (external-influence) adoption and q drives
imitation. The closed form and the takeoff time live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from diffusim.network import _check_real

# Takeoff constant: the third derivative of n(t) vanishes where the
# exponential term equals (2 +/- sqrt(3)) * p/q; the earlier root uses 2+sqrt(3).
_TAKEOFF_CONST = 2.0 + math.sqrt(3.0)


@dataclass(frozen=True)
class BassParams:
    """Innovation/imitation coefficient pair (per tick).

    Attributes:
        p: innovation coefficient, must be > 0 (the curve divides by p).
        q: imitation coefficient, must be >= 0.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        _check_real("p", self.p)
        if self.p <= 0:
            raise ValueError(f"p must be > 0, got {self.p}")
        _check_real("q", self.q, 0)


def _curve(p: float, q: float, t: np.ndarray):
    """Closed-form curve n(t) = p(1-E)/(p+qE), E = exp(-(p+q)t), unchecked;
    returns (n, (-(p+q)t, E, 1-E, p+qE)), the terms n was formed from, which
    the fit's Jacobian reuses. bass_curve and the fit both evaluate it here."""
    nst = t * -(p + q)
    e = np.exp(nst)
    one_minus_e = 1.0 - e
    denom = e * q + p
    return one_minus_e * p / denom, (nst, e, one_minus_e, denom)


def bass_curve(params: BassParams, t):
    """Cumulative adoption proportion at time t.

    Evaluates n(t) = (1 - e^{-(p+q)t}) / (1 + (q/p) e^{-(p+q)t}), computed in
    the equivalent form p(1-E)/(p+qE) to stay stable for small p.

    Args:
        params: coefficient pair.
        t: scalar or array of times, all >= 0.

    Returns:
        Proportion(s) in [0, 1); float for scalar input, ndarray otherwise.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0):  # NaN fails this too
        raise ValueError("t must be >= 0")
    n, _ = _curve(params.p, params.q, t_arr)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(n)
    return n


def takeoff_time(params: BassParams) -> float:
    """Time at which adoption transitions from introduction to growth.

    This is the earlier root of d^3 n/dt^3 = 0:

        t_TO = ln(q / (p * (2 + sqrt(3)))) / (p + q)

    The result is non-positive exactly when q <= p*(2+sqrt(3)) (growth is
    effectively immediate). It is returned as-is, never clamped. Where p + q
    overflows, or the quotient underflows to 0, its sign would be wrong, so
    those p and q raise ValueError.
    """
    p, q = params.p, params.q
    if q <= 0:
        raise ValueError(f"takeoff time requires q > 0, got q={q}")
    ratio = q / (p * _TAKEOFF_CONST)
    # a subnormal q next to p underflows the ratio to 0.0: take logs apart
    log_ratio = math.log(ratio) if ratio > 0 else (
        math.log(q) - math.log(p) - math.log(_TAKEOFF_CONST))
    t_to = log_ratio / (p + q)
    if math.isinf(p + q) or t_to == 0 != log_ratio:
        raise ValueError(f"takeoff time at p={p}, q={q} is out of float range")
    return t_to
