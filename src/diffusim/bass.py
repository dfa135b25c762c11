"""Closed-form adoption-curve machinery for the two-coefficient diffusion model.

The cumulative adoption proportion n(t) solves

    dn/dt = (p + q*n) * (1 - n),   n(0) = 0,

where p drives spontaneous (external-influence) adoption and q drives
imitation. The closed form, the Runge-Kutta integrator used as its
independent check, and the takeoff time live here.
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
        _check_real("q", self.q)
        if self.p <= 0:
            raise ValueError(f"p must be > 0, got {self.p}")
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q}")


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


def bass_ode_solve(params: BassParams, t_end: float, dt: float):
    """Integrate dn/dt = (p + q n)(1 - n) from n(0)=0 by classic RK4.

    Serves as the independent numerical check on bass_curve; the two must
    agree to well below 1e-8 for any sensible step size.

    Args:
        params: coefficient pair.
        t_end: final time, > 0.
        dt: step size, > 0. A shorter final step lands exactly on t_end.

    Returns:
        (times, values) as float ndarrays, including t=0 and t=t_end.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError("t_end and dt must be finite")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")

    p, q = params.p, params.q
    times = [0.0]
    values = [0.0]
    n = 0.0
    t = 0.0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        k1 = (p + q * n) * (1.0 - n)
        n2 = n + 0.5 * h * k1
        k2 = (p + q * n2) * (1.0 - n2)
        n3 = n + 0.5 * h * k2
        k3 = (p + q * n3) * (1.0 - n3)
        n4 = n + h * k3
        k4 = (p + q * n4) * (1.0 - n4)
        n += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        values.append(n)
    return np.asarray(times), np.asarray(values)


def takeoff_time(params: BassParams) -> float:
    """Time at which adoption transitions from introduction to growth.

    This is the earlier root of d^3 n/dt^3 = 0:

        t_TO = ln(q / (p * (2 + sqrt(3)))) / (p + q)

    The result is negative when q <= p*(2+sqrt(3)) (growth is effectively
    immediate); callers can detect that regime via takeoff_is_degenerate.
    The value is returned as-is, never clamped.
    """
    if params.q <= 0:
        raise ValueError(f"takeoff time requires q > 0, got q={params.q}")
    return math.log(params.q / (params.p * _TAKEOFF_CONST)) / (params.p + params.q)


def takeoff_is_degenerate(params: BassParams) -> bool:
    """True when the takeoff time is non-positive (q <= p*(2+sqrt(3)))."""
    if params.q <= 0:
        raise ValueError(f"takeoff time requires q > 0, got q={params.q}")
    return params.q <= params.p * _TAKEOFF_CONST
