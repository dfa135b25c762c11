"""Nonlinear least-squares calibration of the adoption curve to trajectories.

Fits (p, q) by damped Gauss-Newton (Levenberg-Marquardt style adaptive
damping) with the analytic Jacobian of the closed-form curve, box-projected
to p in [1e-6, 1], q in [0, 1]. Each step solves the damped 2x2 normal
equations in closed form, and each trial point evaluates the curve once.
The Jacobian at an accepted point is built from the terms its curve
evaluation formed (-(p+q)t, E, 1-E and p+qE), not formed again.
The fit window runs from tick 0 through the first saturated tick, so
post-saturation flat tail ticks never influence the fit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from diffusim.bass import BassParams, _curve
from diffusim.engine import AdoptionTrajectory

P_MIN, P_MAX = 1e-6, 1.0
Q_MIN, Q_MAX = 0.0, 1.0
STEP_TOL = 1e-10
MAX_ITERATIONS = 500
MAX_DAMPING = 1e12


class DegenerateTrajectory(ValueError):
    """The trajectory cannot be fitted: fewer than 4 ticks in the fit window,
    or observed proportions with zero variance (r-squared undefined)."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of one least-squares fit.

    at_bound flags whether each fitted coefficient landed on its box bound
    (p on [1e-6, 1], q on [0, 1]), which preserves diagnosability of
    saturating fits.
    """

    params: BassParams
    r_squared: float
    residual_sum: float
    iterations: int
    converged: bool
    p_at_bound: bool
    q_at_bound: bool

    def to_json(self) -> str:
        fields = dataclasses.asdict(self)
        return json.dumps({**fields.pop("params"), **fields}, indent=2)


def _jacobian(p: float, q: float, terms, out):
    """Write (dn/dp, dn/dq) of the curve into out's two rows (an array, or
    a pair of row views), from the `terms` (nst = -(p+q)t, E, 1-E,
    D = p+qE) that `_curve` formed at the same (p, q): with w = E/D^2,
    dn/dp = w (q(1-E) - p nst) and dn/dq = (-p w)(nst + (1-E)).

    These are the expressions w (q(1-E) + p s t) and p w (s t - (1-E)),
    s t = (p+q)t, with nst in place of -(s t). Negation is exact and IEEE
    rounding is sign-symmetric, so every product, sum and difference has
    the same magnitude either way and both forms give the same values; the
    one difference is dn/dq at t = 0, which is -0.0 here."""
    nst, e, one_minus_e, denom = terms
    dn_dp, dn_dq = out
    w = e / denom**2
    np.multiply(w, one_minus_e * q - nst * p, out=dn_dp)
    np.multiply(w * -p, nst + one_minus_e, out=dn_dq)
    return out


def _curve_and_jacobian(p: float, q: float, t: np.ndarray):
    """The curve of `_curve` with its partial derivatives wrt p and q."""
    n, terms = _curve(p, q, t)
    dn_dp, dn_dq = _jacobian(p, q, terms, np.empty((2, *t.shape)))
    return n, dn_dp, dn_dq


def fit_window(traj: AdoptionTrajectory) -> np.ndarray:
    """Observed proportions from tick 0 through the first saturated tick
    (or the whole record when the run never saturated)."""
    end = None if traj.saturated_at is None else traj.saturated_at + 1
    return traj.proportions[:end]


def fit_bass(traj: AdoptionTrajectory) -> FitResult:
    """Least-squares fit of the adoption curve to a trajectory.

    Minimizes sum_t (observed_t - n(p, q, t))^2 over the fit window by
    damped Gauss-Newton with analytic Jacobian. Start: p0 =
    max(observed tick-1 proportion, 1e-3), q0 = 0.5. Convergence when the
    relative parameter step drops below 1e-10; the iteration cap (500) sets
    converged=False rather than raising.

    Raises:
        DegenerateTrajectory: the fit window has fewer than 4 ticks, or zero
            variance (which subsumes fewer than 2 distinct values).
    """
    y = fit_window(traj)
    if len(y) < 4:
        raise DegenerateTrajectory(f"trajectory too short to fit: {len(y)} ticks")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        # zero variance subsumes the 2-distinct-values precondition
        raise DegenerateTrajectory("observed proportions have zero variance")

    t = np.arange(len(y), dtype=float)
    p, q = max(float(y[1]), 1e-3), 0.5  # inside the box: y[1] <= 1
    n, terms = _curve(p, q, t)
    resid = y - n
    current = float(resid.dot(resid))
    # the loop runs mostly on 4-15-point windows, where each numpy call
    # costs more than its arithmetic: the Jacobian's rows and transpose are
    # taken once, and the trial point and its clip are written inline
    j = np.empty((2, len(y)))
    jt, rows = j.T, tuple(j)
    lam = 1e-3
    converged = False
    iteration = 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        _jacobian(p, q, terms, rows)
        (a, b), (_, c) = j.dot(jt).tolist()
        g0, g1 = j.dot(resid).tolist()
        floor_a, floor_c = max(a, 1e-14), max(c, 1e-14)
        # raise the damping until a step does not increase the SSE
        while lam <= MAX_DAMPING:
            d0 = a + lam * floor_a
            d1 = c + lam * floor_c
            det = d0 * d1 - b * b
            if not det > 0.0:  # singular, or NaN
                lam *= 10.0
                continue
            # the step, clipped to the box [P_MIN, P_MAX] x [Q_MIN, Q_MAX]
            cand_p = p + (d1 * g0 - b * g1) / det
            cand_p = P_MIN if P_MIN > cand_p else P_MAX if P_MAX < cand_p else cand_p
            cand_q = q + (d0 * g1 - b * g0) / det
            cand_q = Q_MIN if Q_MIN > cand_q else Q_MAX if Q_MAX < cand_q else cand_q
            n, cand_terms = _curve(cand_p, cand_q, t)
            cand_resid = y - n
            cand_sse = float(cand_resid.dot(cand_resid))
            if cand_sse <= current:
                break
            lam *= 10.0
        else:
            # no acceptable step exists at any damping: local minimum
            converged = True
            break
        step = math.hypot(cand_p - p, cand_q - q)
        scale = math.hypot(p, q)
        p, q, current = cand_p, cand_q, cand_sse
        resid, terms = cand_resid, cand_terms
        lam = max(lam * 0.25, 1e-12)
        if step <= STEP_TOL * max(scale, 1e-30):
            converged = True
            break

    r_squared = 1.0 - current / ss_tot
    return FitResult(
        params=BassParams(p, q),
        r_squared=r_squared,
        residual_sum=current,
        iterations=iteration,
        converged=converged,
        p_at_bound=(p <= P_MIN or p >= P_MAX),
        q_at_bound=(q <= Q_MIN or q >= Q_MAX),
    )
