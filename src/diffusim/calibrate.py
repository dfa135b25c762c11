"""Nonlinear least-squares calibration of the adoption curve to trajectories.

Fits (p, q) by damped Gauss-Newton (Levenberg-Marquardt style adaptive
damping) with the analytic Jacobian of the closed-form curve, box-projected
to p in [1e-6, 1], q in [0, 1]. The fit window runs from tick 0 through the
first saturated tick, so post-saturation flat tail ticks never influence the
fit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from diffusim.bass import BassParams, _curve, bass_curve
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


def _curve_and_jacobian(p: float, q: float, t: np.ndarray):
    """The curve of `_curve` with its partial derivatives wrt p and q."""
    n, e = _curve(p, q, t)
    denom = p + q * e
    te = t * e
    # d/dp [p(1-E)] = (1-E) + p t E ; d/dp denom = 1 - q t E
    dn_dp = ((1.0 - e) + p * te) / denom - p * (1.0 - e) * (1.0 - q * te) / denom**2
    # d/dq [p(1-E)] = p t E ; d/dq denom = E (1 - q t)
    dn_dq = (p * te) / denom - p * (1.0 - e) * e * (1.0 - q * t) / denom**2
    return n, dn_dp, dn_dq


def _clip(p: float, q: float) -> tuple[float, float]:
    return min(max(p, P_MIN), P_MAX), min(max(q, Q_MIN), Q_MAX)


def fit_window(traj: AdoptionTrajectory) -> np.ndarray:
    """Observed proportions from tick 0 through the first saturated tick
    (or the whole record when the run never saturated)."""
    props = np.asarray(traj.proportions, dtype=float)
    if traj.saturated_at is not None:
        props = props[: traj.saturated_at + 1]
    return props


def fit_bass(traj: AdoptionTrajectory, init: BassParams | None = None) -> FitResult:
    """Least-squares fit of the adoption curve to a trajectory.

    Minimizes sum_t (observed_t - n(p, q, t))^2 over the fit window by
    damped Gauss-Newton with analytic Jacobian. Default start: p0 =
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
    if init is None:
        p0 = max(float(y[1]), 1e-3)
        q0 = 0.5
    else:
        p0, q0 = init.p, init.q
    p, q = _clip(p0, q0)

    def sse(pv: float, qv: float) -> float:
        resid = y - _curve(pv, qv, t)[0]
        return float(resid @ resid)

    current = sse(p, q)
    lam = 1e-3
    converged = False
    iteration = 0
    for iteration in range(1, MAX_ITERATIONS + 1):
        n, dn_dp, dn_dq = _curve_and_jacobian(p, q, t)
        j = np.column_stack((dn_dp, dn_dq))
        jtj = j.T @ j
        jtr = j.T @ (y - n)
        # raise the damping until a step does not increase the SSE
        while lam <= MAX_DAMPING:
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-14))
            try:
                delta = np.linalg.solve(damped, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand_p, cand_q = _clip(p + float(delta[0]), q + float(delta[1]))
            cand_sse = sse(cand_p, cand_q)
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


def jacobian_check(params: BassParams, t: float) -> tuple[float, float]:
    """Analytic-minus-central-difference discrepancy of (dn/dp, dn/dq).

    Central differences use step 1e-6 on each coefficient; both entries
    should be far below 1e-6 anywhere in the fitted range.
    """
    h = 1e-6
    t_arr = np.asarray([float(t)])
    _, dn_dp, dn_dq = _curve_and_jacobian(params.p, params.q, t_arr)
    fd_p = (
        bass_curve(BassParams(params.p + h, params.q), t)
        - bass_curve(BassParams(params.p - h, params.q), t)
    ) / (2 * h)
    fd_q = (
        bass_curve(BassParams(params.p, params.q + h), t)
        - bass_curve(BassParams(params.p, params.q - h), t)
    ) / (2 * h)
    return float(dn_dp[0] - fd_p), float(dn_dq[0] - fd_q)

