"""Schedules, regularity gates and estimators, barrier check, stopping-time bound.

The schedule functions turn a nearly-convexity certificate ``(alpha, L)`` plus
oracle and lower-bound information into concrete solver hyperparameters:

* :func:`gnd_schedule` fixes ``eta = 2*alpha/(5*L^2)`` and ``s = lam/(3*L)``
  with ``lam = 2*alpha - eta*L^2`` and derives the asymptotic-neighbourhood
  driver ``b = eta*r^2/lam + (5*eta*lam + 14)/(42*L) * (f* - f_lb)``;
* :func:`gnd_iteration_bound` inverts the per-step contraction
  ``1 - eta*lam/100`` into an iteration count for a target accuracy and
  confidence;
* :func:`dlgnd_schedule` derives the outer-loop combination coefficient gamma
  and the loop counts N, T1, T2 for the double-loop scheme.  The confidence
  split ``zeta' = zeta/(N+1)`` depends on N, so N is fixed first from its own
  (zeta-free) bound and the iteration counts follow.

Grid estimators report grid-restricted constants.  Because every grid min/max
ranges over a subset of the real line, the reported values are one-sided:
``mu_*`` estimates are upper bounds on the true infima and ``beta`` estimates
are upper bounds obtained from the quadratic surrogate (the infimum over all
one-point strongly convex surrogates is not computable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gndopt.errors import (ConstraintNotCheckableError, GateViolationError, ParameterError,
                           require_certificate, require_finite, require_integer,
                           require_nonnegative, require_point, require_positive,
                           require_uint64, require_unit_interval)
from gndopt.objectives import Objective, make_j2
from gndopt.sampling import RngStream

Array = np.ndarray


@dataclass(frozen=True)
class Schedule:
    """Constants driving a single GND run on an (alpha, L)-certified objective."""

    eta: float
    s: float
    lam: float       # 2*alpha - eta*L^2, positive by construction
    b: float         # asymptotic neighbourhood driver, 0 when r = 0 and f_lb = f*
    eta_lam: float   # eta*lam, the contraction budget per 100 iterations


@dataclass(frozen=True)
class DoubleLoopSchedule:
    """Constants driving the double-loop scheme."""

    b0: float
    b_eps: float
    gamma: float
    N: int
    T1: int
    T2: int
    zeta_prime: float


@dataclass(frozen=True)
class RegularityReport:
    """Grid-restricted regularity constants (all one-sided, see module docstring)."""

    mu_r_hat: float   # restricted secant: min <grad f(x), x - x*> / ||x - x*||^2
    mu_p_hat: float   # gradient dominance: min ||grad f(x)||^2 / (2 (f(x) - f*))
    mu_q_hat: float   # quadratic growth: min 2 (f(x) - f*) / ||x - x*||^2
    beta_hat: float   # quadratic-surrogate deviation: max 2 |f - f* - alpha/2 r^2| / r^2
    nc_gate: bool     # beta_hat within the admissible threshold for (alpha, L, d)
    n_points: int


@dataclass(frozen=True)
class BarrierResult:
    """Boundary-infimum check on a ball around a candidate trap point.

    ``holds`` means the boundary minimum of f - f(x_hat) stayed below the
    admissible barrier height.  For d = 2 the boundary is scanned on an
    angular grid, so ``holds=True`` is conclusive while ``holds=False`` is
    only inconclusive-at-grid-resolution (``conclusive`` is False then).
    """

    lhs: float
    rhs: float
    holds: bool
    conclusive: bool


@dataclass(frozen=True)
class ConditionCheck:
    """One row of the (eps, R) admissibility table for the j2 family."""

    condition: str
    holds: bool
    parameter: Optional[float | tuple[float, float]]


def _require_log_range(lo, hi) -> None:
    require_finite(lo=lo, hi=hi)
    if not 0.0 < lo < hi:
        raise ParameterError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")


def gnd_schedule(alpha: float, L: float, r: float, f_gap: float) -> Schedule:
    """Default (eta, s) schedule plus derived constants for a certified objective.

    ``f_gap = f* - f_lb >= 0`` is the lower-bound slack the run will operate
    with; together with the oracle deviation r it determines b.
    """
    require_certificate(alpha, L)
    # eta divides by L^2: a square of 0 or inf would divide by 0 or give eta = 0.
    require_positive(**{"alpha^2": alpha * alpha, "L^2": L * L})
    require_nonnegative(r=r, f_gap=f_gap)
    eta = 2.0 * alpha / (5.0 * L * L)
    lam = 2.0 * alpha - eta * L * L
    s = lam / (3.0 * L)
    eta_lam = eta * lam
    if not eta_lam > 0.0:  # 16*alpha^2/(25*L^2) underflows when alpha is far below L
        raise ParameterError(f"alpha and L must keep eta*lambda positive, got alpha={alpha}, L={L}")
    b = eta * r * r / lam + (5.0 * eta_lam + 14.0) / (42.0 * L) * f_gap
    if not math.isfinite(b):
        raise ParameterError(f"r and f_gap must keep b finite, got r={r}, f_gap={f_gap}")
    return Schedule(eta=eta, s=s, lam=lam, b=b, eta_lam=eta_lam)


def gnd_iteration_bound(sched: Schedule, y0_dist_sq: float, zeta: float,
                        eps: float | None = None) -> int:
    """Iterations sufficient for the high-probability guarantee at confidence 1 - zeta.

    With b = 0 the run contracts to any target ``eps > 0`` and the bound is
    ``100/(eta*lam) * ln(||y0 - x*||^2 / (zeta*eps))``; with b > 0 the target
    is the noise floor 200b, ``eps`` is ignored, and the bound is
    ``200/(eta*lam) * ln(||y0 - x*||^2 / (100*b*zeta))``.
    """
    require_unit_interval(zeta=zeta)
    require_positive(y0_dist_sq=y0_dist_sq)
    if sched.b == 0.0:
        if eps is None:
            raise ParameterError("eps must be positive when b = 0, got None")
        require_positive(eps=eps)
        scale, floor = 100.0, zeta * eps
    else:
        scale, floor = 200.0, 100.0 * sched.b * zeta
    try:  # the log's argument or the bound may leave float range
        return max(0, math.ceil(scale / sched.eta_lam * math.log(y0_dist_sq / floor)))
    except (ArithmeticError, ValueError):
        raise ParameterError(f"the iteration bound must be finite, got y0_dist_sq={y0_dist_sq}, "
                             f"zeta={zeta}, eps={eps}, b={sched.b}, eta_lam={sched.eta_lam}") from None


def dlgnd_schedule(alpha: float, L: float, r: float, eps: float, zeta: float,
                   f_gap0: float, y0_dist_sq: float, beta: float) -> DoubleLoopSchedule:
    """Outer-loop schedule: gamma, N, T1, T2 for target accuracy eps at confidence 1 - zeta.

    ``f_gap0 = f* - f_lb^0 > 0`` is the initial lower-bound slack and ``beta``
    the (upper-bounded) surrogate deviation, which must stay below alpha.
    """
    require_certificate(alpha, L)
    require_nonnegative(beta=beta)
    if beta >= alpha:
        raise GateViolationError(f"beta must stay below alpha, got beta={beta} >= alpha={alpha}")
    require_positive(f_gap0=f_gap0, eps=eps)
    require_unit_interval(zeta=zeta)
    require_positive(y0_dist_sq=y0_dist_sq)

    base = gnd_schedule(alpha, L, r, f_gap0)
    b0 = base.b
    b_eps = gnd_schedule(alpha, L, r, eps).b
    eta, lam, eta_lam = base.eta, base.lam, base.eta_lam
    shrink = (1.0 - eta * L) ** 2
    try:  # gamma, N, T1 or T2 may leave float range (a ParameterError is a ValueError)
        gamma = shrink * eps / (shrink * eps + 100.0 * L * b_eps)
        n_outer = max(1, math.ceil(math.log((1.0 - gamma) + gamma * f_gap0 / eps) / gamma))
        zeta_prime = zeta / (n_outer + 1)
        t1 = max(1, gnd_iteration_bound(base, y0_dist_sq, zeta_prime))
        t2_arg = (2.0 * (1.0 + eta * L) ** 2 * L * b0
                  / (shrink * (alpha - beta) * b_eps * zeta_prime))
        t2 = max(1, math.ceil(200.0 / eta_lam * math.log(t2_arg)))
    except (ArithmeticError, ValueError):
        raise ParameterError(f"the double-loop counts must be finite, got alpha={alpha}, L={L}, "
                             f"r={r}, eps={eps}, zeta={zeta}, f_gap0={f_gap0}, "
                             f"y0_dist_sq={y0_dist_sq}, beta={beta}") from None
    return DoubleLoopSchedule(b0=b0, b_eps=b_eps, gamma=gamma, N=n_outer,
                              T1=t1, T2=t2, zeta_prime=zeta_prime)


def check_eta_constraint(eta: float, s: float, alpha: float, L: float,
                         beta: float, d: int) -> bool:
    """Feasibility of a custom (eta, s) pair outside the default schedule.

    Checks  beta*sqrt(2d) * (sqrt(2/(pi*eta*s*(alpha-beta))) + 1) * (1 + eta*s*L)
            <= 2*alpha - eta*L^2 - s*L/2.

    ``beta = 0`` makes the left side zero regardless of s (with s = 0 the
    check degenerates to 2*alpha - eta*L^2 > 0).  ``s = 0`` with ``beta > 0``
    is indeterminate (the radical divides by zero) and raises.
    """
    require_certificate(alpha, L)
    require_positive(**{"L^2": L * L})
    if not (0.0 < eta < 2.0 * alpha / (L * L)):
        raise ParameterError(f"eta must lie in (0, 2*alpha/L^2), got {eta}")
    require_nonnegative(s=s, beta=beta)
    require_integer(1, d=d)
    require_finite(d=d)
    rhs = 2.0 * alpha - eta * L * L - s * L / 2.0
    if beta == 0.0:
        return rhs > 0.0 if s == 0.0 else rhs >= 0.0
    if s == 0.0:
        raise ConstraintNotCheckableError("s = 0 with beta > 0: the feasibility radical is undefined")
    if beta >= alpha:
        return False
    den = math.pi * eta * s * (alpha - beta)  # the radical's; it may underflow to 0
    if not den > 0.0:
        raise ParameterError(f"eta*s*(alpha - beta) must be positive, got eta={eta}, s={s}, "
                             f"alpha={alpha}, beta={beta}")
    lhs = beta * math.sqrt(2.0 * d) * (math.sqrt(2.0 / den) + 1.0) * (1.0 + eta * s * L)
    return lhs <= rhs


def nearly_convex_gate(alpha: float, L: float, d: int) -> float:
    """Surrogate-deviation threshold (1/4)*sqrt(alpha^5/(d*L^3)), as alpha/4*(alpha/L)^1.5/sqrt(d)."""
    require_certificate(alpha, L)
    require_integer(1, d=d)
    require_finite(d=d)
    return 0.25 * alpha * (alpha / L) ** 1.5 / math.sqrt(d)


def _grid_values(objective: Objective, grid,
                 alpha: float) -> tuple[Array, Array, Array, Array, float]:
    """The grid as rows, x - x*, ||x - x*||^2 and f - f* per row, and the deviation bound."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.size == 0:
        raise ParameterError("grid must be non-empty")
    if grid.shape[-1] != objective.dim:
        raise ParameterError(f"grid points must have dimension {objective.dim}, got {grid.shape[-1]}")
    if not np.isfinite(grid).all():
        require_finite(grid=grid[~np.isfinite(grid)][0])
    diffs = grid - objective.minimizer
    r2 = np.sum(diffs * diffs, axis=-1)
    if np.any(r2 == 0.0):
        raise ParameterError("grid must exclude the minimizer")
    fv = np.atleast_1d(objective.value(grid)) - objective.min_value
    return grid, diffs, r2, fv, float(np.max(2.0 * np.abs(fv - 0.5 * alpha * r2) / r2))


def estimate_beta_quadratic(objective: Objective, alpha: float, grid) -> float:
    """Upper bound on the surrogate deviation via the quadratic candidate.

    Returns max over the grid of ``2*|f(x) - f* - alpha/2*||x - x*||^2| / ||x - x*||^2``.
    The quadratic ``alpha/2*||x - x*||^2`` is itself one-point strongly convex,
    so this is a valid upper bound on the deviation infimum restricted to the
    grid, and is reported as such.
    """
    require_positive(alpha=alpha)
    return _grid_values(objective, grid, alpha)[-1]


def _certified(objective: Objective, alpha, L) -> tuple[float, float]:
    """``(alpha, L)``, each defaulting to the objective's certificate when None, checked as one."""
    if alpha is None or L is None:
        if objective.certificate is None:
            raise ParameterError("alpha and L are required when the objective has no certificate")
        cert_alpha, cert_l = objective.certificate
        alpha = cert_alpha if alpha is None else alpha
        L = cert_l if L is None else L
    require_certificate(alpha, L)
    return alpha, L


def regularity_constants_grid(objective: Objective, grid, alpha: float | None = None,
                              L: float | None = None) -> RegularityReport:
    """Grid-restricted regularity constants for an objective with known minimizer.

    ``alpha``/``L`` default to the objective's certificate; they are needed for
    the surrogate-deviation estimate and the admissibility gate.  Points with
    ``f(x) - f* <= 1e-14`` are skipped by the gradient-dominance ratio to avoid
    0/0 next to the minimizer.
    """
    alpha, L = _certified(objective, alpha, L)
    grid, diffs, r2, fv, beta_hat = _grid_values(objective, grid, alpha)
    g = objective.gradient(grid)
    mu_r = float(np.min(np.sum(g * diffs, axis=-1) / r2))
    mask = fv > 1e-14
    if not mask.any():
        raise ParameterError("grid has no point with f(x) > f* + 1e-14")
    mu_p = float(np.min(np.sum(g * g, axis=-1)[mask] / (2.0 * fv[mask])))
    mu_q = float(np.min(2.0 * fv / r2))
    gate = nearly_convex_gate(alpha, L, objective.dim)
    return RegularityReport(mu_r_hat=mu_r, mu_p_hat=mu_p, mu_q_hat=mu_q,
                            beta_hat=beta_hat, nc_gate=bool(beta_hat <= gate),
                            n_points=grid.shape[0])


def j2_condition_table(eps: float, R: float) -> list[ConditionCheck]:
    """Which regularity conditions the j2(eps, R) objective satisfies, with parameters.

    Rows: strong convexity, restricted secant, gradient dominance, quadratic
    growth, nearly convex.  The nearly-convex row is the certificate of
    :func:`make_j2`: the (alpha, L) pair of the first admissible range.  The PL parameter
    ``(1 - eps*sqrt(1+R^2))^2/(1+eps)`` is a valid constant but not the infimum
    of ``f'^2/(2(f-f*))``: it pairs the smallest numerator and the largest
    denominator, which occur at different phases (0.670 against 0.7846 at
    eps = 0.1, R = 1).
    """
    certificate = make_j2(eps, R).certificate
    t = eps * math.sqrt(1.0 + R * R)
    t_sc = eps * math.sqrt(1.0 + 5.0 * R**2 + 4.0 * R**4)
    return [
        ConditionCheck("SC", t_sc < 1.0, 1.0 - t_sc if t_sc < 1.0 else None),
        ConditionCheck("RSI", t < 1.0, 1.0 - t if t < 1.0 else None),
        ConditionCheck("PL", t < 1.0, (1.0 - t) ** 2 / (1.0 + eps) if t < 1.0 else None),
        ConditionCheck("QG", True, 1.0 - eps),
        ConditionCheck("NC", certificate is not None, certificate),
    ]


def barrier_check(objective: Objective, x_hat, radius: float,
                  alpha: float | None = None, L: float | None = None,
                  boundary_points: int = 10_000) -> BarrierResult:
    """Check the barrier bound on the ball B(x_hat, radius), which must exclude x*.

    lhs is the boundary minimum of ``f - f(x_hat)`` (exact for d = 1, where the
    boundary is two endpoints; an angular grid for d = 2); rhs is the
    admissible barrier height ``gate(alpha, L, d) * ||x_hat - x*||^2``.
    """
    d = objective.dim
    if d not in (1, 2):
        raise ParameterError(f"barrier check supports d in {{1, 2}}, got d={d}")
    require_positive(radius=radius)
    require_integer(1, boundary_points=boundary_points)
    alpha, L = _certified(objective, alpha, L)
    x_hat = require_point(d, x_hat=x_hat)
    dist = math.sqrt(float(np.sum((x_hat - objective.minimizer) ** 2)))
    if radius >= dist:
        raise ParameterError(
            f"ball of radius {radius} around x_hat contains the minimizer (distance {dist})")
    if d == 1:
        boundary = np.array([[x_hat[0] - radius], [x_hat[0] + radius]])
        conclusive_when_false = True
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, int(boundary_points), endpoint=False)
        boundary = x_hat + radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        conclusive_when_false = False
    lhs = float(np.min(np.atleast_1d(objective.value(boundary))) - objective.value(x_hat))
    rhs = nearly_convex_gate(alpha, L, d) * dist * dist
    holds = lhs < rhs
    return BarrierResult(lhs=lhs, rhs=rhs, holds=holds,
                         conclusive=holds or conclusive_when_false)


def stopping_time_bound(theta: float, b: float, ell: float, M: int, B: float) -> float:
    """Lower bound 1 - ((b + theta*ell)/(b + ell))^M * B/ell on the dip probability.

    Applies to any integrable process with conditional contraction factor
    theta in (0, 1) and almost-sure floor -b; B is E[X_0 * 1{X_0 >= ell}].
    The bound may be negative, in which case it is vacuous.
    """
    require_unit_interval(theta=theta)
    require_positive(b=b, ell=ell)
    require_integer(0, M=M)
    require_nonnegative(B=B)
    return 1.0 - ((b + theta * ell) / (b + ell)) ** int(M) * (B / ell)


def symmetric_log_grid(lo: float = 1e-6, hi: float = 10.0, num: int = 50_000) -> Array:
    """Sign-symmetric log-spaced 1-d grid (2*num points, the origin excluded)."""
    _require_log_range(lo, hi)
    require_integer(2, num=num)
    g = np.geomspace(lo, hi, int(num))
    return np.concatenate([-g[::-1], g])[:, None]


def ball_shell_grid(objective: Objective, lo: float, hi: float, num: int,
                    seed: int = 0) -> Array:
    """Seeded log-radial sample around the minimizer for d >= 2 objectives."""
    _require_log_range(lo, hi)
    require_integer(1, num=num)
    require_uint64(seed=seed)
    rng = RngStream(seed, 0).generator
    radii = np.geomspace(lo, hi, int(num))
    dirs = rng.standard_normal((int(num), objective.dim))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=-1, keepdims=True))
    return objective.minimizer + radii[:, None] * dirs
