"""GND iteration, its double-loop variant, and the GD/SGD baseline.

One GND iteration from the current point x_t:

    x_{t+1/2} = x_t - eta * SG(x_t)
    sigma_t   = sqrt(eta * s * max(f(x_{t+1/2}) - f_lb, 0))
    x_{t+1}   = x_{t+1/2} - sigma_t * xi_t,   xi_t ~ N(0, I_d/d)

The injected noise is subtracted; xi is symmetric, so adding it defines the
same process.  The returned iterate is x_{t*} where t* is the first index
attaining the minimum recorded value over x_0..x_T (half-step values are
recorded for the noise bookkeeping but never enter t*).

Cost per iteration: one gradient evaluation (at x_t) and two value evaluations
(at x_{t+1/2} and x_{t+1}); recording the shadow iterates y_t = x_t - eta*grad f(x_t)
reuses the step gradient and only adds one extra gradient evaluation at x_T.

All runners drive the same batched kernel, so a single trajectory is bitwise
identical to the corresponding row of an ensemble run with the same stream.
The double loop has one batched implementation, ``_run_dlgnd_batch``, with a
lower bound per row; ``dlgnd_run`` is its one-row case.  Its iterations are
numbered across the whole run: outer loop nu >= 1 starts at T1 + (nu-1)*T2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gndopt.errors import DivergedError, ParameterError, require_finite
from gndopt.objectives import Objective
from gndopt.sampling import RngStream, SgOracle

Array = np.ndarray

GUARD_LIMIT = 1e12
# Bytes of noise pregenerated per refill, across all rows of a kernel call.  The
# span in iterations follows from the batch size and the draws per iteration;
# any span yields the same streams.
_NOISE_BYTES = 4 * 2**20


@dataclass(frozen=True)
class GndConfig:
    """Hyperparameters of a single GND run."""

    eta: float
    s: float
    f_lb: float
    T: int

    def __post_init__(self):
        require_finite(eta=self.eta, s=self.s, f_lb=self.f_lb)
        if not self.eta > 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if self.s < 0:
            raise ParameterError(f"s must be nonnegative, got {self.s}")
        if self.T < 0 or self.T != int(self.T):
            raise ParameterError(f"T must be a nonnegative integer, got {self.T}")


@dataclass(frozen=True)
class DlGndConfig:
    """Hyperparameters of a double-loop GND run.

    Stage one runs GND for T1 iterations with the initial lower bound f_lb0;
    each of the N outer loops then updates the lower bound by the convex
    combination ``f_lb <- (1-gamma)*f_lb + gamma*f(x_min)`` and runs GND for T2
    iterations from the best point found so far.  (eta, s) are inherited
    unchanged by every inner run.
    """

    eta: float
    s: float
    f_lb0: float
    gamma: float
    N: int
    T1: int
    T2: int

    def __post_init__(self):
        require_finite(eta=self.eta, s=self.s, f_lb0=self.f_lb0)
        if not self.eta > 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if self.s < 0:
            raise ParameterError(f"s must be nonnegative, got {self.s}")
        if not (0.0 < self.gamma < 1.0):
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        for name, v in (("N", self.N), ("T1", self.T1), ("T2", self.T2)):
            if v < 1 or v != int(v):
                raise ParameterError(f"{name} must be a positive integer, got {v}")

    @property
    def total_iterations(self) -> int:
        return self.T1 + self.N * self.T2


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration record of one solver run."""

    points: Array       # (T+1, d)
    values: Array       # (T+1,)
    sigmas: Array       # (T,)
    half_values: Array  # (T,) values at the half-steps x_{t+1/2}
    y_points: Optional[Array]  # (T+1, d) shadow iterates, when recorded
    t_star: int

    def best_point(self) -> Array:
        return self.points[self.t_star]

    def best_value(self) -> float:
        return float(self.values[self.t_star])


@dataclass(frozen=True)
class DlGndTrace:
    """Outer-loop record of one double-loop run."""

    lb_history: Array   # (N+1,) lower-bound estimates f_lb^0 .. f_lb^N
    min_points: Array   # (N+1, d) best points after stage one and each outer loop
    min_values: Array   # (N+1,)


def sigma_of(eta: float, s: float, f_half: float, f_lb: float):
    """Adaptive noise level sqrt(eta * s * (f_half - f_lb)^+); accepts arrays."""
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    if np.any(np.asarray(s) < 0):
        raise ParameterError(f"s must be nonnegative, got {s}")
    return np.sqrt(eta * s * np.maximum(np.asarray(f_half) - f_lb, 0.0))


_GUARD_LIMIT_SQ = GUARD_LIMIT**2

# Quantities named by DivergedError: f(x_t) at the reported iteration t, the
# half-step value f(x_{t+1/2}) of iteration t, and grad f(x_t).
VALUE, HALF_VALUE, GRADIENT = "value", "half-step value", "gradient"


def _diverged(ok, t, base, quantity):
    row = int(np.argmin(ok))  # first row whose test failed
    raise DivergedError(iteration=t, trial=None if base is None else base + row,
                        quantity=quantity)


def _check_values(v, t, base, quantity=VALUE):
    # NaN propagates through the max and fails the comparison, as do +-inf.
    if not np.maximum.reduce(np.abs(v)) <= GUARD_LIMIT:
        _diverged(np.abs(v) <= GUARD_LIMIT, t, base, quantity)


def _check_gradients(g, t, base):
    # A non-finite component makes its row's squared norm inf or NaN.
    norm2 = np.add.reduce(g * g, axis=-1)
    if not np.maximum.reduce(norm2) <= _GUARD_LIMIT_SQ:
        _diverged(norm2 <= _GUARD_LIMIT_SQ, t, base, GRADIENT)


class _BatchResult:
    __slots__ = ("values", "sigmas", "half_values", "points", "ys", "dist2", "t_star")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))


def _run_gnd_batch(objective, oracle, x0, cfg, rngs, *, f_lb=None, x_star=None,
                   record_values=True, record_points=False, record_y=False,
                   trial_base=None) -> _BatchResult:
    """Run cfg.T GND iterations on a batch of trajectories, one rng stream per row.

    ``f_lb`` may be a scalar or a per-row vector (used by the double-loop
    ensemble); it defaults to ``cfg.f_lb``.  When ``x_star`` is given, squared
    distances to it are recorded per iteration.  With ``record_values=False``
    the per-iteration ``values``, ``sigmas`` and ``half_values`` (and
    ``t_star``) are not stored; every value is still evaluated and guarded, so
    the iterates and the stream consumption do not change.  Raises
    DivergedError as soon as any row produces a non-finite value/gradient or
    exceeds GUARD_LIMIT.
    """
    x = np.array(x0, dtype=np.float64)
    m, d = x.shape
    if len(rngs) != m:
        raise ParameterError(f"need one rng stream per row: {len(rngs)} streams, {m} rows")
    T = int(cfg.T)
    eta = float(cfg.eta)
    s = float(cfg.s)
    eta_s = eta * s
    f_lb = cfg.f_lb if f_lb is None else f_lb
    r = float(oracle.r)
    draw_omega = r > 0.0
    draw_xi = s > 0.0
    cols = d * (int(draw_omega) + int(draw_xi))
    xi_cols = slice(d if draw_omega else 0, None)
    sqrt_d = math.sqrt(d)

    values = np.empty((m, T + 1)) if record_values else None
    sigmas = np.empty((m, T)) if record_values else None
    half_values = np.empty((m, T)) if record_values else None
    points = np.empty((m, T + 1, d)) if record_points else None
    ys = np.empty((m, T + 1, d)) if record_y else None
    dist2 = np.empty((m, T + 1)) if x_star is not None else None

    v = objective.value(x)
    _check_values(v, 0, trial_base)
    if record_values:
        values[:, 0] = v
    if record_points:
        points[:, 0] = x
    if dist2 is not None:
        diff = x - x_star
        dist2[:, 0] = np.add.reduce(diff * diff, axis=-1)

    # Noise for up to `most` iterations, already divided by sqrt(d): one buffer
    # per call of at most _NOISE_BYTES (or of one iteration, if that is more),
    # refilled stream by stream in draw order.
    most = max(1, min(T, _NOISE_BYTES // (8 * m * cols))) if cols else 0
    block = np.empty((m, most, cols)) if cols else None
    span = bpos = 0
    for t in range(T):
        if cols and bpos == span:
            span = min(most, T - t)
            fill = block[:, :span]
            for row, rng in enumerate(rngs):
                fill[row] = rng.normals((span, cols))
            fill /= sqrt_d
            bpos = 0
        g = objective.gradient(x)
        _check_gradients(g, t, trial_base)
        if record_y:
            ys[:, t] = x - eta * g
        if draw_omega:
            g = g + r * block[:, bpos, :d]
        xh = x - eta * g
        vh = objective.value(xh)
        _check_values(vh, t, trial_base, HALF_VALUE)
        if draw_xi or record_values:
            sig = np.sqrt(eta_s * np.maximum(vh - f_lb, 0.0))
        if record_values:
            half_values[:, t] = vh
            sigmas[:, t] = sig
        if draw_xi:
            x = xh - sig[:, None] * block[:, bpos, xi_cols]
        else:
            x = xh
        bpos += 1
        v = objective.value(x)
        _check_values(v, t + 1, trial_base)
        if record_values:
            values[:, t + 1] = v
        if record_points:
            points[:, t + 1] = x
        if dist2 is not None:
            diff = x - x_star
            dist2[:, t + 1] = np.add.reduce(diff * diff, axis=-1)

    if record_y:
        g = objective.gradient(x)
        _check_gradients(g, T, trial_base)
        ys[:, T] = x - eta * g

    # argmin returns the first minimizing index
    t_star = np.argmin(values, axis=1) if record_values else None
    return _BatchResult(values=values, sigmas=sigmas, half_values=half_values,
                        points=points, ys=ys, dist2=dist2, t_star=t_star)


def _as_x0(objective, x0) -> Array:
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape != (objective.dim,):
        raise ParameterError(f"x0 must have shape ({objective.dim},), got {x0.shape}")
    return x0


def gnd_run(objective: Objective, oracle: SgOracle, x0, cfg: GndConfig, rng: RngStream,
            record_y: bool = False) -> Trajectory:
    """Run GND for cfg.T iterations from x0, recording the full trajectory."""
    x0 = _as_x0(objective, x0)
    res = _run_gnd_batch(objective, oracle, x0[None, :], cfg, [rng],
                         record_points=True, record_y=record_y)
    return Trajectory(
        points=res.points[0],
        values=res.values[0],
        sigmas=res.sigmas[0],
        half_values=res.half_values[0],
        y_points=res.ys[0] if record_y else None,
        t_star=int(res.t_star[0]),
    )


def gd_run(objective: Objective, oracle: SgOracle, x0, eta: float, T: int,
           rng: RngStream, record_y: bool = False) -> Trajectory:
    """Plain (stochastic) gradient descent: GND with s = 0, bit for bit."""
    cfg = GndConfig(eta=eta, s=0.0, f_lb=0.0, T=T)
    return gnd_run(objective, oracle, x0, cfg, rng, record_y=record_y)


def dlgnd_run(objective: Objective, oracle: SgOracle, x0, cfg: DlGndConfig,
              rng: RngStream) -> DlGndTrace:
    """Run the double-loop scheme, returning the outer-loop trace.

    The rng stream is consumed sequentially across all inner runs, so a
    double-loop run owns exactly one stream like any other trajectory.  This
    is row 0 of a one-row :func:`_run_dlgnd_batch`.
    """
    x0 = _as_x0(objective, x0)
    res = _run_dlgnd_batch(objective, oracle, x0[None, :], cfg, [rng])
    return DlGndTrace(lb_history=res.lb_history[0], min_points=res.min_points[0],
                      min_values=res.min_values[0])


@dataclass(frozen=True)
class _DlGndBatch:
    lb_history: Array        # (m, N+1)
    min_points: Array        # (m, N+1, d)
    min_values: Array        # (m, N+1)
    dist2: Optional[Array]   # (m, T1 + N*T2 + 1), when x_star is given


def _run_dlgnd_batch(objective, oracle, x0, cfg, rngs, x_star=None,
                     trial_base=None) -> _DlGndBatch:
    """Run the double-loop scheme on a batch of trajectories, one rng stream per row.

    Each row keeps its own lower bound f_lb.  When ``x_star`` is given,
    column t of ``dist2`` is the squared distance of the iterate after t
    gradient steps; outer-loop restarts jump to the running best point
    without consuming an iteration.  A DivergedError names the iteration
    within the whole run.
    """
    m, d = x0.shape
    rows = np.arange(m)
    lb = np.empty((m, cfg.N + 1))
    mins = np.empty((m, cfg.N + 1, d))
    min_vals = np.empty((m, cfg.N + 1))
    dist2 = np.empty((m, cfg.total_iterations + 1)) if x_star is not None else None

    first = GndConfig(eta=cfg.eta, s=cfg.s, f_lb=cfg.f_lb0, T=cfg.T1)
    inner = GndConfig(eta=cfg.eta, s=cfg.s, f_lb=cfg.f_lb0, T=cfg.T2)
    f_lb = np.full(m, float(cfg.f_lb0))
    x_min, offset = x0, 0
    for nu in range(cfg.N + 1):
        if nu:
            f_lb = (1.0 - cfg.gamma) * f_lb + cfg.gamma * min_vals[:, nu - 1]
        stage = inner if nu else first
        try:
            res = _run_gnd_batch(objective, oracle, x_min, stage, rngs, f_lb=f_lb,
                                 x_star=x_star, record_points=True, trial_base=trial_base)
        except DivergedError as err:
            raise DivergedError(err.iteration + offset, err.trial, err.quantity) from None
        if dist2 is not None:
            skip = int(nu > 0)  # a restart's first point is the previous best point
            dist2[:, offset + skip : offset + stage.T + 1] = res.dist2[:, skip:]
        x_min = res.points[rows, res.t_star]
        lb[:, nu], mins[:, nu], min_vals[:, nu] = f_lb, x_min, res.values[rows, res.t_star]
        offset += stage.T

    return _DlGndBatch(lb_history=lb, min_points=mins, min_values=min_vals, dist2=dist2)
