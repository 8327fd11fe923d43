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
(at x_{t+1/2} and x_{t+1}).  ``gnd_run`` forms the shadow iterates
y_t = x_t - eta*grad f(x_t) from its recorded points, in one gradient call.

All runners drive the same batched kernel, so a single trajectory is bitwise
identical to the corresponding row of an ensemble run with the same stream.
An ensemble's statistics are folded inside the kernel, step by step, with sums
over trials added in trial order (``_Fold``, ``_add_in_trial_order``).
The double loop has one batched implementation, ``_dlgnd_stages``, with a
lower bound per row; ``dlgnd_run`` is its one-row case.  Its iterations are
numbered across the whole run: outer loop nu >= 1 starts at T1 + (nu-1)*T2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gndopt.errors import (DivergedError, ParameterError, require_finite, require_integer,
                           require_nonnegative, require_positive, require_unit_interval)
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
        require_positive(eta=self.eta)
        require_nonnegative(s=self.s)
        require_finite(f_lb=self.f_lb)
        require_integer(0, T=self.T)


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
        require_positive(eta=self.eta)
        require_nonnegative(s=self.s)
        require_finite(f_lb0=self.f_lb0)
        require_unit_interval(gamma=self.gamma)
        require_integer(1, N=self.N, T1=self.T1, T2=self.T2)

    @property
    def total_iterations(self) -> int:
        return self.T1 + self.N * self.T2


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration record of one solver run (of a batch: a leading row axis)."""

    points: Array       # (T+1, d)
    values: Array       # (T+1,)
    sigmas: Array       # (T,)
    half_values: Array  # (T,) values at the half-steps x_{t+1/2}
    y_points: Optional[Array]  # (T+1, d) shadow iterates, when recorded
    t_star: int         # of a batch: one index per row

    def best_point(self) -> Array:
        return self.points[self.t_star]

    def best_value(self) -> float:
        return float(self.values[self.t_star])


@dataclass(frozen=True)
class DlGndTrace:
    """Outer-loop record of one double-loop run (of a batch: a leading row axis)."""

    lb_history: Array   # (N+1,) lower-bound estimates f_lb^0 .. f_lb^N
    min_points: Array   # (N+1, d) best points after stage one and each outer loop
    min_values: Array   # (N+1,)


def sigma_of(eta: float, s: float, f_half: float, f_lb: float):
    """Adaptive noise level sqrt(eta * s * (f_half - f_lb)^+); accepts arrays."""
    require_positive(eta=eta)
    for s_i in np.ravel(s):
        require_nonnegative(s=s_i)
    for f_lb_i in np.ravel(f_lb):
        require_finite(f_lb=f_lb_i)
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


def _add_in_trial_order(sums, t, rows):
    """Add ``rows`` into ``sums[t]`` one at a time, first row first.

    This is the order in which ``mean(axis=0)`` adds the rows of a matrix of
    two or more columns, so the bytes of a sum do not depend on row blocking.
    """
    acc = np.concatenate((sums[t : t + 1], rows))
    sums[t] = np.add.accumulate(acc, out=acc)[-1]


class _Fold:
    """Per-iteration sums of squared distances to x_star, and counts of those above thr2."""

    def __init__(self, x_star, thr2, width):
        self.x_star, self.thr2 = x_star, thr2
        self.total = np.zeros(width)
        self.misses = np.zeros(width, dtype=np.intp)

    def add(self, t, x):
        diff = x - self.x_star
        d2 = np.add.reduce(diff * diff, axis=-1)
        self.misses[t] += np.count_nonzero(d2 > self.thr2)
        _add_in_trial_order(self.total, t, d2)


def _run_gnd_batch(objective, oracle, x0, cfg, rngs, *, f_lb=None, fold=None, col=0,
                   record=False, trial_base=None) -> Optional[Trajectory]:
    """Run cfg.T GND iterations on a batch of trajectories, one rng stream per row.

    ``f_lb`` may be a scalar or a per-row vector (used by the double-loop
    ensemble); it defaults to ``cfg.f_lb``.  A ``fold`` receives the iterate
    after step t in column ``col + t + 1`` (x0 is not folded).  With
    ``record=True`` the run is returned as a :class:`Trajectory` with a leading
    row axis (without ``y_points``); otherwise nothing is stored and None is
    returned.  Every value is evaluated and guarded either way, so the iterates
    and the stream consumption do not change.  Raises DivergedError as soon as
    any row produces a non-finite value/gradient or exceeds GUARD_LIMIT.
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

    v = objective.value(x)
    _check_values(v, 0, trial_base)
    if record:
        values, points = np.empty((m, T + 1)), np.empty((m, T + 1, d))
        sigmas, half_values = np.empty((m, T)), np.empty((m, T))
        values[:, 0], points[:, 0] = v, x

    # Noise for up to `most` iterations, already divided by sqrt(d): one buffer
    # per call of at most _NOISE_BYTES (or of one iteration, if that is more),
    # refilled in place, stream by stream in draw order.
    most = max(1, min(T, _NOISE_BYTES // (8 * m * cols))) if cols else 0
    block = np.empty((m, most, cols)) if cols else None
    span = bpos = 0
    for t in range(T):
        if cols and bpos == span:
            span = min(most, T - t)
            fill = block[:, :span]
            for row, rng in enumerate(rngs):
                rng.normals((span, cols), out=fill[row])
            fill /= sqrt_d
            bpos = 0
        g = objective.gradient(x)
        _check_gradients(g, t, trial_base)
        if draw_omega:
            g = g + r * block[:, bpos, :d]
        xh = x - eta * g
        vh = objective.value(xh)
        _check_values(vh, t, trial_base, HALF_VALUE)
        if draw_xi or record:
            sig = np.sqrt(eta_s * np.maximum(vh - f_lb, 0.0))
        if draw_xi:
            x = xh - sig[:, None] * block[:, bpos, xi_cols]
        else:
            x = xh
        bpos += 1
        v = objective.value(x)
        _check_values(v, t + 1, trial_base)
        if record:
            half_values[:, t], sigmas[:, t] = vh, sig
            values[:, t + 1], points[:, t + 1] = v, x
        if fold is not None:
            fold.add(col + t + 1, x)

    if not record:
        return None
    # argmin returns the first minimizing index
    return Trajectory(points=points, values=values, sigmas=sigmas, half_values=half_values,
                      y_points=None, t_star=np.argmin(values, axis=1))


def _as_x0(objective, x0) -> Array:
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape != (objective.dim,):
        raise ParameterError(f"x0 must have shape ({objective.dim},), got {x0.shape}")
    return x0


def gnd_run(objective: Objective, oracle: SgOracle, x0, cfg: GndConfig, rng: RngStream,
            record_y: bool = False) -> Trajectory:
    """Run GND for cfg.T iterations from x0, recording the full trajectory.

    With ``record_y=True`` the shadow iterates y_t = x_t - eta*grad f(x_t) are
    formed from the recorded points.  The kernel has guarded grad f(x_t) for
    t < T; grad f(x_T) is guarded here as iteration T.
    """
    x0 = _as_x0(objective, x0)[None, :]
    res = _run_gnd_batch(objective, oracle, x0, cfg, [rng], record=True)
    points, y_points = res.points[0], None
    if record_y:
        g = objective.gradient(points)
        _check_gradients(g[-1:], cfg.T, None)
        y_points = points - cfg.eta * g
    return Trajectory(points=points, values=res.values[0], sigmas=res.sigmas[0],
                      half_values=res.half_values[0], y_points=y_points,
                      t_star=int(res.t_star[0]))


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


def _dlgnd_stages(objective, oracle, x0, cfg, rngs, fold=None, trial_base=None):
    """Run the double-loop scheme on a batch of trajectories, one rng stream per row.

    Yields each row's ``(f_lb, x_min, f(x_min))`` after stage one and after
    each outer loop; each row keeps its own lower bound f_lb.  A ``fold``
    receives the iterate after t gradient steps of the whole run in column t;
    outer-loop restarts jump to the running best point without consuming an
    iteration and are not folded.  A DivergedError names the run's iteration.
    """
    rows = np.arange(x0.shape[0])
    first = GndConfig(eta=cfg.eta, s=cfg.s, f_lb=cfg.f_lb0, T=cfg.T1)
    inner = GndConfig(eta=cfg.eta, s=cfg.s, f_lb=cfg.f_lb0, T=cfg.T2)
    f_lb = np.full(len(rows), float(cfg.f_lb0))
    x_min, offset = x0, 0
    for nu in range(cfg.N + 1):
        if nu:
            f_lb = (1.0 - cfg.gamma) * f_lb + cfg.gamma * v_min
        stage = inner if nu else first
        try:
            res = _run_gnd_batch(objective, oracle, x_min, stage, rngs, f_lb=f_lb, fold=fold,
                                 col=offset, record=True, trial_base=trial_base)
        except DivergedError as err:
            raise DivergedError(err.iteration + offset, err.trial, err.quantity) from None
        x_min, v_min = res.points[rows, res.t_star], res.values[rows, res.t_star]
        yield f_lb, x_min, v_min
        offset += stage.T


def _run_dlgnd_batch(objective, oracle, x0, cfg, rngs, trial_base=None) -> DlGndTrace:
    """The outer-loop trace of :func:`_dlgnd_stages`, stacked per row."""
    lb, mins, vals = zip(*_dlgnd_stages(objective, oracle, x0, cfg, rngs, trial_base=trial_base))
    return DlGndTrace(lb_history=np.stack(lb, axis=1), min_points=np.stack(mins, axis=1),
                      min_values=np.stack(vals, axis=1))
