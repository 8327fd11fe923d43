"""GND iteration, its double-loop variant, and the GD/SGD baseline.

One GND iteration from the current point x_t:

    x_{t+1/2} = x_t - eta * SG(x_t)
    sigma_t   = sqrt(eta * s * max(f(x_{t+1/2}) - f_lb, 0))
    x_{t+1}   = x_{t+1/2} - sigma_t * xi_t,   xi_t ~ N(0, I_d/d)

The injected noise is subtracted; xi is symmetric, so adding it defines the
same process.  The returned iterate is x_{t*} where t* is the first index
attaining the minimum value over x_0..x_T (half-step values are recorded for
the noise bookkeeping but never enter t*).

Cost per iteration: one gradient evaluation (at x_t) and two value evaluations
(at x_{t+1/2} and x_{t+1}); each stage adds the value at its x_0.  A config's
``work(m, d, r)`` gives the value and gradient rows and the draws of a whole
run.  The value rows of a stage of T iterations come in T+1 calls: x_{t+1/2}
needs grad f(x_t) but not f(x_t), so pass t makes one value call on the
stacked rows [x_t; x_{t+1/2}], and the last pass evaluates f(x_T) alone.  No
objective's value of a row depends on the rest of its batch, so the stacked
values are bitwise those of two calls.  Constants that meet arrays in the step
loop are 0-d float64 arrays, built once per run, because numpy converts a
Python or numpy scalar operand on every call.

All runners drive one batched kernel, ``_run_stages``, once per run or row
block, so a single trajectory is bitwise identical to the corresponding row of
an ensemble run with the same stream.  The kernel walks the config's
``stages``: ``(T,)`` for GND, ``(T1,) + (T2,)*N`` for the double loop, whose
outer loops update each row's lower bound from the row's best point and
restart there.  A GND run is the one-stage case, so the double loop has no
code of its own, and ``dlgnd_run`` is its one-row case.  Iterations are
numbered across the whole run: outer loop nu >= 1 starts at iteration
T1 + (nu-1)*T2.  The kernel keeps nothing but each row's best point of the
stage: it hands x_0, and each step's iterate with the gradient at the step's
start, to one observer, which records the run (``gnd_run``) or folds ensemble
statistics (``gndopt.experiments``) and evaluates no gradient of its own.

The divergence guard fails a value of magnitude above ``GUARD_LIMIT``, a
gradient row of norm above it, and anything non-finite.  It screens each block
of at most 10 000 numbers first: one dot product, a sum of squares of at most
``GUARD_LIMIT**2 / 4``, passes the block.  Only a block the screen does not pass
gets the exact row scan, which alone decides whether to raise and which row to
name.  Reports come in the order f(x_t), grad f(x_t), f(x_{t+1/2}): the gradient
is guarded before the stacked call, and if it fails, f(x_t) is evaluated alone
and guarded first.  One screen covers each stacked result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from gndopt.errors import (DivergedError, ParameterError, require_finite, require_integer,
                           require_nonnegative, require_point, require_positive,
                           require_unit_interval)
from gndopt.objectives import Objective
from gndopt.sampling import RngStream, SgOracle, draw_ahead_span, fill_scaled_gaussian

Array = np.ndarray

GUARD_LIMIT = 1e12


def _noise_cols(d, r, s):
    """Normals per row-iteration: d iff r > 0 (gradient noise), then d iff s > 0 (injected)."""
    return d * ((r > 0.0) + (s > 0.0))


class _Stages:
    """A run's totals, from its ``stages``: the iterations of each stage, in order."""

    @property
    def total_iterations(self) -> int:
        return sum(self.stages)

    def work(self, m, d, r) -> dict:
        """Objective rows and draws of a run of m trajectories with drawn starts in dimension d.

        Per trajectory: one stream and its d init uniforms; per stage of T
        iterations, 2T+1 value rows (f(x_0), then f(x_{t+1/2}) and f(x_{t+1}),
        which the kernel evaluates in T+1 calls per row block), T gradient rows
        and T * _noise_cols(d, r, s) normals, r being the SG oracle's noise level.
        """
        require_integer(1, m=m, d=d)
        require_nonnegative(r=r)
        m, d, iterations = int(m), int(d), self.total_iterations
        return {"value": m * sum(2 * T + 1 for T in self.stages), "gradient": m * iterations,
                "normals": m * iterations * _noise_cols(d, r, self.s), "uniforms": m * d,
                "streams": m}


@dataclass(frozen=True)
class GndConfig(_Stages):
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
        object.__setattr__(self, "T", int(self.T))

    @property
    def stages(self) -> tuple:
        return (self.T,)

    @property
    def f_lb0(self) -> float:
        """The lower bound of the run's one stage, by :class:`DlGndConfig`'s name."""
        return self.f_lb


@dataclass(frozen=True)
class DlGndConfig(_Stages):
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
        for name in ("N", "T1", "T2"):
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def stages(self) -> tuple:
        return (self.T1,) + (self.T2,) * self.N


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration record of one solver run."""

    points: Array       # (T+1, d)
    values: Array       # (T+1,)
    sigmas: Array       # (T,)
    half_values: Array  # (T,) values at the half-steps x_{t+1/2}
    t_star: int         # first index of the least value

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


_GUARD_LIMIT_SQ = GUARD_LIMIT**2
# A block whose sum of squares is at most a quarter of GUARD_LIMIT**2 has every
# entry and every row norm within GUARD_LIMIT / 2 up to rounding, so the screen
# passes only blocks that the exact scan passes row by row.  BLAS threads dot
# products above about 10 000 elements; larger blocks go to the exact scan alone.
_SCREEN_SQ = _GUARD_LIMIT_SQ / 4
_SCREEN_MOST = 10_000

# Quantities named by DivergedError: f(x_t) at the reported iteration t, the
# half-step value f(x_{t+1/2}) of iteration t, and grad f(x_t).
VALUE, HALF_VALUE, GRADIENT = "value", "half-step value", "gradient"


def _screened(a):
    """Whether one dot product proves every row of block ``a`` inside GUARD_LIMIT.

    NaN, +-inf and overflowing squares make the sum NaN or inf, which fails the
    comparison; a large but legal block fails it too, and goes to the exact scan.
    """
    return a.size <= _SCREEN_MOST and np.vdot(a, a) <= _SCREEN_SQ


def _diverged(ok, t, base, quantity):
    row = int(np.argmin(ok))  # first row whose test failed
    raise DivergedError(iteration=t, trial=None if base is None else base + row,
                        quantity=quantity)


def _check_values(v, t, base, quantity=VALUE):
    if _screened(v):
        return
    # NaN propagates through the max and fails the comparison, as do +-inf.
    if not np.maximum.reduce(np.abs(v)) <= GUARD_LIMIT:
        _diverged(np.abs(v) <= GUARD_LIMIT, t, base, quantity)


def _check_gradients(g, t, base):
    if _screened(g):
        return
    # A non-finite component makes its row's squared norm inf or NaN, and so does
    # a finite component whose square overflows.
    with np.errstate(over="ignore"):
        norm2 = np.add.reduce(g * g, axis=-1)
    if not np.maximum.reduce(norm2) <= _GUARD_LIMIT_SQ:
        _diverged(norm2 <= _GUARD_LIMIT_SQ, t, base, GRADIENT)


class _Recorder:
    """Keeps a batch's whole run: the arrays of a :class:`Trajectory` with a leading row axis."""

    def __init__(self, m, T, d):
        self.points, self.values = np.empty((m, T + 1, d)), np.empty((m, T + 1))
        self.sigmas, self.half_values = np.empty((m, T)), np.empty((m, T))

    def step(self, t, x, v, vh, sig, _g):
        self.points[:, t], self.values[:, t] = x, v
        if t:
            self.half_values[:, t - 1], self.sigmas[:, t - 1] = vh, sig


def _run_stages(objective, x0, rngs, observer, cfg, r, trial_base=None):
    """Run ``cfg``'s stages on a batch of trajectories, one rng stream per row.

    ``r`` is the SG oracle's noise level.  A stage of T iterations, starting at
    iteration t0 of the whole run, makes T+1 passes: pass t evaluates and
    guards grad f(x_t), then f(x_t) and f(x_{t+1/2}) in one call, and the last
    pass f(x_T) alone.  Each row keeps the first minimizer of f(x_t) over the
    stage (a strict ``<``, as ``np.argmin`` picks).  After each stage the kernel
    yields the rows' ``(f_lb, x_min, f(x_min))``; the next stage sets
    ``f_lb <- (1-gamma)*f_lb + gamma*f(x_min)`` and restarts from x_min.  It
    keeps nothing of the run: it calls ``observer.step(t, x_t, f(x_t),
    f(x_{t-1/2}), sigma_{t-1}, g)`` in pass t, once f(x_t) is guarded: first at
    t = 0 (with None for the last three), then with g = grad f(x_{t-1})
    (grad f(x_min) in a restart's first step) without the oracle's noise.  A
    restart's x_0 takes no iteration and is not observed.  The arrays it passes
    and yields are not written to afterwards.  Raises DivergedError, naming
    iteration t, as soon as any row produces a non-finite value/gradient or
    exceeds GUARD_LIMIT; f(x_t) is reported before grad f(x_t), and that before
    f(x_{t+1/2}).
    """
    x = np.array(x0, dtype=np.float64)
    m, d = x.shape
    if len(rngs) != m:
        raise ParameterError(f"need one rng stream per row: {len(rngs)} streams, {m} rows")
    eta = float(cfg.eta)
    s = float(cfg.s)
    r = float(r)
    draw_omega = r > 0.0
    draw_xi = s > 0.0
    cols = _noise_cols(d, r, s)
    xi_cols = slice(d if draw_omega else 0, None)
    total = cfg.total_iterations
    # The step loop's constants, 0-d; sigma's factor eta * s is formed first.
    eta, eta_s, r, zero = (np.array(k) for k in (eta, eta * s, r, 0.0))

    # Noise for up to `most` iterations, already divided by sqrt(d): one buffer
    # per run within the draw-ahead budget, refilled in place, stream by stream
    # in draw order, across stage boundaries.
    most = draw_ahead_span(m, cols, total) if cols else 0
    block = np.empty((m, most, cols)) if cols else None
    span = bpos = t0 = 0
    f_lb = np.full(m, float(cfg.f_lb0))
    for nu, T in enumerate(cfg.stages):
        if nu:
            f_lb = (1.0 - cfg.gamma) * f_lb + cfg.gamma * v_min
            x = x_min
        end = t0 + T
        for t in range(t0, end + 1):
            if t < end:
                if cols and bpos == span:
                    span = min(most, total - t)
                    fill_scaled_gaussian(block[:, :span], rngs, d)
                    bpos = 0
                g_t = objective.gradient(x)
                try:
                    _check_gradients(g_t, t, trial_base)
                except DivergedError:
                    # f(x_t) is guarded before grad f(x_t), as it is reported first.
                    _check_values(objective.value(x), t, trial_base)
                    raise
                xh = x - eta * (g_t + r * block[:, bpos, :d] if draw_omega else g_t)
                vv = objective.value(np.concatenate((x, xh)))
                if not _screened(vv):
                    _check_values(vv[:m], t, trial_base)
                    _check_values(vv[m:], t, trial_base, HALF_VALUE)
                v = vv[:m]
            else:
                v = objective.value(x)
                _check_values(v, t, trial_base)
            if t == t0:
                if not nu and observer is not None:
                    observer.step(0, x, v, None, None, None)
                x_min, v_min = x.copy(), v.copy()
            else:
                if observer is not None:
                    observer.step(t, x, v, vh, sig, g)
                better = v < v_min
                if np.count_nonzero(better):
                    np.copyto(v_min, v, where=better)
                    np.copyto(x_min, x, where=better[:, None])
            if t < end:
                vh, g = vv[m:], g_t
                sig = np.sqrt(eta_s * np.maximum(vh - f_lb, zero))
                if draw_xi:
                    x = xh - sig[:, None] * block[:, bpos, xi_cols]
                else:
                    x = xh
                bpos += 1
        yield f_lb, x_min, v_min
        t0 = end


def gnd_run(objective: Objective, oracle: SgOracle, x0, cfg: GndConfig,
            rng: RngStream) -> Trajectory:
    """Run GND for cfg.T iterations from x0, recording the full trajectory."""
    x0 = require_point(objective.dim, x0=x0)
    rec = _Recorder(1, cfg.T, x0.size)
    deque(_run_stages(objective, x0[None, :], [rng], rec, cfg, oracle.r), maxlen=0)
    # argmin returns the first minimizing index
    return Trajectory(points=rec.points[0], values=rec.values[0], sigmas=rec.sigmas[0],
                      half_values=rec.half_values[0], t_star=int(np.argmin(rec.values[0])))


def gd_run(objective: Objective, oracle: SgOracle, x0, eta: float, T: int,
           rng: RngStream) -> Trajectory:
    """Plain (stochastic) gradient descent: GND with s = 0, bit for bit."""
    return gnd_run(objective, oracle, x0, GndConfig(eta=eta, s=0.0, f_lb=0.0, T=T), rng)


def dlgnd_run(objective: Objective, oracle: SgOracle, x0, cfg: DlGndConfig,
              rng: RngStream) -> DlGndTrace:
    """Run the double-loop scheme, returning the outer-loop trace.

    The rng stream is consumed sequentially across all stages, so a
    double-loop run owns exactly one stream like any other trajectory.  This
    is the one-row case of the kernel's stage loop (:func:`_run_stages`).
    """
    x0 = require_point(objective.dim, x0=x0)
    lb, mins, vals = zip(*_run_stages(objective, x0[None, :], [rng], None, cfg, oracle.r))
    return DlGndTrace(lb_history=np.concatenate(lb), min_points=np.concatenate(mins),
                      min_values=np.concatenate(vals))
