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
(at x_{t+1/2} and x_{t+1}); each stage (one kernel call) adds the value at its
x_0.  A config's ``work(m, d, r)`` gives the value and gradient rows and the
draws of a whole run.

All runners drive the same batched kernel, so a single trajectory is bitwise
identical to the corresponding row of an ensemble run with the same stream.
The kernel keeps nothing: it hands x_0 and each step's iterate to one
observer, which records the run (``gnd_run``) or keeps each row's best point
(the double loop); the ensemble statistics are observers of
``gndopt.experiments``.  The double loop has one batched implementation,
``_dlgnd_stages``, with a lower bound per row; ``dlgnd_run`` is its one-row
case.  Its iterations are numbered across the whole run: a config's ``stages``
lists the iterations of each kernel call, so outer loop nu >= 1 is the call
whose first iteration is t0 = T1 + (nu-1)*T2.
"""

from __future__ import annotations

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
    """A run's totals, from its ``stages``: the iterations of each kernel call, in order."""

    @property
    def total_iterations(self) -> int:
        return sum(self.stages)

    def work(self, m, d, r) -> dict:
        """Objective rows and draws of a run of m trajectories with drawn starts in dimension d.

        Per trajectory: one stream and its d init uniforms; per stage of T
        iterations, 2T+1 value rows (f(x_0), then f(x_{t+1/2}) and f(x_{t+1})),
        T gradient rows and T * _noise_cols(d, r, s) normals, r being the SG
        oracle's noise level.
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


class _Recorder:
    """Keeps a batch's whole run: the arrays of a :class:`Trajectory` with a leading row axis."""

    def __init__(self, m, T, d):
        self.points, self.values = np.empty((m, T + 1, d)), np.empty((m, T + 1))
        self.sigmas, self.half_values = np.empty((m, T)), np.empty((m, T))

    def step(self, t, x, v, vh, sig):
        self.points[:, t], self.values[:, t] = x, v
        if t:
            self.half_values[:, t - 1], self.sigmas[:, t - 1] = vh, sig


def _run_gnd_batch(objective, x0, rngs, observer, *, eta, s, f_lb, r, T, t0=0,
                   trial_base=None) -> None:
    """Run GND iterations t0 .. t0+T-1 on a batch of trajectories, one rng stream per row.

    ``f_lb`` is a scalar or a per-row vector; ``r`` is the SG oracle's noise level.
    The kernel keeps nothing of the run: it calls ``observer.step(t, x_t, f(x_t),
    f(x_{t-1/2}), sigma_{t-1})`` first at t = t0 (with None for the last two) and
    after each step, once the step's values are guarded.  The arrays it passes
    are not written to afterwards.  Raises DivergedError, naming iteration t, as
    soon as any row produces a non-finite value/gradient or exceeds GUARD_LIMIT.
    """
    x = np.array(x0, dtype=np.float64)
    m, d = x.shape
    if len(rngs) != m:
        raise ParameterError(f"need one rng stream per row: {len(rngs)} streams, {m} rows")
    T = int(T)
    eta = float(eta)
    s = float(s)
    eta_s = eta * s
    r = float(r)
    draw_omega = r > 0.0
    draw_xi = s > 0.0
    cols = _noise_cols(d, r, s)
    xi_cols = slice(d if draw_omega else 0, None)

    v = objective.value(x)
    _check_values(v, t0, trial_base)
    observer.step(t0, x, v, None, None)

    # Noise for up to `most` iterations, already divided by sqrt(d): one buffer
    # per call within the draw-ahead budget, refilled in place, stream by
    # stream in draw order.
    most = draw_ahead_span(m, cols, T) if cols else 0
    block = np.empty((m, most, cols)) if cols else None
    span = bpos = 0
    for t in range(t0, t0 + T):
        if cols and bpos == span:
            span = min(most, t0 + T - t)
            fill_scaled_gaussian(block[:, :span], rngs, d)
            bpos = 0
        g = objective.gradient(x)
        _check_gradients(g, t, trial_base)
        if draw_omega:
            g = g + r * block[:, bpos, :d]
        xh = x - eta * g
        vh = objective.value(xh)
        _check_values(vh, t, trial_base, HALF_VALUE)
        sig = np.sqrt(eta_s * np.maximum(vh - f_lb, 0.0))
        if draw_xi:
            x = xh - sig[:, None] * block[:, bpos, xi_cols]
        else:
            x = xh
        bpos += 1
        v = objective.value(x)
        _check_values(v, t + 1, trial_base)
        observer.step(t + 1, x, v, vh, sig)


def gnd_run(objective: Objective, oracle: SgOracle, x0, cfg: GndConfig,
            rng: RngStream) -> Trajectory:
    """Run GND for cfg.T iterations from x0, recording the full trajectory."""
    x0 = require_point(objective.dim, x0=x0)
    rec = _Recorder(1, cfg.T, x0.size)
    _run_gnd_batch(objective, x0[None, :], [rng], rec, eta=cfg.eta, s=cfg.s, f_lb=cfg.f_lb,
                   r=oracle.r, T=cfg.T)
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

    The rng stream is consumed sequentially across all inner runs, so a
    double-loop run owns exactly one stream like any other trajectory.  This
    is the one-row case of :func:`_dlgnd_stages`.
    """
    x0 = require_point(objective.dim, x0=x0)
    lb, mins, vals = zip(*_dlgnd_stages(objective, oracle.r, x0[None, :], cfg, [rng]))
    return DlGndTrace(lb_history=np.concatenate(lb), min_points=np.concatenate(mins),
                      min_values=np.concatenate(vals))


class _StageBest:
    """Each row's first minimizer of f(x_t) over one stage, forwarding each step to an observer.

    A strict ``<`` keeps the first minimizer, as ``np.argmin`` does on guarded values.  The
    stage's x_0 comes at its first iteration t0 (``vh`` None); a restart's is not observed.
    """

    def __init__(self, observer):
        self.observer = observer

    def step(self, t, x, v, vh, sig):
        if vh is None:
            self.x, self.v = x.copy(), v.copy()
        else:
            better = v < self.v
            if better.any():
                np.copyto(self.v, v, where=better)
                np.copyto(self.x, x, where=better[:, None])
        if self.observer is not None and (vh is not None or not t):
            self.observer.step(t, x, v, vh, sig)


def _dlgnd_stages(objective, r, x0, cfg, rngs, observer=None, trial_base=None):
    """Run the double-loop scheme on a batch of trajectories, one rng stream per row.

    Yields each row's ``(f_lb, x_min, f(x_min))`` after stage one and after
    each outer loop; each row keeps its own lower bound f_lb.  A stage is one kernel
    call from the running best point at its first iteration t0 of the whole run,
    as an ``observer`` and a DivergedError see it; a restart's x_0 is not observed.
    """
    f_lb = np.full(x0.shape[0], float(cfg.f_lb0))
    x_min, t0 = x0, 0
    for nu, T in enumerate(cfg.stages):
        if nu:
            f_lb = (1.0 - cfg.gamma) * f_lb + cfg.gamma * v_min
        best = _StageBest(observer)
        _run_gnd_batch(objective, x_min, rngs, best, eta=cfg.eta, s=cfg.s, f_lb=f_lb, r=r,
                       T=T, t0=t0, trial_base=trial_base)
        x_min, v_min = best.x, best.v
        yield f_lb, x_min, v_min
        t0 += T
