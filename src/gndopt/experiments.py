"""Monte-Carlo ensemble runner, verification experiments, and CSV/SVG output.

Determinism contract: trial i draws from stream ``(seed, i)``, first its d
init-box uniforms when its start is drawn, and every ensemble, GND or DL-GND,
runs through ``_run_blocks``: one call of the solver's stage loop per row block
of a fixed size, in trial order.  The kernel hands x_0 and each step's iterate
to an observer (``_Fold``, ``_ShadowFold``) that adds the block's squared
distances into that iteration's running sum one row at a time, in trial order
(``_add_in_trial_order``), as ``mean(axis=0)`` over the full trials x (T+1)
matrix does when T >= 1.  So the output bytes do not depend on the block
size, and memory grows with neither T nor the trial count (beyond the
per-iteration sums and the shadow checks' per-trial minimum).  Diverged
trajectories abort the whole experiment (silently dropping them would bias
the error statistics).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gndopt.errors import (ParameterError, require_finite, require_integer, require_nonnegative,
                           require_point, require_positive, require_uint64)
from gndopt.objectives import Objective
from gndopt.sampling import RngStream
from gndopt.solver import DlGndConfig, GndConfig, _run_stages
from gndopt.theory import Schedule, gnd_schedule, stopping_time_bound

Array = np.ndarray

# Trials per kernel call: bounds the kernel's per-row working set (streams,
# iterates, one step's distances).  The noise buffer is bounded by bytes in
# the sampler and j1's sine tables by bytes in its value's row tiles.  512
# rows spread the kernel's fixed numpy calls per step over twice the rows of
# 256.  The whole 2000-trial j1 ensemble as one block was slower
# (BENCH_5.json, `one_batch`, measured before j1's value was tiled).
_CHUNK = 512


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment: objective, algorithm, ensemble, and init box."""

    objective: Objective
    algorithm: GndConfig | DlGndConfig
    sg_noise_r: float
    trials: int
    init_low: float | Array
    init_high: float | Array
    seed: int
    threshold: float = 1e-3

    def __post_init__(self):
        require_integer(1, trials=self.trials)
        object.__setattr__(self, "trials", int(self.trials))
        require_uint64(seed=self.seed)
        require_nonnegative(sg_noise_r=self.sg_noise_r)
        require_positive(threshold=self.threshold)
        low, high = _init_box(self)
        if np.any(low > high):
            raise ParameterError("init box must satisfy low <= high per coordinate")


@dataclass(frozen=True)
class StatsSeries:
    """Per-iteration ensemble statistics: mean squared distance and miss fraction."""

    mse: Array
    ncp: Array

    def __post_init__(self):
        self.mse.setflags(write=False)
        self.ncp.setflags(write=False)


@dataclass(frozen=True)
class ContractionReport:
    """Per-iteration comparison of the ensemble mean of ||y_t - x*||^2 to its bound."""

    means: Array
    bounds: Array
    margins: Array
    holds: bool
    first_violation: Optional[int]
    schedule: Schedule


@dataclass(frozen=True)
class StoppingTimeReport:
    """Empirical dip probability of X_t = ||y_t - x*||^2 - 100b versus the analytic bound."""

    empirical_p: float
    analytic_bound: float
    B_hat: float
    theta: float
    floor: float
    M: int
    ell: float


def _init_box(cfg: ExperimentConfig) -> tuple[Array, Array]:
    d = cfg.objective.dim
    low, high = ([b] * d if np.ndim(b) == 0 else b for b in (cfg.init_low, cfg.init_high))
    return require_point(d, init_low=low, init_high=high)


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

    def step(self, t, x, *_):
        diff = x - self.x_star
        d2 = np.add.reduce(diff * diff, axis=-1)
        self.misses[t] += np.count_nonzero(d2 > self.thr2)
        _add_in_trial_order(self.total, t, d2)


def _run_blocks(objective, r, algorithm, trials, seed, first_row, observer) -> None:
    """Run the trials ``_CHUNK`` at a time, trial i on stream ``(seed, i)`` from ``first_row(rng)``.

    ``observer`` sees the steps of one block after the other, in trial order.
    """
    for i0 in range(0, trials, _CHUNK):
        rngs = [RngStream(seed, i) for i in range(i0, min(i0 + _CHUNK, trials))]
        x0 = np.empty((len(rngs), objective.dim))
        for row, rng in enumerate(rngs):
            x0[row] = first_row(rng)
        # the outer-loop trace is not part of the statistics
        deque(_run_stages(objective, x0, rngs, observer, algorithm, r, trial_base=i0), maxlen=0)
        del rngs, x0  # no block's streams outlive it into the next


def run_monte_carlo(cfg: ExperimentConfig) -> StatsSeries:
    """Run the configured algorithm over the trial ensemble and aggregate stats.

    The kernel folds each step's squared distances into the running sums, so
    no more than one iteration's distances of one row block are live at a time.
    """
    obj = cfg.objective
    low, high = _init_box(cfg)
    fold = _Fold(obj.minimizer, cfg.threshold * cfg.threshold,
                 cfg.algorithm.total_iterations + 1)
    _run_blocks(obj, cfg.sg_noise_r, cfg.algorithm, cfg.trials, cfg.seed,
                lambda rng: low + (high - low) * rng.uniforms(obj.dim), fold)
    return StatsSeries(mse=fold.total / cfg.trials, ncp=fold.misses / cfg.trials)


class _ShadowFold:
    """Per-t sums over the trials of d2_t = ||y_t - x*||^2, y_t = x_t - eta*grad f(x_t).

    It keeps each step's iterate; the next step hands it grad f(x_t), which the
    kernel has evaluated and guarded as iteration t, and it adds d2_t, or given
    the first pass's ``means``, (d2_t - means[t])^2, in trial order: for T >= 1
    the two passes of ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` over the
    trials x (T+1) matrix.  Every trial starts at the same x0, so d2_0 is one
    number (``start``); per trial it keeps the running minimum (``least``).
    """

    def __init__(self, x_star, eta, width, trials, means=None):
        self.x_star, self.eta, self.means = x_star, eta, means
        self.total, self.least, self.start = np.zeros(width), np.full(trials, np.inf), math.nan
        self.rows, self.x = slice(0, 0), None  # the block's trials and their last iterate

    def step(self, t, x, _v, _vh, _sig, g):
        if not t:
            self.rows = slice(self.rows.stop, self.rows.stop + len(x))
        else:
            diff = self.x - self.eta * g - self.x_star
            d2 = np.add.reduce(diff * diff, axis=-1)
            if t == 1:
                self.start = float(d2[0])
            np.minimum(self.least[self.rows], d2, out=self.least[self.rows])
            if self.means is not None:
                d2 -= self.means[t - 1]
                d2 *= d2
            _add_in_trial_order(self.total, t - 1, d2)
        self.x = x


def _shadow(objective, r, x0, T, trials, seed, means=None) -> tuple[_ShadowFold, Schedule]:
    """Run the fixed-x0 GND ensemble through a :class:`_ShadowFold`, folding y_0..y_T.

    The certified schedule with f_lb = f* reduces b to the oracle term eta*r^2/lam.
    The run takes T+1 iterations: the last one hands the fold grad f(x_T).
    """
    if objective.certificate is None:
        raise ParameterError("a certified objective is required")
    require_integer(1, trials=trials)
    require_uint64(seed=seed)
    alpha, big_l = objective.certificate
    sched = gnd_schedule(alpha, big_l, r, f_gap=0.0)
    cfg = GndConfig(eta=sched.eta, s=sched.s, f_lb=objective.min_value, T=T + 1)
    point = require_point(objective.dim, x0=x0)
    fold = _ShadowFold(objective.minimizer, sched.eta, T + 1, int(trials), means)
    _run_blocks(objective, r, cfg, int(trials), seed, lambda rng: point, fold)
    return fold, sched


def contraction_check(objective: Objective, r: float, trials: int, x0, T: int,
                      seed: int) -> ContractionReport:
    """Verify the per-iteration contraction of the mean squared shadow distance.

    The empirical mean of ||y_t - x*||^2 over the ensemble must stay below
    ``1.1 * ((1 - eta*lam/100)^t * ||y0 - x*||^2 + 100*b)`` plus three
    standard errors of the ensemble mean, at every t.
    """
    require_integer(0, T=T)
    T = int(T)
    fold, sched = _shadow(objective, r, x0, T, trials, seed)
    means = fold.total / trials
    se = np.zeros_like(means)
    if trials > 1:  # a second pass over the same streams sums the squared deviations
        dev2 = _shadow(objective, r, x0, T, trials, seed, means)[0].total
        se = np.sqrt(dev2 / (trials - 1)) / math.sqrt(trials)
    rho = 1.0 - sched.eta_lam / 100.0
    t = np.arange(T + 1)
    bounds = 1.1 * (rho**t * fold.start + 100.0 * sched.b) + 3.0 * se
    margins = bounds - means
    bad = margins < 0.0
    first = int(np.argmax(bad)) if bad.any() else None
    return ContractionReport(means=means, bounds=bounds, margins=margins,
                             holds=not bad.any(), first_violation=first, schedule=sched)


def stopping_time_check(objective: Objective, r: float, ell: float, M: int,
                        trials: int, x0, seed: int) -> StoppingTimeReport:
    """Empirical dip probability of the recentred process versus its analytic bound.

    Runs the certified schedule with f_lb = f*, forms X_t = ||y_t - x*||^2 - 100b
    (a process with contraction factor theta = 1 - eta*lam/100 and floor -100b),
    and reports the fraction of trials with X_t < ell for some t <= M next to
    :func:`gndopt.theory.stopping_time_bound` evaluated at
    B = E[X_0 * 1{X_0 >= ell}], which is exact: every trial starts at x0.
    """
    require_positive(r=r)
    require_finite(ell=ell)
    require_integer(0, M=M)
    fold, sched = _shadow(objective, r, x0, int(M), trials, seed)
    floor = 100.0 * sched.b
    theta = 1.0 - sched.eta_lam / 100.0
    # Rounding x - floor is monotone in x, so the running minimum dips below
    # ell exactly when some X_t does.
    empirical = float(np.count_nonzero(fold.least - floor < ell) / trials)
    x0_val = fold.start - floor  # every trial's X_0
    b_hat = x0_val if x0_val >= ell else 0.0
    analytic = stopping_time_bound(theta, floor, ell, int(M), b_hat)
    return StoppingTimeReport(empirical_p=empirical, analytic_bound=analytic,
                              B_hat=b_hat, theta=theta, floor=floor, M=int(M), ell=ell)


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips the double; integral values drop the '.0'."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def write_csv(series: StatsSeries, path) -> None:
    """Write ``t,mse,ncp`` rows at full double precision."""
    lines = ["t,mse,ncp\n"]
    for t in range(len(series.mse)):
        lines.append(f"{t},{_fmt(series.mse[t])},{_fmt(series.ncp[t])}\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


_SVG_W, _SVG_H, _SVG_MARGIN = 640, 300, 54.0


def _log_panel(name: str, values: Array, y_offset: float) -> list[str]:
    floor = 1e-16
    clipped = np.maximum(np.asarray(values, dtype=np.float64), floor)
    logs = np.log10(clipped)
    lo = math.floor(float(logs.min()))
    hi = math.ceil(float(logs.max()))
    if hi == lo:
        hi = lo + 1
    n = len(clipped)
    plot_w = _SVG_W - 2 * _SVG_MARGIN
    plot_h = _SVG_H - 2 * _SVG_MARGIN

    def xpix(t):
        return _SVG_MARGIN + plot_w * (t / max(n - 1, 1))

    def ypix(lv):
        return y_offset + _SVG_MARGIN + plot_h * (hi - lv) / (hi - lo)

    out = [
        f'<rect x="{_SVG_MARGIN}" y="{y_offset + _SVG_MARGIN}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444"/>',
        f'<text x="{_SVG_MARGIN}" y="{y_offset + _SVG_MARGIN - 10:.2f}" '
        f'font-size="13" fill="#000">{name} (log scale) vs iteration</text>',
    ]
    for dec in range(lo, hi + 1):
        y = ypix(dec)
        out.append(f'<line x1="{_SVG_MARGIN}" y1="{y:.2f}" x2="{_SVG_W - _SVG_MARGIN}" '
                   f'y2="{y:.2f}" stroke="#ddd"/>')
        out.append(f'<text x="6" y="{y + 4:.2f}" font-size="11" fill="#333">1e{dec}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = round(frac * (n - 1))
        x = xpix(t)
        out.append(f'<text x="{x:.2f}" y="{y_offset + _SVG_H - _SVG_MARGIN + 16:.2f}" '
                   f'font-size="11" fill="#333" text-anchor="middle">{t}</text>')
    pts = " ".join(f"{xpix(t):.2f},{ypix(lv):.2f}" for t, lv in enumerate(logs))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>')
    return out


def write_svg(series: StatsSeries, path) -> None:
    """Render the two statistics as stacked log-y line charts in a standalone SVG."""
    body = []
    body.extend(_log_panel("MSE", series.mse, 0.0))
    body.extend(_log_panel("N-CP", series.ncp, float(_SVG_H)))
    svg = "\n".join(
        [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{2 * _SVG_H}" '
         f'viewBox="0 0 {_SVG_W} {2 * _SVG_H}">',
         '<rect width="100%" height="100%" fill="#ffffff"/>',
         *body,
         "</svg>", ""]
    )
    with open(path, "w", newline="") as fh:
        fh.write(svg)
