"""Monte-Carlo ensemble runner, verification experiments, and CSV/SVG output.

Determinism contract: trial i draws from stream ``(seed, i)``, consuming its d
initial-point uniforms before any solver draws.  Trials run sequentially in
row blocks of a fixed size, and each trial depends only on its own stream.
Aggregation is a fold in trial order inside the kernel: at x_0 and after each
step, the block's squared distances are added row by row into that iteration's
running sum (and counted into its running miss count) and then dropped, so memory
grows with neither the trial count nor, beyond those two sums, the iteration
count.  Adding rows in trial order is what ``mean(axis=0)`` over the full
trials x (T+1) matrix does, so the output bytes do not depend on the row-block
size.  The shadow-distance checks (``contraction_check``, ``stopping_time_check``)
fold the same way: ``_ShadowFold`` keeps per-t sums and per-trial start and
minimum.  Diverged trajectories abort the whole experiment (silently dropping
them would bias the error statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gndopt.errors import (ParameterError, require_finite, require_integer, require_nonnegative,
                           require_positive)
from gndopt.objectives import Objective
from gndopt.sampling import RngStream, SgOracle
from gndopt.solver import (DlGndConfig, GndConfig, _add_in_trial_order, _check_gradients,
                           _dlgnd_stages, _Fold, _run_gnd_batch)
from gndopt.theory import Schedule, gnd_schedule, stopping_time_bound

Array = np.ndarray

# Trials per kernel call: bounds the kernel's per-row working set (streams,
# iterates, objective temporaries, one step's distances).  The noise buffer is
# bounded by bytes in the solver.  512 rows spread the kernel's fixed numpy
# calls per step over twice the rows of 256, while j1(112)'s (512, 112)
# temporaries (0.46 MB each) still fit a 2 MiB L2.  Far larger blocks lose
# that: the whole 2000-trial j1 ensemble as one block was slower
# (BENCH_5.json, `one_batch`).
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
        require_nonnegative(sg_noise_r=self.sg_noise_r)
        require_positive(threshold=self.threshold)
        low, high = _init_box(self)
        for name, bound in (("init_low", low), ("init_high", high)):
            if not np.all(np.isfinite(bound)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if np.any(low > high):
            raise ParameterError("init box must satisfy low <= high per coordinate")

    @property
    def total_iterations(self) -> int:
        alg = self.algorithm
        return alg.T if isinstance(alg, GndConfig) else alg.total_iterations


@dataclass(frozen=True)
class StatsSeries:
    """Per-iteration ensemble statistics: mean squared distance and miss fraction."""

    mse: Array
    ncp: Array
    trials: int

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
    low = np.broadcast_to(np.asarray(cfg.init_low, dtype=np.float64), (d,)).copy()
    high = np.broadcast_to(np.asarray(cfg.init_high, dtype=np.float64), (d,)).copy()
    return low, high


def _fold_block(cfg: ExperimentConfig, oracle: SgOracle, low: Array, span: Array,
                i0: int, i1: int, fold: _Fold) -> None:
    """Run trials i0..i1-1 and fold their squared distances to the minimizer."""
    obj = cfg.objective
    rngs = [RngStream(cfg.seed, i) for i in range(i0, i1)]
    x0 = np.empty((i1 - i0, obj.dim))
    for row, rng in enumerate(rngs):
        x0[row] = low + span * rng.uniforms(obj.dim)
    if isinstance(cfg.algorithm, GndConfig):
        _run_gnd_batch(obj, oracle, x0, cfg.algorithm, rngs, fold, trial_base=i0)
    else:
        for _ in _dlgnd_stages(obj, oracle, x0, cfg.algorithm, rngs, fold=fold, trial_base=i0):
            pass  # the outer-loop trace is not part of the statistics


def run_monte_carlo(cfg: ExperimentConfig) -> StatsSeries:
    """Run the configured algorithm over the trial ensemble and aggregate stats.

    The kernel folds each step's squared distances into the running sums, so
    no more than one iteration's distances of one row block are live at a time.
    """
    oracle = SgOracle(cfg.objective, cfg.sg_noise_r)
    low, high = _init_box(cfg)
    fold = _Fold(cfg.objective.minimizer, cfg.threshold * cfg.threshold,
                 cfg.total_iterations + 1)
    for i0 in range(0, cfg.trials, _CHUNK):
        _fold_block(cfg, oracle, low, high - low, i0, min(i0 + _CHUNK, cfg.trials), fold)
    return StatsSeries(mse=fold.total / cfg.trials, ncp=fold.misses / cfg.trials,
                       trials=cfg.trials)


class _ShadowFold:
    """Per-t sums of d2_t = ||y_t - x*||^2, y_t = x_t - eta*grad f(x_t), over all trials at once.

    ``step(t, x)`` evaluates and guards grad f(x_t) as iteration t, then folds the
    two passes of ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` over the trials x
    (T+1) matrix: d2_t into ``total[t]``, then (d2_t - total[t]/trials)^2 into
    ``dev2[t]``.  Per trial it keeps d2_0 (``start``) and the running minimum (``least``).
    """

    def __init__(self, objective, eta, width):
        self.objective, self.eta = objective, eta
        self.total, self.dev2 = np.zeros(width), np.zeros(width)
        self.start, self.least = None, np.inf

    def step(self, t, x, *_):
        g = self.objective.gradient(x)
        _check_gradients(g, t, 0)
        diff = x - self.eta * g - self.objective.minimizer
        d2 = np.add.reduce(diff * diff, axis=-1)
        self._sum_into(self.total, t, d2)
        dev = d2 - self.total[t] / len(d2)
        self._sum_into(self.dev2, t, dev * dev)
        self.least = np.minimum(self.least, d2)
        if t == 0:
            self.start = d2

    @staticmethod
    def _sum_into(sums, t, rows):
        if len(sums) > 1:
            _add_in_trial_order(sums, t, rows)
        else:  # numpy reduces a one-column matrix (T = 0) pairwise
            sums[t] = np.add.reduce(rows)


def _shadow_fold(objective: Objective, r: float, x0, T: int, trials: int,
                 seed: int) -> tuple[_ShadowFold, Schedule]:
    """Run the fixed-x0 GND ensemble in one kernel call through a :class:`_ShadowFold`.

    The certified schedule with f_lb = f* reduces b to the oracle term eta*r^2/lam.
    The kernel guards f(x_t) before the fold evaluates grad f(x_t).
    """
    if objective.certificate is None:
        raise ParameterError("a certified objective is required")
    require_integer(1, trials=trials)
    alpha, big_l = objective.certificate
    sched = gnd_schedule(alpha, big_l, r, f_gap=0.0)
    cfg = GndConfig(eta=sched.eta, s=sched.s, f_lb=objective.min_value, T=T)
    x0 = np.asarray(x0, dtype=np.float64).reshape(objective.dim)
    if not np.all(np.isfinite(x0)):
        raise ParameterError("x0 must be finite")
    x0_rows = np.tile(x0, (int(trials), 1))
    rngs = [RngStream(seed, i) for i in range(int(trials))]
    fold = _ShadowFold(objective, sched.eta, T + 1)
    _run_gnd_batch(objective, SgOracle(objective, r), x0_rows, cfg, rngs, fold, trial_base=0)
    return fold, sched


def contraction_check(objective: Objective, r: float, trials: int, x0, T: int,
                      seed: int, slack: float = 1.1) -> ContractionReport:
    """Verify the per-iteration contraction of the mean squared shadow distance.

    The empirical mean of ||y_t - x*||^2 over the ensemble must stay below
    ``slack * ((1 - eta*lam/100)^t * ||y0 - x*||^2 + 100*b)`` plus three
    standard errors of the ensemble mean, at every t.
    """
    fold, sched = _shadow_fold(objective, r, x0, T, trials, seed)
    means = fold.total / trials
    if trials > 1:
        se = np.sqrt(fold.dev2 / (trials - 1)) / math.sqrt(trials)
    else:
        se = np.zeros_like(means)
    rho = 1.0 - sched.eta_lam / 100.0
    t = np.arange(T + 1)
    bounds = slack * (rho**t * fold.start[0] + 100.0 * sched.b) + 3.0 * se
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
    :func:`gndopt.theory.stopping_time_bound` evaluated at the empirical
    B = E[X_0 * 1{X_0 >= ell}].
    """
    require_positive(r=r)
    require_finite(ell=ell)
    require_integer(0, M=M)
    fold, sched = _shadow_fold(objective, r, x0, int(M), trials, seed)
    floor = 100.0 * sched.b
    theta = 1.0 - sched.eta_lam / 100.0
    # Rounding x - floor is monotone in x, so the running minimum dips below
    # ell exactly when some X_t does.
    empirical = float(np.count_nonzero(fold.least - floor < ell) / trials)
    x0_vals = fold.start - floor
    b_hat = float(np.mean(x0_vals * (x0_vals >= ell)))
    analytic = stopping_time_bound(theta, floor, ell, int(M), b_hat)
    return StoppingTimeReport(empirical_p=empirical, analytic_bound=analytic,
                              B_hat=b_hat, theta=theta, floor=floor, M=int(M), ell=ell)


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips the double; integral values drop the '.0'."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def write_csv(series: StatsSeries, path) -> None:
    """Write ``t,mse,ncp`` rows at full double precision."""
    if not str(path):
        raise OSError("empty output path")
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
    if not str(path):
        raise OSError("empty output path")
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
