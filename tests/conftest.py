"""Shared test oracles: adaptive quadrature, finite-difference gradients and a
sequential double loop; plus ``stacked_dlgnd``, which reads the batched one.

The oracles stay deliberately independent of the package's evaluation paths:
the quadrature oracle integrates the defining integrand directly, the
finite-difference oracle never touches an analytic gradient, and the double
loop chains single GND runs instead of using the batched implementation.
"""

import math

import numpy as np

from gndopt import GndConfig, gnd_run
from gndopt.solver import _run_stages

pytest_plugins = ("pytester",)


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Adaptive Simpson quadrature of a scalar function over [a, b]."""

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, tol, max_depth)


def j1_integral_quadrature(x, n, tol=1e-13):
    """Quadrature oracle for int_0^x t*sin(t)^(2n) dt (even in x)."""
    two_n = 2 * n
    f = lambda t: t * math.sin(t) ** two_n
    return math.copysign(1.0, 1.0) * adaptive_simpson(f, 0.0, abs(x), tol=tol)


def j1_value_quadrature(xs, n, k, tol=1e-13):
    """Quadrature-based values of the j1 objective at a 1-d array of points.

    Integrates segment by segment over the sorted distinct |x| so the total
    cost is one pass; per-segment tolerance is tightened so the accumulated
    error stays far below the comparison tolerances used by tests.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ax = np.abs(xs)
    order = np.argsort(ax)
    two_n = 2 * n
    f = lambda t: t * math.sin(t) ** two_n
    integrals = np.empty_like(ax)
    prev_x, prev_i = 0.0, 0.0
    for idx in order:
        xi = ax[idx]
        prev_i = prev_i + adaptive_simpson(f, prev_x, xi, tol=tol)
        prev_x = xi
        integrals[idx] = prev_i
    return 0.5 * xs * xs - (1.0 + 1.0 / k) * integrals


def central_difference_gradient(value_fn, x, scale=1e-6):
    """Central finite-difference gradient with step scale*(1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    h = scale * (1.0 + math.sqrt(float(np.sum(x * x))))
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (float(value_fn(xp)) - float(value_fn(xm))) / (2.0 * h)
    return g


def sequential_dlgnd(objective, oracle, x0, cfg, rng):
    """The double-loop scheme as chained ``gnd_run`` calls on one stream.

    Returns ``(lb_history, min_points, min_values, stages)``, where ``stages``
    holds the GND trajectory of stage one and of each outer loop.
    """
    f_lb = float(cfg.f_lb0)
    x_min = x0
    lb, mins, vals, stages = [], [], [], []
    for nu in range(cfg.N + 1):
        if nu > 0:
            f_lb = (1.0 - cfg.gamma) * f_lb + cfg.gamma * vals[-1]
        stage = GndConfig(eta=cfg.eta, s=cfg.s, f_lb=f_lb, T=cfg.T2 if nu else cfg.T1)
        traj = gnd_run(objective, oracle, x_min, stage, rng)
        x_min = traj.best_point()
        lb.append(f_lb)
        mins.append(x_min)
        vals.append(traj.best_value())
        stages.append(traj)
    return np.array(lb), np.array(mins), np.array(vals), stages


def stacked_dlgnd(objective, oracle, x0s, cfg, rngs, observer=None):
    """The batched double loop's outer-loop trace, stacked per row.

    Returns ``(lb_history, min_points, min_values)`` of shapes (m, N+1),
    (m, N+1, d) and (m, N+1): row i is trajectory i's trace.
    """
    stages = _run_stages(objective, x0s, rngs, observer, cfg, oracle.r)
    return tuple(np.stack(arrays, axis=1) for arrays in zip(*stages))
