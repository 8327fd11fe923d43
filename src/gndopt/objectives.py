"""Benchmark objectives with exact values, exact gradients, and known minimizers.

Every objective evaluates on a single point of shape ``(dim,)`` or on a batch
of shape ``(..., dim)``; ``value`` returns a scalar (or an array of the batch
shape) and ``gradient`` returns an array shaped like its input.  Objectives are
immutable after construction and evaluation is pure, so one instance can be
shared by every trajectory and every run.

A certificate ``(alpha, L)`` is attached only where the quadratic-sandwich
property is actually established for the given parameters:

* the quadratic itself carries ``(alpha, alpha)``;
* the oscillating-integral family ``j1(n, k)`` carries ``(21/25, 1)`` exactly
  when ``n >= compute_nk(k)``;
* the log-periodic family ``j2(eps, R)`` carries either
  ``(1 - eps*sqrt(1+R^2), 1 + eps*sqrt(1+R^2))`` or ``(1, 1 + eps*sqrt(1+R^2))``
  depending on which admissibility range holds (see
  :func:`gndopt.theory.j2_condition_table`);
* the Rastrigin function carries no certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from gndopt.errors import (ParameterError, require_integer, require_positive,
                           require_unit_interval)

Array = np.ndarray


@dataclass(frozen=True)
class Objective:
    """An evaluable test function with exact gradient and known global minimum."""

    name: str
    dim: int
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    minimizer: Array
    min_value: float
    certificate: Optional[tuple[float, float]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.minimizer.setflags(write=False)
        if self.certificate is not None:
            alpha, big_l = self.certificate
            if not (0.0 < alpha <= big_l):
                raise ParameterError(f"certificate must satisfy 0 < alpha <= L, got {self.certificate}")


@dataclass(frozen=True)
class FourierSinCoefficients:
    """Coefficients of the finite cosine expansion of an even power of sine.

    For a positive integer ``n``,

        sin(t)**(2n) = c[0] + 2 * sum_{j=1..n} (-1)**j * c[j] * cos(2*j*t)

    with ``c[j] = binom(2n, n - j) / 4**n``.  The coefficients are positive,
    strictly decreasing, and satisfy ``c[0] + 2*sum(c[1:]) == 1``.
    """

    n: int
    c: Array

    def __post_init__(self):
        self.c.setflags(write=False)


def fourier_sin_coefficients(n: int) -> FourierSinCoefficients:
    """Compute c[j] = binom(2n, n-j)/4**n by the stable ratio recurrence.

    ``c[0]`` is evaluated through log-gamma; successive coefficients follow
    from ``c[j+1] = c[j] * (n - j) / (n + j + 1)``, which is exact in real
    arithmetic and drifts by less than 1e-12 relative in float64 for n up to
    several hundred.
    """
    require_integer(1, n=n)
    n = int(n)
    log_c0 = math.lgamma(2 * n + 1) - 2.0 * math.lgamma(n + 1) - n * math.log(4.0)
    c0 = math.exp(log_c0)
    j = np.arange(0, n, dtype=np.float64)
    ratios = (n - j) / (n + j + 1.0)
    c = np.empty(n + 1)
    c[0] = c0
    c[1:] = c0 * np.cumprod(ratios)
    return FourierSinCoefficients(n=n, c=c)


def _scalarize(v):
    # collapse 0-d arrays to numpy scalars, pass batches through
    return v[()] if isinstance(v, np.ndarray) else v


def make_quadratic(alpha: float, d: int, x_star=None) -> Objective:
    """Isotropic quadratic bowl ``alpha/2 * ||x - x*||^2`` with certificate ``(alpha, alpha)``."""
    require_positive(alpha=alpha)
    require_integer(1, d=d)
    d = int(d)
    x_star = np.zeros(d) if x_star is None else np.asarray(x_star, dtype=np.float64).reshape(d).copy()
    alpha = float(alpha)

    def value(x):
        diff = np.asarray(x, dtype=np.float64) - x_star
        return _scalarize(0.5 * alpha * np.add.reduce(diff * diff, axis=-1))

    def gradient(x):
        return alpha * (np.asarray(x, dtype=np.float64) - x_star)

    return Objective(
        name="quadratic", dim=d, value=value, gradient=gradient,
        minimizer=x_star, min_value=0.0, certificate=(alpha, alpha),
        params={"alpha": alpha, "dim": d},
    )


def compute_nk(k: int) -> int:
    """Least n such that (2n-1)!!/(2n)!! <= 2k / (25(k+1)).

    The double-factorial ratio is accumulated by the recurrence
    ``r_n = r_{n-1} * (2n-1)/(2n)`` starting from ``r_0 = 1``, which is
    monotone decreasing and numerically stable.
    """
    require_integer(1, k=k)
    k = int(k)
    threshold = 2.0 * k / (25.0 * (k + 1.0))
    n = 0
    r = 1.0
    while True:
        n += 1
        r *= (2.0 * n - 1.0) / (2.0 * n)
        if r <= threshold:
            return n


def make_j1(n: int, k: int) -> Objective:
    """One-dimensional oscillating objective x^2/2 - (1 + 1/k) * int_0^x t sin(t)^{2n} dt.

    The integral is evaluated through the closed cosine expansion of
    sin(t)^{2n} (see :func:`fourier_sin_coefficients`):

        int_0^x t sin(t)^{2n} dt
            = c0*x^2/2
            + sum_j (-1)^j c_j * ( x*sin(2jx)/j - sin(jx)^2/j^2 )

    (the sin(jx)^2 form of (cos(2jx) - 1)/2 avoids cancellation near 0, where
    the integrand is O(x^{2n+2}) and the naive difference of cosines would
    leave absolute 1e-16 noise on the x^2-relative scale).  This keeps solver
    loops quadrature-free and is stable for n in the hundreds.  The gradient
    is exact: x * (1 - (1 + 1/k) * sin(x)^{2n}).

    Stationary points sit at ``j*pi +/- arcsin((k/(k+1))^(1/2n))`` besides the
    global minimizer 0; for n >= compute_nk(k) the function is certified
    (21/25, 1)-nearly convex, otherwise no certificate is attached.
    """
    require_integer(1, n=n, k=k)
    n, k = int(n), int(k)
    coeffs = fourier_sin_coefficients(n)
    c0 = coeffs.c[0]
    j = np.arange(1, n + 1, dtype=np.float64)
    sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    w_sin = sign * coeffs.c[1:] / j
    w_sq = sign * coeffs.c[1:] / (j * j)
    scale = 1.0 + 1.0 / k
    two_n = 2 * n

    def integral(xs):
        # Two (..., n) buffers reused in place; the products and sums are the
        # same operations in the same order as the formula above.
        ang = xs[..., None] * j
        half_sin = np.sin(ang)
        np.multiply(ang, 2.0, out=ang)
        np.sin(ang, out=ang)
        ang *= w_sin
        sin_sum = np.add.reduce(ang, axis=-1)
        np.multiply(half_sin, w_sq, out=ang)
        ang *= half_sin
        sq_sum = np.add.reduce(ang, axis=-1)
        return 0.5 * c0 * xs * xs + xs * sin_sum - sq_sum

    def value(x):
        xs = np.asarray(x, dtype=np.float64)[..., 0]
        return _scalarize(0.5 * xs * xs - scale * integral(xs))

    def gradient(x):
        xs = np.asarray(x, dtype=np.float64)[..., 0]
        g = xs * (1.0 - scale * np.sin(xs) ** two_n)
        return g[..., None]

    certificate = (21.0 / 25.0, 1.0) if n >= compute_nk(k) else None
    return Objective(
        name="j1", dim=1, value=value, gradient=gradient,
        minimizer=np.zeros(1), min_value=0.0, certificate=certificate,
        params={"n": n, "k": k},
    )


def j1_stationary_points(n: int, k: int, j_max: int) -> list[float]:
    """Positive stationary abscissae j*pi +/- arcsin((k/(k+1))^(1/2n)) for 0 <= j <= j_max.

    Every returned point has |gradient| <= 1e-9 under the exact gradient
    formula; this tight tolerance is kept deliberately so coefficient bugs
    cannot hide behind slack.
    """
    require_integer(1, n=n, k=k)
    require_integer(0, j_max=j_max)
    a = math.asin((k / (k + 1.0)) ** (1.0 / (2.0 * n)))
    scale = 1.0 + 1.0 / k
    points = []
    for jj in range(int(j_max) + 1):
        for sgn in (-1.0, 1.0):
            x = jj * math.pi + sgn * a
            if x > 0.0:
                points.append(x)
    points.sort()
    for x in points:
        g = x * (1.0 - scale * math.sin(x) ** (2 * n))
        if abs(g) > 1e-9:
            raise ArithmeticError(f"stationary point {x} has gradient {g:.3e} > 1e-9")
    return points


def make_j2(eps: float, R: float) -> Objective:
    """One-dimensional log-periodic objective (1 + eps*sin(2R*log|x|))/2 * x^2.

    The point x = 0 is handled piecewise: value 0 and gradient 0 exactly,
    without ever evaluating log(0).  For x != 0 the exact gradient is
    ``(1 + eps*sin(u) + eps*R*cos(u)) * x`` with ``u = 2R*log|x|``.
    """
    require_unit_interval(eps=eps)
    require_positive(R=R)
    eps, R = float(eps), float(R)

    def value(x):
        xs = np.asarray(x, dtype=np.float64)[..., 0]
        ax = np.abs(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = 2.0 * R * np.log(ax)
            v = 0.5 * (1.0 + eps * np.sin(u)) * xs * xs
        return _scalarize(np.where(ax == 0.0, 0.0, v))

    def gradient(x):
        xs = np.asarray(x, dtype=np.float64)[..., 0]
        ax = np.abs(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = 2.0 * R * np.log(ax)
            g = (1.0 + eps * np.sin(u) + eps * R * np.cos(u)) * xs
        return np.where(ax == 0.0, 0.0, g)[..., None]

    t = eps * math.sqrt(1.0 + R * R)
    if t < 1.0:
        certificate = (1.0 - t, 1.0 + t)
    elif 4.0 * eps * (1.0 + t) ** 1.5 <= 1.0:
        certificate = (1.0, 1.0 + t)
    else:
        certificate = None
    return Objective(
        name="j2", dim=1, value=value, gradient=gradient,
        minimizer=np.zeros(1), min_value=0.0, certificate=certificate,
        params={"eps": eps, "R": R},
    )


def make_rastrigin(a: float, b: float, c: float, d: int) -> Objective:
    """Rastrigin function a*(d - sum_i cos(b*x_i)) + c*||x||^2 with minimum 0 at the origin.

    No nearly-convexity certificate is attached; the function is used as an
    uncertified stress benchmark.
    """
    require_positive(a=a, b=b, c=c)
    require_integer(1, d=d)
    a, b, c, d = float(a), float(b), float(c), int(d)

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return _scalarize(a * (d - np.add.reduce(np.cos(b * x), axis=-1))
                          + c * np.add.reduce(x * x, axis=-1))

    def gradient(x):
        x = np.asarray(x, dtype=np.float64)
        return a * b * np.sin(b * x) + 2.0 * c * x

    return Objective(
        name="rastrigin", dim=d, value=value, gradient=gradient,
        minimizer=np.zeros(d), min_value=0.0, certificate=None,
        params={"a": a, "b": b, "c": c, "dim": d},
    )


_FACTORIES = {
    "quadratic": (make_quadratic, ("alpha", "dim")),
    "j1": (make_j1, ("n", "k")),
    "j2": (make_j2, ("eps", "R")),
    "rastrigin": (make_rastrigin, ("a", "b", "c", "dim")),
}


def make_objective(function: str, **params) -> Objective:
    """Construct an objective by config-file name: quadratic, j1, j2, or rastrigin."""
    if function not in _FACTORIES:
        raise ParameterError(
            f"unknown objective {function!r}; valid names: {', '.join(sorted(_FACTORIES))}"
        )
    factory, keys = _FACTORIES[function]
    missing = [key for key in keys if key not in params]
    if missing:
        raise ParameterError(f"objective {function!r} requires keys {missing}")
    extra = [key for key in params if key not in keys and key != "x_star"]
    if extra:
        raise ParameterError(f"objective {function!r} got unknown keys {extra}")
    kwargs = dict(params)
    if "dim" in kwargs:
        kwargs["d"] = kwargs.pop("dim")
    return factory(**kwargs)
