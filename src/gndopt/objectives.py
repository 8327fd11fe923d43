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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from gndopt.errors import (ParameterError, require_certificate, require_integer, require_point,
                           require_positive, require_unit_interval)

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

    def __post_init__(self):
        self.minimizer.setflags(write=False)
        if self.certificate is not None:
            require_certificate(*self.certificate)


def fourier_sin_coefficients(n: int) -> Array:
    """The read-only coefficients c[0..n] of the cosine expansion of sin(t)**(2n).

    For a positive integer ``n``,

        sin(t)**(2n) = c[0] + 2 * sum_{j=1..n} (-1)**j * c[j] * cos(2*j*t)

    with ``c[j] = binom(2n, n - j) / 4**n``.  The coefficients are positive,
    strictly decreasing, and satisfy ``c[0] + 2*sum(c[1:]) == 1``.

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
    c.setflags(write=False)
    return c


def _scalarize(v):
    # collapse 0-d arrays to numpy scalars, pass batches through
    return v[()] if isinstance(v, np.ndarray) else v


def make_quadratic(alpha: float, dim: int, x_star=None) -> Objective:
    """Isotropic quadratic bowl ``alpha/2 * ||x - x*||^2`` with certificate ``(alpha, alpha)``."""
    require_positive(alpha=alpha)
    require_integer(1, dim=dim)
    dim = int(dim)
    x_star = np.zeros(dim) if x_star is None else require_point(dim, x_star=x_star)
    alpha = float(alpha)

    def value(x):
        diff = np.asarray(x, dtype=np.float64) - x_star
        return _scalarize(0.5 * alpha * np.add.reduce(diff * diff, axis=-1))

    def gradient(x):
        return alpha * (np.asarray(x, dtype=np.float64) - x_star)

    return Objective(
        name="quadratic", dim=dim, value=value, gradient=gradient,
        minimizer=x_star, min_value=0.0, certificate=(alpha, alpha),
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


# Bytes of each of j1's two (tile, n) sine tables in one value tile.  At 256 KiB
# both fit one core's 2 MiB L2, `gndopt check` on j1(112, 2) peaks at 36 MB
# (208 MB untiled), and j1-7-1's 512-row blocks stay one tile.  128 KiB tiles
# cut 1.0 MB of j1-gnd's peak RSS but made it slower in 5 of 6 paired runs.
_J1_TILE_BYTES = 256 * 2**10


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
    loops quadrature-free and is stable for n in the hundreds.  One table of
    sin(jx), j = 1..n, also holds sin(2jx) for j <= n/2 (at 2j), so a value
    costs 1.5n sines and no third (rows, n) buffer.  ``value`` walks the
    flattened batch in tiles of ``_J1_TILE_BYTES // (8n)`` rows, so its two
    tables take at most 256 KiB each whatever the batch size; every row goes
    through the same operations as in one whole-batch pass, so the values are
    bitwise those of an untiled evaluation.  The gradient is exact:
    x * (1 - (1 + 1/k) * sin(x)^{2n}).

    Stationary points sit at ``j*pi +/- arcsin((k/(k+1))^(1/2n))`` besides the
    global minimizer 0; for n >= compute_nk(k) the function is certified
    (21/25, 1)-nearly convex, otherwise no certificate is attached.
    """
    require_integer(1, n=n, k=k)
    n, k = int(n), int(k)
    c = fourier_sin_coefficients(n)
    c0 = c[0]
    j = np.arange(1, n + 1, dtype=np.float64)
    sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    w_sin = sign * c[1:] / j
    w_sq = sign * c[1:] / (j * j)
    scale = 1.0 + 1.0 / k
    two_n = 2 * n
    h = n // 2
    tile = max(1, _J1_TILE_BYTES // (8 * n))

    def integral(xs):
        # Two (tile, n) buffers reused in place.  For j <= h, sin(2jx) is read
        # from the first table at 2j: fl(x*2j) = 2*fl(x*j), doubling being
        # exact, so only the upper n - h angles are doubled and passed through
        # sin.  The products and sums are the same operations in the same order
        # as the formula above.
        ang = xs[..., None] * j
        half_sin = np.sin(ang)
        upper = ang[..., h:]
        upper *= 2.0
        np.sin(upper, out=upper)
        ang[..., :h] = half_sin[..., 1:2 * h:2]
        ang *= w_sin
        sin_sum = np.add.reduce(ang, axis=-1)
        np.multiply(half_sin, w_sq, out=ang)
        ang *= half_sin
        sq_sum = np.add.reduce(ang, axis=-1)
        return 0.5 * c0 * xs * xs + xs * sin_sum - sq_sum

    def value(x):
        xs = np.asarray(x, dtype=np.float64)[..., 0]
        flat = xs.reshape(-1)
        out = np.empty(flat.shape)
        for i0 in range(0, flat.size, tile):
            t = flat[i0 : i0 + tile]
            out[i0 : i0 + tile] = 0.5 * t * t - scale * integral(t)
        return _scalarize(out.reshape(xs.shape))

    def gradient(x):
        xs = np.asarray(x, dtype=np.float64)[..., 0]
        g = xs * (1.0 - scale * np.sin(xs) ** two_n)
        return g[..., None]

    certificate = (21.0 / 25.0, 1.0) if n >= compute_nk(k) else None
    return Objective(
        name="j1", dim=1, value=value, gradient=gradient,
        minimizer=np.zeros(1), min_value=0.0, certificate=certificate,
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
    )


def make_rastrigin(a: float, b: float, c: float, dim: int) -> Objective:
    """Rastrigin function a*(dim - sum_i cos(b*x_i)) + c*||x||^2 with minimum 0 at the origin.

    No nearly-convexity certificate is attached; the function is used as an
    uncertified stress benchmark.
    """
    require_positive(a=a, b=b, c=c)
    require_integer(1, dim=dim)
    a, b, c, dim = float(a), float(b), float(c), int(dim)
    # a * b and 2 * c are formed first, as the formulas read left to right.  A
    # factor of exactly 1.0 is skipped: y * 1.0 is y bit for bit in IEEE 754.
    ab, c2 = a * b, 2.0 * c

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        wave = dim - np.add.reduce(np.cos(x if b == 1.0 else b * x), axis=-1)
        return _scalarize((wave if a == 1.0 else a * wave) + c * np.add.reduce(x * x, axis=-1))

    def gradient(x):
        x = np.asarray(x, dtype=np.float64)
        wave = np.sin(x if b == 1.0 else b * x)
        return (wave if ab == 1.0 else ab * wave) + c2 * x

    return Objective(
        name="rastrigin", dim=dim, value=value, gradient=gradient,
        minimizer=np.zeros(dim), min_value=0.0, certificate=None,
    )


# The objectives by config name, each with the keys its factory takes and their
# types.  The config schema and `gndopt check`'s flags are read from this table.
_FACTORIES = {
    "j1": (make_j1, dict(n=int, k=int)),
    "j2": (make_j2, dict(eps=float, R=float)),
    "quadratic": (make_quadratic, dict(alpha=float, dim=int)),
    "rastrigin": (make_rastrigin, dict(a=float, b=float, c=float, dim=int)),
}


def make_objective(function: str, **params) -> Objective:
    """Construct an objective by its config name in ``_FACTORIES`` from exactly its keys."""
    if function not in _FACTORIES:
        raise ParameterError(
            f"unknown objective {function!r}; valid names: {', '.join(sorted(_FACTORIES))}"
        )
    factory, keys = _FACTORIES[function]
    missing = [key for key in keys if key not in params]
    if missing:
        raise ParameterError(f"objective {function!r} requires keys {missing}")
    extra = [key for key in params if key not in keys]
    if extra:
        raise ParameterError(f"objective {function!r} got unknown keys {extra}")
    return factory(**params)
