"""Exception types and the parameter checks shared across the package.

A scalar parameter is valid only when it is finite and in its range.  The
``require_*`` checks take ``name=value`` keywords, test them in the order
given and raise :class:`ParameterError` on the first bad one: a NaN or
infinite value, or where a real number is asked an int beyond float range, as
``"{name} must be finite, got {value}"``, a finite value out
of range as ``"{name} must be positive, got {value}"`` (or ``be nonnegative``,
``be a positive integer``, ``be a nonnegative integer``, ``be an integer >=
{least}``, ``lie in (0, 1)``, ``fit in 64 unsigned bits``; an integer wider
than 64 bits by its bit length).  A value passes only by satisfying its range,
so NaN fails every check.  A point (:func:`require_point`) may come in any shape
that holds exactly ``dim`` numbers, all finite; else it fails as ``"{name} must
have shape ({dim},), got {shape}"`` or names its first non-finite coordinate.
:func:`require_certificate` is the one rule for a certificate ``(alpha, L)``.
"""

import math

import numpy as np


class ParameterError(ValueError):
    """An operation received invalid parameters."""


class GateViolationError(ParameterError):
    """A regularity gate required by a schedule is violated (beta >= alpha)."""


class ConstraintNotCheckableError(ParameterError):
    """A feasibility check is indeterminate for the given inputs (s = 0 with beta > 0)."""


class DivergedError(RuntimeError):
    """A trajectory produced a non-finite or absurdly large value or gradient.

    Carries the offending iteration index, for ensemble runs the trial index,
    and the quantity that failed the guard: ``"value"`` (f(x_t) at the
    reported iteration t), ``"half-step value"`` (f(x_{t+1/2}) of iteration
    t) or ``"gradient"`` (grad f(x_t)).
    """

    def __init__(self, iteration, trial=None, quantity=None):
        self.iteration = int(iteration)
        self.trial = None if trial is None else int(trial)
        self.quantity = quantity
        where = f"iteration {self.iteration}"
        if self.trial is not None:
            where = f"trial {self.trial}, " + where
        if quantity is not None:
            where += f" ({quantity})"
        super().__init__(f"trajectory diverged at {where}")


def require_finite(**params) -> None:
    """Raise ParameterError naming the first parameter that is NaN, infinite or beyond float range."""
    _require(params, lambda v: True, "")


def require_point(dim: int, **points):
    """Return each point as a new float64 ``(dim,)`` array; a single point comes back bare."""
    out = []
    for name, point in points.items():
        p = np.array(point, dtype=np.float64).reshape(-1)
        if p.shape != (dim,):
            raise ParameterError(f"{name} must have shape ({dim},), got {p.shape}")
        if not np.isfinite(p).all():
            require_finite(**{name: p[~np.isfinite(p)][0]})
        out.append(p)
    return out[0] if len(out) == 1 else tuple(out)


def _require(params, holds, wording, whole=False) -> None:
    for name, value in params.items():
        try:  # any int is a finite count, but math.isfinite overflows beyond float range
            finite = (whole and isinstance(value, int)) or math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite or not holds(value):
            if isinstance(value, int) and value.bit_length() > 64:  # not thousands of digits
                value = f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
            raise ParameterError(f"{name} must {wording if finite else 'be finite'}, got {value}")


def require_positive(**params) -> None:
    """Raise ParameterError naming the first parameter that is not finite and > 0."""
    _require(params, lambda v: v > 0, "be positive")


def require_certificate(alpha, L) -> None:
    """Raise ParameterError unless alpha is finite and > 0 and L is finite and >= alpha."""
    require_positive(alpha=alpha)
    require_finite(L=L)
    if not L >= alpha:
        raise ParameterError(f"L must be at least alpha, got L={L} < alpha={alpha}")


def require_nonnegative(**params) -> None:
    """Raise ParameterError naming the first parameter that is not finite and >= 0."""
    _require(params, lambda v: v >= 0, "be nonnegative")


def require_unit_interval(**params) -> None:
    """Raise ParameterError naming the first parameter outside the open interval (0, 1)."""
    _require(params, lambda v: 0 < v < 1, "lie in (0, 1)")


def require_integer(least: int, **params) -> None:
    """Raise ParameterError naming the first parameter that is not an integer >= least.

    Integral floats such as ``5.0`` pass; callers convert with ``int``.
    """
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(least,
                                                                     f"an integer >= {least}")
    _require(params, lambda v: v >= least and v == int(v), f"be {kind}", whole=True)


def require_uint64(**params) -> None:
    """Raise ParameterError naming the first parameter that is not an integer in [0, 2**64)."""
    require_integer(0, **params)
    _require(params, lambda v: int(v) < 2**64, "fit in 64 unsigned bits", whole=True)
