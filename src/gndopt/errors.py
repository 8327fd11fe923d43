"""Exception types shared across the package."""

import math


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
    """Raise ParameterError naming the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
