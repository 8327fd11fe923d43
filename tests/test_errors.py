import math
from functools import partial

import pytest

from gndopt import (ExperimentConfig, GndConfig, ParameterError, check_eta_constraint,
                    gnd_iteration_bound, gnd_schedule, j1_stationary_points, make_quadratic,
                    nearly_convex_gate, stopping_time_check)
from gndopt.errors import (require_finite, require_integer, require_nonnegative,
                           require_positive, require_unit_interval)

_CHECKS = [require_finite, require_positive, require_nonnegative, require_unit_interval,
           partial(require_integer, 0), partial(require_integer, 1), partial(require_integer, 4)]


@pytest.mark.parametrize("check", _CHECKS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_named_as_not_finite(check, bad):
    with pytest.raises(ParameterError) as err:
        check(x=bad)
    assert str(err.value) == f"x must be finite, got {bad}"


@pytest.mark.parametrize("check,value,message", [
    (require_positive, 0.0, "x must be positive, got 0.0"),
    (require_positive, -2, "x must be positive, got -2"),
    (require_nonnegative, -1e-300, "x must be nonnegative, got -1e-300"),
    (require_unit_interval, 0.0, "x must lie in (0, 1), got 0.0"),
    (require_unit_interval, 1, "x must lie in (0, 1), got 1"),
    (partial(require_integer, 0), -1, "x must be a nonnegative integer, got -1"),
    (partial(require_integer, 1), 0, "x must be a positive integer, got 0"),
    (partial(require_integer, 1), 2.5, "x must be a positive integer, got 2.5"),
    (partial(require_integer, 4), 3, "x must be an integer >= 4, got 3"),
])
def test_finite_value_out_of_range(check, value, message):
    with pytest.raises(ParameterError) as err:
        check(x=value)
    assert str(err.value) == message


@pytest.mark.parametrize("check,value", [
    (require_finite, -1e308), (require_positive, 5e-324), (require_nonnegative, 0.0),
    (require_unit_interval, 0.5), (partial(require_integer, 0), 0),
    (partial(require_integer, 1), 5.0), (partial(require_integer, 4), 4),
])
def test_value_in_range_passes(check, value):
    check(x=value)


def test_first_bad_parameter_is_named():
    with pytest.raises(ParameterError, match="^b must be positive, got 0$"):
        require_positive(a=1, b=0, c=math.nan)


def _experiment(**changes):
    q = make_quadratic(1.0, 1)
    params = dict(objective=q, algorithm=GndConfig(eta=0.1, s=0.0, f_lb=0.0, T=1),
                  sg_noise_r=0.0, trials=4, init_low=-1.0, init_high=1.0, seed=0)
    return ExperimentConfig(**{**params, **changes})


# Each of these returned a value or raised something other than ParameterError.
@pytest.mark.parametrize("call,message", [
    (lambda: check_eta_constraint(0.1, math.nan, 1.0, 1.0, 0.0, 1), "s must be finite, got nan"),
    (lambda: nearly_convex_gate(1.0, math.nan, 1), "L must be finite, got nan"),
    (lambda: GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=math.nan), "T must be finite, got nan"),
    (lambda: GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=math.inf), "T must be finite, got inf"),
    (lambda: _experiment(trials=2.5), "trials must be a positive integer, got 2.5"),
    (lambda: j1_stationary_points(math.nan, 1, 0), "n must be finite, got nan"),
    (lambda: gnd_iteration_bound(gnd_schedule(1.0, 1.0, 0.0, 0.0), math.inf, 0.1, 0.01),
     "y0_dist_sq must be finite, got inf"),
    (lambda: stopping_time_check(make_quadratic(1.0, 1), r=1.0, ell=1.0, M=math.nan, trials=5,
                                 x0=[5.0], seed=0), "M must be finite, got nan"),
], ids=["check_eta_constraint-s", "nearly_convex_gate-L", "GndConfig-T-nan", "GndConfig-T-inf",
        "ExperimentConfig-trials", "j1_stationary_points-n", "gnd_iteration_bound-y0_dist_sq",
        "stopping_time_check-M"])
def test_library_probe_is_parameter_error(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message
