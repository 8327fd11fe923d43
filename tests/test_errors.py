import dataclasses
import math
from functools import partial

import pytest

import numpy as np

from gndopt import (DlGndConfig, ExperimentConfig, GndConfig, Objective, ParameterError,
                    RngStream, SgOracle, barrier_check, check_eta_constraint, contraction_check,
                    dlgnd_run, dlgnd_schedule, estimate_beta_quadratic, gnd_iteration_bound,
                    gnd_run, gnd_schedule, j1_stationary_points, make_objective, make_quadratic,
                    make_rastrigin, nearly_convex_gate, regularity_constants_grid,
                    run_monte_carlo, stopping_time_check)
from gndopt.errors import (require_finite, require_integer, require_nonnegative, require_point,
                           require_positive, require_uint64, require_unit_interval)

_CHECKS = [require_finite, require_positive, require_nonnegative, require_unit_interval,
           partial(require_integer, 0), partial(require_integer, 1), partial(require_integer, 4),
           require_uint64]


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
    (require_uint64, -1, "x must be a nonnegative integer, got -1"),
    (require_uint64, 2**64, "x must fit in 64 unsigned bits, got a 65-bit integer"),
    (require_uint64, 1e30, "x must fit in 64 unsigned bits, got 1e+30"),
    # wider than 64 bits: the message shows the bit length, not the digits
    pytest.param(require_uint64, -10**5000,
                 "x must be a nonnegative integer, got a negative 16610-bit integer",
                 id="uint64-5001-digits"),
])
def test_finite_value_out_of_range(check, value, message):
    with pytest.raises(ParameterError) as err:
        check(x=value)
    assert str(err.value) == message


@pytest.mark.parametrize("check,value", [
    (require_finite, -1e308), (require_positive, 5e-324), (require_nonnegative, 0.0),
    (require_unit_interval, 0.5), (partial(require_integer, 0), 0),
    (partial(require_integer, 1), 5.0), (partial(require_integer, 4), 4),
    (require_uint64, 2**64 - 1), (require_uint64, 0),
])
def test_value_in_range_passes(check, value):
    check(x=value)


def test_first_bad_parameter_is_named():
    with pytest.raises(ParameterError, match="^b must be positive, got 0$"):
        require_positive(a=1, b=0, c=math.nan)


@pytest.mark.parametrize("point,message", [
    ([1.0, 2.0, 3.0], "p must have shape (2,), got (3,)"),
    ([[1.0, 2.0], [3.0, 4.0]], "p must have shape (2,), got (4,)"),
    (5.0, "p must have shape (2,), got (1,)"),
    ([1.0, math.nan], "p must be finite, got nan"),
    ([-math.inf, math.nan], "p must be finite, got -inf"),
])
def test_bad_point_is_named(point, message):
    with pytest.raises(ParameterError) as err:
        require_point(2, p=point)
    assert str(err.value) == message


def test_point_of_any_shape_holding_dim_numbers_passes_as_a_copy():
    column = np.array([[1.0], [2.0]])
    point = require_point(2, x=column)
    assert point.shape == (2,) and point.dtype == np.float64 and point.tolist() == [1.0, 2.0]
    assert not np.shares_memory(point, column)
    low, high = require_point(2, low=[1, 2], high=[[3], [4]])
    assert low.tolist() == [1.0, 2.0] and high.tolist() == [3.0, 4.0]
    x_star = [1.0, -2.0]
    q = make_quadratic(1.0, 2, x_star=x_star)
    x_star[0] = 7.0
    assert q.minimizer.tolist() == [1.0, -2.0]
    assert q.value(np.array([1.0, -2.0])) == 0.0


def _experiment(**changes):
    q = make_quadratic(1.0, 1)
    params = dict(objective=q, algorithm=GndConfig(eta=0.1, s=0.0, f_lb=0.0, T=1),
                  sg_noise_r=0.0, trials=4, init_low=-1.0, init_high=1.0, seed=0)
    return ExperimentConfig(**{**params, **changes})


_GND = GndConfig(eta=0.1, s=0.5, f_lb=0.0, T=3)
_Q = make_quadratic(1.0, 1)


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
    (lambda: barrier_check(make_quadratic(1.0, 1), [math.nan], 0.5),
     "x_hat must be finite, got nan"),
    (lambda: GndConfig(eta=0.0, s=0.5, f_lb=0.0, T=5), "eta must be positive, got 0.0"),
    (lambda: GndConfig(eta=0.4, s=math.nan, f_lb=0.0, T=5), "s must be finite, got nan"),
    (lambda: GndConfig(eta=0.4, s=-1.0, f_lb=0.0, T=5), "s must be nonnegative, got -1.0"),
    (lambda: GndConfig(eta=0.4, s=0.5, f_lb=math.nan, T=5), "f_lb must be finite, got nan"),
    (lambda: contraction_check(make_quadratic(1.0, 1), r=1.0, trials=5, x0=[1.0, 2.0], T=5,
                               seed=0), "x0 must have shape (1,), got (2,)"),
    (lambda: stopping_time_check(make_quadratic(1.0, 1), r=1.0, ell=1.0, M=5, trials=5,
                                 x0=[1.0, 2.0], seed=0), "x0 must have shape (1,), got (2,)"),
    (lambda: barrier_check(make_quadratic(1.0, 2), [1.0, 2.0, 3.0], 0.1),
     "x_hat must have shape (2,), got (3,)"),
    (lambda: make_quadratic(1.0, 2, x_star=[1.0, math.nan]), "x_star must be finite, got nan"),
    (lambda: make_quadratic(1.0, 2, x_star=[1.0, 2.0, 3.0]),
     "x_star must have shape (2,), got (3,)"),
    (lambda: _experiment(objective=make_quadratic(1.0, 2), init_low=np.array([1.0, 2.0, 3.0])),
     "init_low must have shape (2,), got (3,)"),
    (lambda: gnd_run(make_quadratic(1.0, 1), SgOracle(make_quadratic(1.0, 1), 0.0), [math.nan],
                     GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=5), RngStream(0, 0)),
     "x0 must be finite, got nan"),
    (lambda: dlgnd_run(make_quadratic(1.0, 1), SgOracle(make_quadratic(1.0, 1), 0.0), [math.nan],
                       DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=1, T1=2, T2=2),
                       RngStream(0, 0)), "x0 must be finite, got nan"),
    (lambda: regularity_constants_grid(make_quadratic(1.0, 1), [[math.nan], [1.0]]),
     "grid must be finite, got nan"),
    (lambda: estimate_beta_quadratic(make_quadratic(1.0, 1), 1.0, [[1.0], [math.inf]]),
     "grid must be finite, got inf"),
    (lambda: make_objective("j1", n=7, k=1, x_star=[1.0]),
     "objective 'j1' got unknown keys ['x_star']"),
    (lambda: make_objective("quadratic", alpha=1.0, dim=0), "dim must be a positive integer, got 0"),
    (lambda: RngStream(1.5, 0), "master_seed must be a nonnegative integer, got 1.5"),
    (lambda: RngStream(math.nan, 0), "master_seed must be finite, got nan"),
    (lambda: RngStream(0, 2.7), "stream_index must be a nonnegative integer, got 2.7"),
    (lambda: RngStream(2**2000, 0),
     "master_seed must fit in 64 unsigned bits, got a 2001-bit integer"),
    (lambda: _experiment(seed=2.5), "seed must be a nonnegative integer, got 2.5"),
    (lambda: _experiment(seed=math.nan), "seed must be finite, got nan"),
    (lambda: _experiment(seed=-1), "seed must be a nonnegative integer, got -1"),
    (lambda: barrier_check(make_quadratic(1.0, 2), [1.0, 1.0], 0.1, boundary_points=0),
     "boundary_points must be a positive integer, got 0"),
    (lambda: RngStream(10**5000, 0),
     "master_seed must fit in 64 unsigned bits, got a 16610-bit integer"),
    (lambda: RngStream(0, 2**64),
     "stream_index must fit in 64 unsigned bits, got a 65-bit integer"),
    (lambda: _experiment(seed=2**64), "seed must fit in 64 unsigned bits, got a 65-bit integer"),
    (lambda: stopping_time_check(make_quadratic(1.0, 1), r=1.0, ell=1.0, M=5, trials=5,
                                 x0=[5.0], seed=2**64),
     "seed must fit in 64 unsigned bits, got a 65-bit integer"),
    (lambda: _GND.work(0, 2, 0.0), "m must be a positive integer, got 0"),
    (lambda: _GND.work(4, 2.5, 0.0), "d must be a positive integer, got 2.5"),
    (lambda: _GND.work(4, 2, -1.0), "r must be nonnegative, got -1.0"),
    (lambda: _GND.work(4, 2, math.nan), "r must be finite, got nan"),
    # a real-valued parameter given as an int beyond float range
    (lambda: make_quadratic(10**400, 1), "alpha must be finite, got a 1329-bit integer"),
    (lambda: make_rastrigin(10**400, 1.0, 1.0, 2), "a must be finite, got a 1329-bit integer"),
    (lambda: gnd_schedule(10**400, 10**401, 0.0, 0.0),
     "alpha must be finite, got a 1329-bit integer"),
    (lambda: gnd_run(_Q, SgOracle(_Q, 0.0), [1.0], GndConfig(eta=10**400, s=0.5, f_lb=0.0, T=5),
                     RngStream(0, 0)), "eta must be finite, got a 1329-bit integer"),
    (lambda: gnd_run(_Q, SgOracle(_Q, 10**400), [1.0], _GND, RngStream(0, 0)),
     "r must be finite, got a 1329-bit integer"),
    # a certificate whose constants leave float range: a square under- or overflows, or b does
    (lambda: gnd_schedule(1e-200, 1e-200, 0.0, 0.0),
     "alpha^2 must be positive, got 0.0"),
    (lambda: gnd_schedule(1e200, 1e200, 0.0, 0.0),
     "alpha^2 must be finite, got inf"),
    (lambda: gnd_schedule(1.0, 1.0, 1e200, 0.0),
     "r and f_gap must keep b finite, got r=1e+200, f_gap=0.0"),
    (lambda: stopping_time_check(make_quadratic(1e-300, 1), r=1.0, ell=25.0, M=3, trials=5,
                                 x0=[5.0], seed=0),
     "alpha^2 must be positive, got 0.0"),
    (lambda: check_eta_constraint(0.1, 0.5, 1e-200, 1e-200, 0.0, 1),
     "L^2 must be positive, got 0.0"),
    # a certificate out of order, or whose derived constants leave float range
    (lambda: Objective("q", 1, abs, abs, np.zeros(1), 0.0, certificate=(1.0, math.inf)),
     "L must be finite, got inf"),
    (lambda: check_eta_constraint(0.1, 0.5, 2.0, 1.0, 0.0, 1),
     "L must be at least alpha, got L=1.0 < alpha=2.0"),
    (lambda: gnd_schedule(1e-150, 1e150, 0.0, 0.0),
     "alpha and L must keep eta*lambda positive, got alpha=1e-150, L=1e+150"),
    (lambda: gnd_iteration_bound(gnd_schedule(1e-150, 1e150, 0.0, 0.0), 1.0, 0.5, 1e-3),
     "alpha and L must keep eta*lambda positive, got alpha=1e-150, L=1e+150"),
    (lambda: gnd_iteration_bound(gnd_schedule(1.0, 1.0, 1e154, 0.0), 1.0, 0.5),
     "the iteration bound must be finite, got y0_dist_sq=1.0, zeta=0.5, eps=None, b=2.5e+307, "
     "eta_lam=0.6400000000000001"),
    (lambda: gnd_iteration_bound(gnd_schedule(1.0, 1.0, 0.0, 0.0), 1e300, 0.5, 1e-300),
     "the iteration bound must be finite, got y0_dist_sq=1e+300, zeta=0.5, eps=1e-300, b=0.0, "
     "eta_lam=0.6400000000000001"),
    (lambda: dlgnd_schedule(1.0, 1.0, 1e154, 0.01, 0.05, 1.0, 1.0, 0.0),
     "the double-loop counts must be finite, got alpha=1.0, L=1.0, r=1e+154, eps=0.01, "
     "zeta=0.05, f_gap0=1.0, y0_dist_sq=1.0, beta=0.0"),
    (lambda: dlgnd_schedule(1e-150, 1e5, 0.0, 0.01, 0.05, 1.0, 1.0, 0.0),
     "the double-loop counts must be finite, got alpha=1e-150, L=100000.0, r=0.0, eps=0.01, "
     "zeta=0.05, f_gap0=1.0, y0_dist_sq=1.0, beta=0.0"),
    (lambda: dlgnd_schedule(1.0, 1.0, 0.0, 1e-300, 0.05, 1e300, 1.0, 0.0),
     "the double-loop counts must be finite, got alpha=1.0, L=1.0, r=0.0, eps=1e-300, "
     "zeta=0.05, f_gap0=1e+300, y0_dist_sq=1.0, beta=0.0"),
    (lambda: check_eta_constraint(1e-200, 1e-200, 1.0, 1.0, 0.5, 1),
     "eta*s*(alpha - beta) must be positive, got eta=1e-200, s=1e-200, alpha=1.0, beta=0.5"),
    (lambda: check_eta_constraint(0.1, 0.5, 1.0, 1.0, 0.2, 10**400),
     "d must be finite, got a 1329-bit integer"),
    (lambda: nearly_convex_gate(1.0, 1.0, 10**400), "d must be finite, got a 1329-bit integer"),
], ids=["check_eta_constraint-s", "nearly_convex_gate-L", "GndConfig-T-nan", "GndConfig-T-inf",
        "ExperimentConfig-trials", "j1_stationary_points-n", "gnd_iteration_bound-y0_dist_sq",
        "stopping_time_check-M", "barrier_check-x_hat", "GndConfig-eta-zero", "GndConfig-s-nan",
        "GndConfig-s-negative", "GndConfig-f_lb-nan", "contraction_check-x0-shape",
        "stopping_time_check-x0-shape", "barrier_check-x_hat-shape", "make_quadratic-x_star-nan",
        "make_quadratic-x_star-shape", "ExperimentConfig-init_low-shape", "gnd_run-x0-nan",
        "dlgnd_run-x0-nan", "regularity_constants_grid-grid-nan",
        "estimate_beta_quadratic-grid-inf", "make_objective-j1-x_star",
        "make_objective-quadratic-dim", "RngStream-seed-fraction", "RngStream-seed-nan",
        "RngStream-index-fraction", "RngStream-seed-huge", "ExperimentConfig-seed-fraction",
        "ExperimentConfig-seed-nan", "ExperimentConfig-seed-negative",
        "barrier_check-boundary_points", "RngStream-seed-huge-digits", "RngStream-index-huge",
        "ExperimentConfig-seed-huge", "stopping_time_check-seed-huge", "work-m-zero",
        "work-d-fraction", "work-r-negative", "work-r-nan", "make_quadratic-alpha-huge",
        "make_rastrigin-a-huge", "gnd_schedule-alpha-huge", "gnd_run-eta-huge", "gnd_run-r-huge",
        "gnd_schedule-alpha-square-underflow", "gnd_schedule-alpha-square-overflow",
        "gnd_schedule-b-overflow", "stopping_time_check-alpha-square-underflow",
        "check_eta_constraint-L-square-underflow", "Objective-L-inf",
        "check_eta_constraint-L-below-alpha", "gnd_schedule-eta-lambda-underflow",
        "gnd_iteration_bound-eta-lambda-underflow", "gnd_iteration_bound-b-floor-overflow",
        "gnd_iteration_bound-ratio-overflow", "dlgnd_schedule-gamma-underflow",
        "dlgnd_schedule-T1-overflow", "dlgnd_schedule-N-overflow",
        "check_eta_constraint-radical-underflow", "check_eta_constraint-d-huge",
        "nearly_convex_gate-d-huge"])
def test_library_probe_is_parameter_error(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message


def _dlgnd(n):
    return DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=n, T1=n, T2=n)


# require_integer passes integral floats; each count so given runs as its int.
@pytest.mark.parametrize("run", [
    lambda n: gnd_run(_Q, SgOracle(_Q, 0.3), [1.0], GndConfig(0.4, 0.5, 0.0, n), RngStream(0, 0)),
    lambda n: run_monte_carlo(_experiment(algorithm=GndConfig(0.4, 0.5, 0.0, n))),
    lambda n: dlgnd_run(_Q, SgOracle(_Q, 0.3), [1.0], _dlgnd(n), RngStream(0, 0)),
    lambda n: run_monte_carlo(_experiment(algorithm=_dlgnd(n))),
    lambda n: run_monte_carlo(_experiment(trials=n)),
    lambda n: contraction_check(_Q, r=1.0, trials=4, x0=[5.0], T=n, seed=0),
], ids=["gnd_run-T", "run_monte_carlo-T", "dlgnd_run-N-T1-T2", "run_monte_carlo-N-T1-T2",
        "ExperimentConfig-trials", "contraction_check-T"])
def test_integral_float_count_runs_as_its_int(run):
    got, want = dataclasses.astuple(run(5.0)), dataclasses.astuple(run(5))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
