import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gndopt import (ConstraintNotCheckableError, GateViolationError,
                    ParameterError, barrier_check, check_eta_constraint,
                    dlgnd_schedule, estimate_beta_quadratic,
                    gnd_iteration_bound, gnd_schedule, j1_stationary_points,
                    j2_condition_table, make_j1, make_j2, make_quadratic,
                    nearly_convex_gate, regularity_constants_grid,
                    stopping_time_bound, symmetric_log_grid)


class TestGndSchedule:
    def test_unit_certificate(self):
        s = gnd_schedule(1.0, 1.0, 0.0, 0.0)
        assert s.eta == pytest.approx(0.4, abs=0)
        assert s.lam == pytest.approx(1.6, abs=0)
        assert s.s == pytest.approx(1.6 / 3.0, rel=1e-15)
        assert s.b == 0.0

    def test_oracle_term(self):
        assert gnd_schedule(1.0, 1.0, 1.0, 0.0).b == pytest.approx(0.25, rel=1e-15)

    def test_gap_term(self):
        assert gnd_schedule(1.0, 1.0, 0.0, 1.0).b == pytest.approx(17.2 / 42.0, rel=1e-12)

    def test_rejects_l_below_alpha(self):
        with pytest.raises(ParameterError):
            gnd_schedule(1.0, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["alpha", "L", "r", "f_gap"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, field, bad):
        params = dict(alpha=1.0, L=1.0, r=0.0, f_gap=0.0)
        params[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            gnd_schedule(**params)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(1e-3, 10.0), ratio=st.floats(1.0, 50.0))
    def test_identities(self, alpha, ratio):
        big_l = alpha * ratio
        s = gnd_schedule(alpha, big_l, 0.0, 0.0)
        assert s.lam == pytest.approx(8.0 * alpha / 5.0, rel=1e-12)
        assert s.eta_lam == pytest.approx(16.0 * alpha**2 / (25.0 * big_l**2), rel=1e-12)
        assert s.eta_lam <= 0.64 + 1e-12  # since L >= alpha


class TestIterationBound:
    def test_noise_free_branch(self):
        s = gnd_schedule(1.0, 1.0, 0.0, 0.0)
        assert gnd_iteration_bound(s, 100.0, 0.05, eps=1e-4) == 2627

    def test_noisy_branch(self):
        s = gnd_schedule(1.0, 1.0, 1.0, 0.0)  # b = 0.25
        assert gnd_iteration_bound(s, 100.0, 0.1) == 1153

    def test_degenerate_boundary(self):
        s = gnd_schedule(1.0, 1.0, 0.0, 0.0)
        zeta, eps = 0.5, 0.01
        assert gnd_iteration_bound(s, zeta * eps, zeta, eps=eps) == 0

    def test_zeta_validation(self):
        s = gnd_schedule(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            gnd_iteration_bound(s, 1.0, 1.5, eps=0.1)


class TestDoubleLoopSchedule:
    def test_gamma_and_n(self):
        dl = dlgnd_schedule(1.0, 1.0, 0.0, eps=0.01, zeta=0.05, f_gap0=1.0,
                            y0_dist_sq=100.0, beta=0.0)
        assert dl.b_eps == pytest.approx(17.2 / 42.0 * 0.01, rel=1e-12)
        expected_gamma = 0.0036 / (0.0036 + 100.0 * 17.2 / 42.0 * 0.01)
        assert dl.gamma == pytest.approx(expected_gamma, abs=1e-9)
        assert dl.N == 72
        assert dl.zeta_prime == pytest.approx(0.05 / 73.0, rel=1e-15)
        assert dl.T1 >= 1 and dl.T2 >= 1

    def test_gamma_in_unit_interval(self):
        for r in (0.0, 0.5, 2.0):
            dl = dlgnd_schedule(0.84, 1.0, r, eps=0.05, zeta=0.1, f_gap0=3.0,
                                y0_dist_sq=64.0, beta=0.1)
            assert 0.0 < dl.gamma < 1.0

    def test_rejects_zero_gap(self):
        with pytest.raises(ParameterError):
            dlgnd_schedule(1.0, 1.0, 0.0, eps=0.01, zeta=0.05, f_gap0=0.0,
                           y0_dist_sq=1.0, beta=0.0)

    def test_gate_violation(self):
        with pytest.raises(GateViolationError):
            dlgnd_schedule(1.0, 1.0, 0.0, eps=0.01, zeta=0.05, f_gap0=1.0,
                           y0_dist_sq=1.0, beta=1.0)

    @pytest.mark.parametrize("field", ["alpha", "L", "r", "eps", "zeta", "f_gap0",
                                       "y0_dist_sq", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, field, bad):
        params = dict(alpha=1.0, L=1.0, r=0.0, eps=0.01, zeta=0.05, f_gap0=1.0,
                      y0_dist_sq=100.0, beta=0.0)
        params[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            dlgnd_schedule(**params)


class TestEtaConstraint:
    def test_zero_beta_zero_s(self):
        assert check_eta_constraint(0.3, 0.0, 1.0, 1.0, 0.0, 1) is True

    def test_feasible_beta(self):
        assert check_eta_constraint(0.4, 1.6 / 3.0, 1.0, 1.0, 0.25, 1) is True

    def test_infeasible_beta(self):
        assert check_eta_constraint(0.4, 1.6 / 3.0, 1.0, 1.0, 0.5, 1) is False

    def test_lhs_value(self):
        # direct evaluation of both sides at the feasible example
        eta, s, alpha, beta = 0.4, 1.6 / 3.0, 1.0, 0.25
        lhs = beta * math.sqrt(2.0) * (math.sqrt(2.0 / (math.pi * eta * s * (alpha - beta))) + 1.0) * (1.0 + eta * s)
        assert lhs == pytest.approx(1.2847, abs=1e-4)
        assert 2.0 - eta - s / 2.0 == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_indeterminate_when_s_zero_with_positive_beta(self):
        with pytest.raises(ConstraintNotCheckableError):
            check_eta_constraint(0.3, 0.0, 1.0, 1.0, 0.1, 1)

    @settings(max_examples=60, deadline=None)
    @given(beta1=st.floats(0.01, 0.9), beta2=st.floats(0.01, 0.9),
           s=st.floats(0.05, 1.0), eta=st.floats(0.05, 1.9))
    def test_monotone_in_beta(self, beta1, beta2, s, eta):
        lo, hi = sorted((beta1, beta2))
        if check_eta_constraint(eta, s, 1.0, 1.0, hi, 2):
            assert check_eta_constraint(eta, s, 1.0, 1.0, lo, 2)


class TestNearlyConvexGate:
    def test_all_ones(self):
        assert nearly_convex_gate(1.0, 1.0, 1) == 0.25

    def test_fractional_alpha(self):
        assert nearly_convex_gate(21.0 / 25.0, 1.0, 1) == pytest.approx(0.25 * 0.84**2.5, rel=1e-15)

    def test_dimension_scaling(self):
        assert nearly_convex_gate(1.0, 1.0, 4) == 0.125

    # alpha^2, alpha^5 or L^3 of these certificates leaves float range; the gate does not
    @pytest.mark.parametrize("alpha,gate", [(1e200, 2.5e199), (1e100, 2.5e99), (1e-120, 2.5e-121)],
                             ids=["alpha-square-overflow", "alpha-power-overflow",
                                  "L-power-underflow"])
    def test_certificate_far_from_one(self, alpha, gate):
        assert nearly_convex_gate(alpha, alpha, 1) == pytest.approx(gate, rel=1e-15)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_POSITIVE = _log_uniform(-323.0, 308.0)
_NONNEGATIVE = st.one_of(st.just(0.0), _POSITIVE)


def _or_none(call):
    try:
        return call()
    except ParameterError:
        return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(alpha=_POSITIVE, ratio=_log_uniform(0.0, 308.0), r=_NONNEGATIVE, f_gap=_NONNEGATIVE,
       eps=_POSITIVE, zeta=_log_uniform(-323.0, -1e-9), f_gap0=_POSITIVE, y0=_POSITIVE,
       beta=_NONNEGATIVE, share=_log_uniform(-323.0, -1e-9), s=_NONNEGATIVE,
       d=st.integers(1, 2**31))
def test_theory_gives_finite_values_or_parameter_error(alpha, ratio, r, f_gap, eps, zeta,
                                                       f_gap0, y0, beta, share, s, d):
    # Every input is drawn across float range; a theory function either returns finite
    # values or rejects its inputs.  eta is a share of its bound 2*alpha/L^2.
    L = alpha * ratio
    sched = _or_none(lambda: gnd_schedule(alpha, L, r, f_gap))
    if sched is not None:
        assert min(sched.eta, sched.s, sched.lam, sched.eta_lam) > 0.0
        assert math.isfinite(max(sched.eta, sched.s, sched.lam, sched.b)) and sched.b >= 0.0
        count = _or_none(lambda: gnd_iteration_bound(sched, y0, zeta, eps))
        assert count is None or count >= 0
    dl = _or_none(lambda: dlgnd_schedule(alpha, L, r, eps, zeta, f_gap0, y0, beta))
    if dl is not None:
        assert math.isfinite(max(dl.b0, dl.b_eps, dl.gamma, dl.zeta_prime))
        assert min(dl.N, dl.T1, dl.T2) >= 0
    eta = share * (2.0 * alpha / (L * L) if 0.0 < L * L < math.inf else 1.0)
    assert _or_none(lambda: check_eta_constraint(eta, s, alpha, L, beta, d)) in (None, True, False)
    gate = _or_none(lambda: nearly_convex_gate(alpha, L, d))
    assert gate is None or 0.0 <= gate < math.inf


class TestBetaEstimate:
    def test_matching_quadratic_gives_zero(self):
        q = make_quadratic(1.7, 1)
        grid = symmetric_log_grid(1e-5, 10.0, 500)
        assert estimate_beta_quadratic(q, 1.7, grid) == 0.0

    def test_j1_past_threshold_within_sandwich(self):
        # the deviation ratio tends to 2*(1/2 - 21/50) = 4/25 as x -> 0, so the
        # grid value approaches 0.16 from below up to evaluation rounding
        j1 = make_j1(199, 1)
        grid = np.arange(-10.0, 10.0, 1e-3)
        grid = grid[np.abs(grid) > 1e-6][:, None]
        val = estimate_beta_quadratic(j1, 21.0 / 25.0, grid)
        assert 0.0 < val <= 4.0 / 25.0 + 1e-9

    def test_j2_bounded_by_eps(self):
        eps, R = 2.0 / 27.0, math.sqrt(18161.0) / 8.0
        j2 = make_j2(eps, R)
        grid = symmetric_log_grid(1e-6, 10.0, 50_000)
        val = estimate_beta_quadratic(j2, 1.0, grid)
        assert val <= eps + 1e-12

    def test_grid_containing_minimizer_rejected(self):
        q = make_quadratic(1.0, 1)
        with pytest.raises(ParameterError):
            estimate_beta_quadratic(q, 1.0, np.array([[0.0], [1.0]]))

    def test_nonnegative_on_any_objective(self):
        j1 = make_j1(7, 1)
        grid = symmetric_log_grid(1e-3, 9.0, 300)
        assert estimate_beta_quadratic(j1, 0.84, grid) >= 0.0


class TestRegularityGrid:
    def test_quadratic_constants_exact(self):
        q = make_quadratic(1.0, 1)
        grid = symmetric_log_grid(1e-4, 10.0, 2000)
        rep = regularity_constants_grid(q, grid)
        assert rep.mu_r_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.mu_p_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.mu_q_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.beta_hat <= 1e-12
        assert rep.nc_gate

    def test_j2_secant_and_growth_constants(self):
        j2 = make_j2(0.1, 1.0)
        rep = regularity_constants_grid(j2, symmetric_log_grid(1e-6, 10.0, 60_000))
        assert abs(rep.mu_q_hat - 0.9) <= 1e-2
        assert abs(rep.mu_r_hat - (1.0 - 0.1 * math.sqrt(2.0))) <= 1e-2

    def test_refinement_never_increases_constants(self):
        j2 = make_j2(0.1, 1.0)
        coarse_grid = symmetric_log_grid(1e-6, 10.0, 400)
        fine = np.concatenate([coarse_grid, symmetric_log_grid(2e-6, 9.0, 400)])
        c = regularity_constants_grid(j2, coarse_grid)
        f = regularity_constants_grid(j2, fine)
        assert f.mu_r_hat <= c.mu_r_hat
        assert f.mu_p_hat <= c.mu_p_hat
        assert f.mu_q_hat <= c.mu_q_hat

    def test_requires_alpha_without_certificate(self):
        from gndopt import make_rastrigin
        r = make_rastrigin(1.0, 1.0, 0.05, 2)
        with pytest.raises(ParameterError):
            regularity_constants_grid(r, np.ones((10, 2)))


class TestJ2ConditionTable:
    def test_figure_regime(self):
        # eps*sqrt(1+R^2) = 5/4 and 4*eps*(1+5/4)^1.5 = 1 exactly
        rows = {r.condition: r for r in j2_condition_table(2.0 / 27.0, math.sqrt(18161.0) / 8.0)}
        assert not rows["SC"].holds and not rows["RSI"].holds and not rows["PL"].holds
        assert rows["QG"].holds
        assert rows["NC"].holds
        alpha, big_l = rows["NC"].parameter
        assert alpha == 1.0
        assert big_l == pytest.approx(2.25, rel=1e-12)

    def test_all_hold_for_small_eps(self):
        rows = {r.condition: r for r in j2_condition_table(0.1, 1.0)}
        assert all(rows[name].holds for name in ("SC", "RSI", "PL", "QG", "NC"))
        assert rows["RSI"].parameter == pytest.approx(1.0 - 0.1 * math.sqrt(2.0), rel=1e-12)
        assert rows["PL"].parameter == pytest.approx((1.0 - 0.1 * math.sqrt(2.0)) ** 2 / 1.1, rel=1e-12)
        assert rows["NC"].parameter[0] == pytest.approx(1.0 - 0.1 * math.sqrt(2.0), rel=1e-12)

    def test_only_growth_survives_fast_oscillation(self):
        rows = {r.condition: r for r in j2_condition_table(0.999, 1000.0)}
        assert rows["QG"].holds and rows["QG"].parameter == pytest.approx(0.001, abs=1e-12)
        assert not any(rows[name].holds for name in ("SC", "RSI", "PL", "NC"))

    def test_slow_oscillation_keeps_every_condition(self):
        # eps*sqrt(1+R^2) < 1 for any eps < 1 once R is small enough, so all
        # five ranges hold (with tiny parameters) even at eps close to 1
        rows = {r.condition: r for r in j2_condition_table(0.999, 0.001)}
        assert all(rows[name].holds for name in ("SC", "RSI", "PL", "QG", "NC"))
        assert 0.0 < rows["RSI"].parameter < 2e-3


class TestBarrierCheck:
    def test_j1_trap_barrier(self):
        j1 = make_j1(199, 1)
        x_hat = j1_stationary_points(199, 1, 0)[0]
        res = barrier_check(j1, [x_hat], 0.3)
        assert res.holds and res.conclusive
        assert res.lhs < res.rhs

    def test_quadratic_boundary(self):
        q = make_quadratic(1.0, 1)
        res = barrier_check(q, [2.0], 0.5)
        assert res.holds
        assert res.rhs > 0.0

    def test_two_dimensional_grid(self):
        from gndopt import make_rastrigin
        r = make_rastrigin(1.0, 1.0, 0.01, 2)
        res = barrier_check(r, [2.0 * math.pi, 0.0], 1.0, alpha=0.8, L=1.2)
        assert res.lhs <= res.rhs or not res.conclusive

    def test_ball_containing_minimizer_rejected(self):
        q = make_quadratic(1.0, 1)
        with pytest.raises(ParameterError):
            barrier_check(q, [1.0], 1.5)

    def test_dimension_restriction(self):
        q = make_quadratic(1.0, 3)
        with pytest.raises(ParameterError):
            barrier_check(q, [1.0, 1.0, 1.0], 0.5)


class TestStoppingTimeBound:
    def test_empty_power(self):
        assert stopping_time_bound(0.5, 1.0, 2.0, 0, 5.0) == 1.0 - 5.0 / 2.0

    def test_vacuous_case(self):
        val = stopping_time_bound(0.95, 1.0, 1.0, 50, 5.0)
        assert val == pytest.approx(1.0 - 0.975**50 * 5.0, rel=1e-12)
        assert val < 0.0

    @pytest.mark.parametrize("field", ["b", "ell", "B"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, field, bad):
        params = dict(theta=0.5, b=1.0, ell=2.0, M=3, B=5.0)
        params[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            stopping_time_bound(**params)

    def test_informative_case(self):
        val = stopping_time_bound(0.9, 1.0, 1.0, 100, 5.0)
        assert val == pytest.approx(1.0 - 0.95**100 * 5.0, rel=1e-12)
        assert val == pytest.approx(0.970397, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.01, 0.99), b=st.floats(0.01, 10.0),
           ell=st.floats(0.01, 10.0), m=st.integers(0, 200), big_b=st.floats(0.0, 5.0))
    def test_monotone_in_m_and_b(self, theta, b, ell, m, big_b):
        if big_b / ell <= 1.0:
            assert (stopping_time_bound(theta, b, ell, m + 1, big_b)
                    >= stopping_time_bound(theta, b, ell, m, big_b) - 1e-12)
        assert (stopping_time_bound(theta, b, ell, m, big_b)
                >= stopping_time_bound(theta, b, ell, m, big_b + 1.0) - 1e-12)
