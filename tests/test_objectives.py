import inspect
import math
import tracemalloc

import numpy as np
import pytest
from conftest import central_difference_gradient, j1_value_quadrature
from hypothesis import given, settings
from hypothesis import strategies as st

from gndopt import (ParameterError, compute_nk, fourier_sin_coefficients,
                    j1_stationary_points, make_j1, make_j2, make_objective,
                    make_quadratic, make_rastrigin)
from gndopt import objectives
from gndopt.objectives import _FACTORIES


class TestQuadratic:
    def test_value_and_gradient(self):
        q = make_quadratic(1.0, 2)
        x = np.array([1.0, 1.0])
        assert q.value(x) == 1.0
        assert np.array_equal(q.gradient(x), np.array([1.0, 1.0]))

    def test_minimizer_case(self):
        q = make_quadratic(2.0, 1)
        assert q.value(np.zeros(1)) == 0.0
        assert q.gradient(np.zeros(1)) == 0.0

    def test_offset_minimizer(self):
        q = make_quadratic(1.0, 3, x_star=[1.0, 1.0, 1.0])
        assert q.value(np.zeros(3)) == pytest.approx(1.5, abs=0)

    def test_certificate(self):
        assert make_quadratic(0.7, 4).certificate == (0.7, 0.7)

    @pytest.mark.parametrize("alpha,d", [(0.0, 1), (-1.0, 2), (1.0, 0)])
    def test_bad_parameters(self, alpha, d):
        with pytest.raises(ParameterError):
            make_quadratic(alpha, d)


class TestFourierCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 7, 112, 199, 400])
    def test_partition_identity(self, n):
        c = fourier_sin_coefficients(n)
        assert c[0] + 2.0 * np.sum(c[1:]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 112, 400])
    def test_strictly_decreasing_positive(self, n):
        c = fourier_sin_coefficients(n)
        assert c[0] <= 1.0
        assert np.all(np.diff(c) < 0.0)
        assert np.all(c > 0.0)

    @pytest.mark.parametrize("n", [1, 7, 112, 199, 300])
    def test_recurrence_matches_direct_log_gamma(self, n):
        c = fourier_sin_coefficients(n)
        j = np.arange(n + 1)
        direct = np.exp(
            [math.lgamma(2 * n + 1) - math.lgamma(n - jj + 1) - math.lgamma(n + jj + 1)
             - n * math.log(4.0) for jj in j])
        assert np.max(np.abs(c - direct) / direct) <= 1e-12

    def test_n_plus_one_read_only_coefficients(self):
        c = fourier_sin_coefficients(7)
        assert c.shape == (8,) and not c.flags.writeable

    def test_expansion_reproduces_sine_power(self):
        n = 7
        c = fourier_sin_coefficients(n)
        j = np.arange(1, n + 1)
        sign = (-1.0) ** j
        for t in np.linspace(-3.0, 3.0, 41):
            series = c[0] + 2.0 * np.sum(sign * c[1:] * np.cos(2.0 * j * t))
            assert series == pytest.approx(math.sin(t) ** (2 * n), abs=1e-14)


class TestComputeNk:
    @pytest.mark.parametrize("k,expected", [(1, 199), (2, 112), (3, 89), (4, 78)])
    def test_table(self, k, expected):
        assert compute_nk(k) == expected

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            compute_nk(0)


class TestJ1:
    def test_value_vanishes_at_pi_for_n1_k1(self):
        # antiderivative gives int_0^pi t*sin(t)^2 dt = pi^2/4, so the value is 0
        j1 = make_j1(1, 1)
        assert abs(j1.value(np.array([math.pi]))) <= 1e-13

    def test_gradient_at_half_pi(self):
        j1 = make_j1(7, 1)
        g = j1.gradient(np.array([math.pi / 2]))
        assert g[0] == pytest.approx(-math.pi / 2, rel=1e-15)

    def test_value_matches_quadrature_at_single_point(self):
        j1 = make_j1(112, 2)
        got = float(j1.value(np.array([3.7])))
        want = j1_value_quadrature([3.7], 112, 2)[0]
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("n,k", [(1, 1), (7, 1), (112, 2)])
    def test_fourier_value_vs_quadrature_on_interval(self, n, k):
        j1 = make_j1(n, k)
        xs = np.linspace(-10.0, 10.0, 201)
        got = np.atleast_1d(j1.value(xs[:, None]))
        want = j1_value_quadrature(xs, n, k)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_even_symmetry(self):
        j1 = make_j1(7, 1)
        xs = np.linspace(0.1, 9.7, 25)[:, None]
        assert np.array_equal(j1.value(xs), j1.value(-xs))
        assert np.array_equal(j1.gradient(xs), -j1.gradient(-xs))

    def test_certificate_only_past_threshold(self):
        assert make_j1(7, 1).certificate is None
        assert make_j1(199, 1).certificate == (21.0 / 25.0, 1.0)
        assert make_j1(112, 2).certificate == (21.0 / 25.0, 1.0)
        assert make_j1(111, 2).certificate is None

    def test_quadratic_sandwich_past_threshold(self):
        # for n >= n_k the deviation from x^2/2 lies in [-(4/25) x^2, 0]
        j1 = make_j1(199, 1)
        xs = np.linspace(-10.0, 10.0, 2001)
        xs = xs[xs != 0.0]
        dev = np.atleast_1d(j1.value(xs[:, None])) - 0.5 * xs * xs
        assert np.all(dev <= 1e-12)
        assert np.all(dev >= -(4.0 / 25.0) * xs * xs - 1e-12)

    def test_minimizer_exact(self):
        j1 = make_j1(112, 2)
        assert j1.value(np.zeros(1)) == 0.0
        assert j1.gradient(np.zeros(1))[0] == 0.0


def _two_table_j1_value(x, n, k):
    """make_j1's value with a second sine table for sin(2jx): the bitwise oracle."""
    c = fourier_sin_coefficients(n)
    j = np.arange(1, n + 1, dtype=np.float64)
    sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    w_sin, w_sq = sign * c[1:] / j, sign * c[1:] / (j * j)
    xs = np.asarray(x, dtype=np.float64)[..., 0]
    ang = xs[..., None] * j
    half_sin = np.sin(ang)
    np.multiply(ang, 2.0, out=ang)
    np.sin(ang, out=ang)
    ang *= w_sin
    sin_sum = np.add.reduce(ang, axis=-1)
    np.multiply(half_sin, w_sq, out=ang)
    ang *= half_sin
    sq_sum = np.add.reduce(ang, axis=-1)
    integral = 0.5 * c[0] * xs * xs + xs * sin_sum - sq_sum
    return 0.5 * xs * xs - (1.0 + 1.0 / k) * integral


# Signed zeros, the smallest subnormal, a subnormal near 2^-1022 (where
# fl(2jx) and 2*fl(jx) could in principle round apart) and a huge value.
_J1_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]
_j1_points = st.one_of(
    st.sampled_from(_J1_SPECIAL),
    st.builds(lambda e, neg: -(10.0 ** e) if neg else 10.0 ** e,
              st.floats(min_value=-320.0, max_value=math.log10(40.0)), st.booleans()))


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 7, 112, 113, 199, 250]), k=st.integers(1, 3),
       kind=st.sampled_from(["point", "row", "rows", "nd", "empty", "tiles", "nd-tiles"]),
       rem=st.integers(1, 50), data=st.data())
def test_j1_one_sine_table_is_bitwise_the_two_table_value(n, k, kind, rem, data):
    # The oracle evaluates the whole batch as one table; value walks it in
    # tiles, so the large batches span three or more tiles and a remainder.
    tile = max(1, objectives._J1_TILE_BYTES // (8 * n))
    shape = {"point": (1,), "row": (1, 1), "rows": (5, 1), "nd": (3, 4, 1), "empty": (0, 1),
             "tiles": (3 * tile + rem, 1), "nd-tiles": (3, tile + rem, 1)}[kind]
    size = math.prod(shape)
    drawn = data.draw(st.lists(_j1_points, min_size=min(size, 40), max_size=min(size, 40)))
    x = np.linspace(-40.0, 40.0, size)  # drawn points at scattered rows, a grid elsewhere
    x[np.random.default_rng(rem).permutation(size)[:len(drawn)]] = drawn
    x = x.reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 gives inf - inf
        got = np.asarray(make_j1(n, k).value(x), dtype=np.float64)
        want = _two_table_j1_value(x, n, k)
    assert got.shape == want.shape == shape[:-1]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.tracemalloc
def test_j1_value_memory_stays_within_a_few_tiles():
    # 20 000 rows of j1(112, 2) would be two 17.9 MB sine tables in one pass;
    # in tiles the peak is two tiles' tables, their sums and the output.
    j1 = make_j1(112, 2)
    x = np.linspace(-40.0, 40.0, 20_000)[:, None]
    j1.value(x[:10])  # first-call allocations are not part of the run below
    tracemalloc.start()
    try:
        j1.value(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * objectives._J1_TILE_BYTES


class TestJ1StationaryPoints:
    def test_first_point_n7(self):
        pts = j1_stationary_points(7, 1, 0)
        assert pts == [pytest.approx(math.asin(0.5 ** (1 / 14)), rel=1e-15)]

    def test_first_point_n1_is_quarter_pi(self):
        pts = j1_stationary_points(1, 1, 0)
        assert pts == [pytest.approx(math.pi / 4, rel=1e-15)]

    def test_gradient_small_at_all_points(self):
        j1 = make_j1(199, 1)
        for x in j1_stationary_points(199, 1, 5):
            assert abs(j1.gradient(np.array([x]))[0]) <= 1e-9

    def test_negative_j_max_rejected(self):
        with pytest.raises(ParameterError):
            j1_stationary_points(7, 1, -1)


class TestJ2:
    def test_value_and_gradient_at_one(self):
        j2 = make_j2(0.5, 3.0)
        assert j2.value(np.array([1.0])) == 0.5
        assert j2.gradient(np.array([1.0]))[0] == 2.5

    def test_piecewise_zero(self):
        j2 = make_j2(2.0 / 27.0, math.sqrt(18161.0) / 8.0)
        assert j2.value(np.zeros(1)) == 0.0
        assert j2.gradient(np.zeros(1))[0] == 0.0

    def test_even_symmetry(self):
        j2 = make_j2(0.1, 1.0)
        xs = np.geomspace(1e-5, 9.0, 40)[:, None]
        assert np.array_equal(j2.value(xs), j2.value(-xs))
        assert np.array_equal(j2.gradient(xs), -j2.gradient(-xs))

    def test_certificate_cases(self):
        # eps*sqrt(1+R^2) < 1: secant-based pair
        j2 = make_j2(0.1, 1.0)
        t = 0.1 * math.sqrt(2.0)
        assert j2.certificate == (pytest.approx(1.0 - t), pytest.approx(1.0 + t))
        # boundary of the second admissibility range: 4*eps*(1+5/4)^1.5 == 1
        j2b = make_j2(2.0 / 27.0, math.sqrt(18161.0) / 8.0)
        assert j2b.certificate == (1.0, pytest.approx(2.25))

    @pytest.mark.parametrize("eps,R", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0)])
    def test_bad_parameters(self, eps, R):
        with pytest.raises(ParameterError):
            make_j2(eps, R)


class TestRastrigin:
    def test_global_minimum(self):
        r = make_rastrigin(1.0, 1.0, 0.05, 2)
        assert r.value(np.zeros(2)) == 0.0
        assert np.array_equal(r.gradient(np.zeros(2)), np.zeros(2))

    def test_value_at_pi_zero(self):
        r = make_rastrigin(1.0, 1.0, 0.05, 2)
        assert r.value(np.array([math.pi, 0.0])) == pytest.approx(2.0 + 0.05 * math.pi**2, rel=1e-15)

    def test_gradient_at_pi_pi(self):
        r = make_rastrigin(1.0, 1.0, 0.01, 2)
        g = r.gradient(np.array([math.pi, math.pi]))
        assert g == pytest.approx([0.02 * math.pi, 0.02 * math.pi], abs=1e-15)

    def test_no_certificate(self):
        assert make_rastrigin(1.0, 1.0, 0.05, 10).certificate is None

    # (2, 0.5) has a * b == 1 with a != 1; the factory skips factors that are exactly 1.
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5), (3.0, 2.0)])
    def test_bitwise_the_literal_formulas(self, a, b):
        c, dim = 0.05, 3
        r = make_rastrigin(a, b, c, dim)
        rng = np.random.default_rng(5)
        batch = rng.uniform(-6.0, 6.0, size=(4, dim))
        batch[1] = [0.0, -0.0, 2.5]
        for x in (np.array([-0.0, 1.25, 0.0]), rng.uniform(-6.0, 6.0, size=dim), batch):
            value = a * (dim - np.add.reduce(np.cos(b * x), axis=-1)) + c * np.add.reduce(x * x, axis=-1)
            gradient = a * b * np.sin(b * x) + 2.0 * c * x
            assert np.asarray(r.value(x)).tobytes() == np.asarray(value).tobytes()
            assert r.gradient(x).tobytes() == gradient.tobytes()


def _suite():
    return [
        (make_quadratic(1.0, 2), 10.0),
        (make_quadratic(2.5, 3, x_star=[1.0, -2.0, 0.5]), 10.0),
        (make_j1(1, 1), 10.0),
        (make_j1(7, 1), 10.0),
        (make_j1(112, 2), 10.0),
        (make_j2(0.1, 1.0), 10.0),
        (make_j2(2.0 / 27.0, math.sqrt(18161.0) / 8.0), 10.0),
        (make_rastrigin(1.0, 1.0, 0.05, 2), 20.0),
        (make_rastrigin(1.0, 1.0, 0.03, 10), 20.0),
    ]


@pytest.mark.parametrize("objective,box", _suite(), ids=lambda o: getattr(o, "name", str(o)))
def test_gradient_matches_finite_differences(objective, box):
    if not hasattr(objective, "dim"):
        pytest.skip()
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    for _ in range(50):
        x = rng.uniform(-box, box, size=objective.dim)
        analytic = objective.gradient(x)
        fd = central_difference_gradient(objective.value, x)
        err = math.sqrt(float(np.sum((analytic - fd) ** 2)))
        scale = 1.0 + math.sqrt(float(np.sum(analytic * analytic)))
        assert err / scale <= 1e-6


def test_gradient_zero_at_minimizer_everywhere():
    for objective, _ in _suite():
        g = objective.gradient(objective.minimizer)
        assert float(np.max(np.abs(g))) <= 1e-12
        assert objective.value(objective.minimizer) == objective.min_value


def test_certified_sandwich_holds_on_samples():
    # (alpha - beta_hat)/2 * r^2 <= f - f* <= L/2 * r^2 with the grid beta bound
    from gndopt import estimate_beta_quadratic, symmetric_log_grid
    grid = symmetric_log_grid(1e-4, 10.0, 2000)
    rng = np.random.Generator(np.random.Philox(key=np.array([23, 0], dtype=np.uint64)))
    for objective in (make_j1(199, 1), make_j2(0.1, 1.0), make_quadratic(1.3, 1)):
        alpha, big_l = objective.certificate
        beta_hat = estimate_beta_quadratic(objective, alpha, grid)
        xs = rng.uniform(-10.0, 10.0, size=(200, 1))
        xs = xs[np.abs(xs[:, 0]) > 1e-8]
        fv = np.atleast_1d(objective.value(xs))
        r2 = np.sum((xs - objective.minimizer) ** 2, axis=-1)
        assert np.all(fv - objective.min_value >= (alpha - beta_hat) / 2.0 * r2 - 1e-10)
        assert np.all(fv - objective.min_value <= big_l / 2.0 * r2 + 1e-10)
        g = objective.gradient(xs)
        assert np.all(np.sum(g * g, axis=-1) <= big_l**2 * r2 * (1.0 + 1e-12))


class TestFactory:
    def test_roundtrip_names(self):
        assert make_objective("j1", n=7, k=1).name == "j1"
        assert make_objective("quadratic", alpha=2.0, dim=3).dim == 3
        # a*(dim - 2) + c*(2*pi)^2 at x = (2*pi, 0), where both cosines are exactly 1
        rast = make_objective("rastrigin", a=1, b=1, c=0.05, dim=2)
        assert rast.value(np.array([2.0 * math.pi, 0.0])) == pytest.approx(0.05 * 4.0 * math.pi**2)
        # 2R*log(x) = pi/2 at x = exp(pi/4), so the value is (1 + eps)/2 * x^2
        x = math.exp(math.pi / 4.0)
        assert make_objective("j2", eps=0.1, R=1.0).value(np.array([x])) == pytest.approx(
            0.55 * x * x, rel=1e-12)

    @pytest.mark.parametrize("function", list(_FACTORIES))
    def test_table_keys_are_the_factory_parameters_without_default(self, function):
        factory, keys = _FACTORIES[function]
        required = {name: param.annotation
                    for name, param in inspect.signature(factory).parameters.items()
                    if param.default is inspect.Parameter.empty}
        assert required == {key: kind.__name__ for key, kind in keys.items()}

    def test_unknown_function(self):
        with pytest.raises(ParameterError):
            make_objective("ackley")

    def test_missing_keys(self):
        with pytest.raises(ParameterError):
            make_objective("j1", n=7)

    @pytest.mark.parametrize("function,params", [
        ("quadratic", dict(alpha=2.0, dim=1)), ("j1", dict(n=7, k=1)),
        ("j2", dict(eps=0.1, R=1.0)), ("rastrigin", dict(a=1, b=1, c=0.05, dim=1)),
    ])
    def test_x_star_is_an_unknown_key(self, function, params):
        with pytest.raises(ParameterError) as err:
            make_objective(function, x_star=[1.0], **params)
        assert str(err.value) == f"objective {function!r} got unknown keys ['x_star']"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=250))
def test_fourier_partition_identity_property(n):
    c = fourier_sin_coefficients(n)
    assert abs(c[0] + 2.0 * np.sum(c[1:]) - 1.0) <= 1e-12
