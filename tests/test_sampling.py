import math

import numpy as np
import pytest

from gndopt import (GndConfig, ParameterError, RngStream, SgOracle, fill_scaled_gaussian, gd_run,
                    make_quadratic, make_rastrigin, scaled_gaussian_norm_moments, solver)


class TestRngStream:
    def test_same_origin_replays_identically(self):
        a = RngStream(42, 0).normals(32)
        b = RngStream(42, 0).normals(32)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = RngStream(42, 0).normals(32)
        b = RngStream(42, 1).normals(32)
        assert not np.array_equal(a, b)

    def test_block_and_stepwise_draws_agree(self):
        # pregenerating a block consumes the same stream as step-by-step draws
        block = RngStream(3, 5).normals((16, 4))
        step = RngStream(3, 5)
        rows = np.stack([step.normals(4) for _ in range(16)])
        assert np.array_equal(block, rows)

    def test_draw_into_buffer_matches_fresh_draw(self):
        buf = np.full((6, 3), np.nan)
        into = RngStream(7, 2)
        fresh = RngStream(7, 2)
        assert into.normals((6, 3), out=buf) is buf
        assert np.array_equal(buf.view(np.int64), fresh.normals((6, 3)).view(np.int64))
        # the stream resumes where an ordinary draw would have left it
        assert np.array_equal(into.normals(5), fresh.normals(5))

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -2), (2**64, 0)])
    def test_origin_bounds(self, seed, index):
        with pytest.raises(ParameterError):
            RngStream(seed, index)


class TestScaledGaussian:
    def test_consumes_exactly_d_draws(self):
        rng = RngStream(7, 0)
        v = fill_scaled_gaussian(np.empty((1, 1, 3)), [rng], 3)
        reference = RngStream(7, 0)
        raw = reference.normals(3)
        assert np.array_equal(v[0, 0], raw / math.sqrt(3))
        # the next draw continues where the block ended
        assert rng.normals(1) == reference.normals(1)

    def test_batch_shape(self):
        # Each row draws its (span, cols) block from its own stream; the
        # scaling is by d, not by the column count (two noise groups of d).
        out = np.full((3, 5, 4), np.nan)
        assert fill_scaled_gaussian(out, [RngStream(0, i) for i in range(3)], 2) is out
        for i in range(3):
            assert np.array_equal(out[i], RngStream(0, i).normals((5, 4)) / math.sqrt(2))

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            fill_scaled_gaussian(np.empty((1, 1, 1)), [RngStream(0, 0)], 0)

    @pytest.mark.parametrize("rows,streams", [(3, 1), (1, 3)])
    def test_one_stream_per_row(self, rows, streams):
        out = np.full((rows, 2, 1), 7.0)
        with pytest.raises(ParameterError, match=f"{streams} streams, {rows} rows"):
            fill_scaled_gaussian(out, [RngStream(0, i) for i in range(streams)], 2)
        assert np.all(out == 7.0)  # nothing drawn or scaled

    def test_solver_draws_this_law(self):
        # GD's step noise is r*xi from the kernel's block: with eta = r = 1 at
        # x = x* of the quadratic, x_1 = -xi exactly.
        q = make_quadratic(1.0, 3)
        traj = gd_run(q, SgOracle(q, 1.0), np.zeros(3), eta=1.0, T=1, rng=RngStream(4, 2))
        xi = fill_scaled_gaussian(np.empty((1, 1, 3)), [RngStream(4, 2)], 3)[0, 0]
        assert np.array_equal(traj.points[1], -xi)


class TestExactMoments:
    def test_d1(self):
        m1, m2, m3, m4 = scaled_gaussian_norm_moments(1)
        assert m2 == 1.0
        assert m4 == 3.0
        assert m1 == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_d2_gamma_ratio(self):
        m1, _, m3, _ = scaled_gaussian_norm_moments(2)
        assert m1 == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert m3 == pytest.approx(m1 * 1.5, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 10, 100])
    def test_monte_carlo_within_three_se(self, d):
        n = 200_000
        xi = fill_scaled_gaussian(np.empty((1, n, d)), [RngStream(42, d)], d)[0]
        norms = np.sqrt(np.sum(xi * xi, axis=-1))
        exact = scaled_gaussian_norm_moments(d)
        for p in range(1, 5):
            sample = norms**p
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - exact[p - 1]) <= 3.0 * se + 1e-12


def _kernel_gradient_noise(obj, r, x0, seed, rows=1000, steps=100):
    """SG(x_t) - grad f(x_t) of every step of a GD ensemble: the solver's own draws.

    With s = 0 one step is x_{t+1} = x_t - eta*SG(x_t), so the noise r*omega is
    (x_t - eta*grad f(x_t) - x_{t+1}) / eta, up to rounding.
    """
    eta = 0.1
    rec = solver._Recorder(rows, steps, obj.dim)
    solver._run_gnd_batch(obj, np.tile(x0, (rows, 1)), [RngStream(seed, i) for i in range(rows)],
                          rec, eta=eta, s=0.0, f_lb=0.0, r=r, T=steps)
    x, x_next = rec.points[:, :-1], rec.points[:, 1:]
    return ((x - eta * obj.gradient(x) - x_next) / eta).reshape(-1, obj.dim)


class TestSgOracle:
    def test_r_zero_returns_exact_gradient_without_draws(self):
        obj = make_rastrigin(1.0, 1.0, 0.05, 2)
        rng = RngStream(11, 0)
        x = np.array([0.3, -1.2])
        traj = gd_run(obj, SgOracle(obj, 0.0), x, eta=0.1, T=1, rng=rng)
        assert np.array_equal(traj.points[1], x - 0.1 * obj.gradient(x))
        # stream untouched: next draw equals a fresh stream's first draw
        assert np.array_equal(rng.normals(4), RngStream(11, 0).normals(4))

    def test_mean_squared_deviation_is_r_squared(self):
        obj = make_quadratic(1.0, 4)
        noise = _kernel_gradient_noise(obj, 1.0, [1.0, 2.0, -0.5, 0.0], seed=5)
        n = len(noise)
        dev2 = np.sum(noise**2, axis=-1)
        se = dev2.std(ddof=1) / math.sqrt(n)
        assert abs(dev2.mean() - 1.0) <= 3.0 * se

    def test_unbiased_componentwise(self):
        obj = make_quadratic(2.0, 2)
        noise = _kernel_gradient_noise(obj, 1.0, [0.7, -0.4], seed=9)
        n = len(noise)
        # componentwise CLT bound at 3 sigma with variance 1/d per coordinate
        err = np.abs(noise.mean(axis=0))
        assert np.all(err <= 3.0 / math.sqrt(2 * n) + 1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ParameterError):
            SgOracle(make_quadratic(1.0, 1), -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_r_rejected(self, bad):
        with pytest.raises(ParameterError, match="r must be finite"):
            SgOracle(make_quadratic(1.0, 1), bad)
