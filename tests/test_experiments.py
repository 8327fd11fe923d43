import math
import tracemalloc

import numpy as np
import pytest
from conftest import sequential_dlgnd

from gndopt import (DivergedError, DlGndConfig, ExperimentConfig, GndConfig,
                    ParameterError, RngStream, SgOracle, StatsSeries,
                    contraction_check, experiments, gnd_run, make_j1,
                    make_quadratic, make_rastrigin, run_monte_carlo,
                    stopping_time_check, write_csv, write_svg)


def _cfg(objective, algorithm, **kw):
    base = dict(objective=objective, algorithm=algorithm, sg_noise_r=0.0,
                trials=16, init_low=-10.0, init_high=10.0, seed=7, workers=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunMonteCarlo:
    def test_fixed_point_ensemble(self):
        q = make_quadratic(1.0, 2)
        cfg = _cfg(q, GndConfig(eta=0.1, s=0.0, f_lb=0.0, T=5),
                   init_low=0.0, init_high=0.0, trials=8)
        stats = run_monte_carlo(cfg)
        assert np.all(stats.mse == 0.0)
        assert np.all(stats.ncp == 0.0)

    def test_single_trial_at_distance_two(self):
        q = make_quadratic(1.0, 1)
        cfg = _cfg(q, GndConfig(eta=0.1, s=0.0, f_lb=0.0, T=0),
                   init_low=2.0, init_high=2.0, trials=1)
        stats = run_monte_carlo(cfg)
        assert stats.mse[0] == 4.0
        assert stats.ncp[0] == 1.0

    def test_streamed_equals_brute_force_recompute(self):
        j1 = make_j1(7, 1)
        alg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=25)
        cfg = _cfg(j1, alg, trials=12, sg_noise_r=0.3)
        stats, dist2 = run_monte_carlo(cfg, keep_distances=True)
        oracle = SgOracle(j1, 0.3)
        rows = []
        for i in range(cfg.trials):
            rng = RngStream(cfg.seed, i)
            x0 = -10.0 + 20.0 * rng.uniforms(1)
            traj = gnd_run(j1, oracle, x0, alg, rng)
            rows.append(np.sum((traj.points - j1.minimizer) ** 2, axis=-1))
        brute = np.stack(rows)
        assert np.array_equal(brute, dist2)
        assert np.array_equal(brute.mean(axis=0), stats.mse)
        thr2 = cfg.threshold**2
        assert np.array_equal(np.count_nonzero(brute > thr2, axis=0) / cfg.trials, stats.ncp)

    ALGORITHMS = {
        "gnd": GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=40),
        "dlgnd": DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=3, T1=10, T2=5),
    }

    @pytest.mark.parametrize("algo", ["gnd", "dlgnd"])
    @pytest.mark.parametrize("rows", [1, 7, 256, 600])
    def test_row_block_size_does_not_change_output(self, monkeypatch, rows, algo):
        j1 = make_j1(7, 1)
        alg = self.ALGORITHMS[algo]
        reference = run_monte_carlo(_cfg(j1, alg, trials=600))
        monkeypatch.setattr(experiments, "_CHUNK", rows)
        got = run_monte_carlo(_cfg(j1, alg, trials=600))
        assert np.array_equal(reference.mse, got.mse)
        assert np.array_equal(reference.ncp, got.ncp)

    @pytest.mark.parametrize("algo", ["gnd", "dlgnd"])
    @pytest.mark.parametrize("rows", [7, 256])
    def test_streamed_stats_equal_full_matrix_reductions(self, monkeypatch, rows, algo):
        monkeypatch.setattr(experiments, "_CHUNK", rows)
        cfg = _cfg(make_j1(7, 1), self.ALGORITHMS[algo], trials=300)
        stats, dist2 = run_monte_carlo(cfg, keep_distances=True)
        assert np.array_equal(stats.mse, dist2.mean(axis=0))
        thr2 = cfg.threshold**2
        assert np.array_equal(stats.ncp, np.count_nonzero(dist2 > thr2, axis=0) / cfg.trials)
        assert np.any((stats.ncp > 0.0) & (stats.ncp < 1.0))  # hits and misses both occur
        assert np.array_equal(run_monte_carlo(cfg).mse, stats.mse)

    def test_deterministic_gd_ensemble_mse_is_geometric(self):
        q = make_quadratic(1.0, 1)
        cfg = _cfg(q, GndConfig(eta=0.4, s=0.0, f_lb=0.0, T=20), trials=64)
        stats = run_monte_carlo(cfg)
        expected = stats.mse[0] * (1.0 - 0.4) ** (2.0 * np.arange(21))
        assert np.allclose(stats.mse, expected, rtol=1e-12)

    def test_converged_ncp_zero_implies_tiny_mse(self):
        q = make_quadratic(1.0, 1)
        cfg = _cfg(q, GndConfig(eta=0.4, s=0.0, f_lb=0.0, T=80), trials=32)
        stats = run_monte_carlo(cfg)
        assert stats.ncp[-1] == 0.0
        assert stats.mse[-1] <= cfg.threshold**2

    def test_dlgnd_series_length_and_consistency(self):
        j1 = make_j1(7, 1)
        alg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=4, T1=10, T2=5)
        cfg = _cfg(j1, alg, trials=6)
        stats, dist2 = run_monte_carlo(cfg, keep_distances=True)
        assert len(stats.mse) == alg.total_iterations + 1 == 31
        # reconstruct one trial as chained single GND runs: same stream, same
        # box draw; a restart's first point is the previous stage's best point
        rng = RngStream(cfg.seed, 3)
        x0 = -10.0 + 20.0 * rng.uniforms(1)
        _, _, _, stages = sequential_dlgnd(j1, SgOracle(j1, 0.0), x0, alg, rng)
        pieces = [stages[0].points] + [traj.points[1:] for traj in stages[1:]]
        assert np.array_equal(np.sum((np.concatenate(pieces) - j1.minimizer) ** 2, axis=-1),
                              dist2[3])

    def test_dlgnd_divergence_names_trial_and_iteration_of_the_run(self):
        # Each trial doubles |x| per step and restarts outer loop 1 from its x0;
        # trial 3 starts farthest out and fails first, at its half-step 17.
        q = make_quadratic(1.0, 1)
        alg = DlGndConfig(eta=3.0, s=0.0, f_lb0=-1.0, gamma=0.5, N=3, T1=5, T2=30)
        cfg = _cfg(q, alg, trials=4, init_low=1.0, init_high=10.0, seed=1)
        with pytest.raises(DivergedError) as err:
            run_monte_carlo(cfg)
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (
            3, 5 + 17, "half-step value")
        assert str(err.value) == "trajectory diverged at trial 3, iteration 22 (half-step value)"

    def test_diverged_trial_aborts_with_indices(self):
        q = make_quadratic(1.0, 1)
        cfg = _cfg(q, GndConfig(eta=3.0, s=0.0, f_lb=0.0, T=500),
                   init_low=5.0, init_high=10.0, trials=4)
        with pytest.raises(DivergedError) as err:
            run_monte_carlo(cfg)
        assert err.value.trial is not None
        assert err.value.iteration > 0

    def test_validation(self):
        q = make_quadratic(1.0, 1)
        alg = GndConfig(eta=0.1, s=0.0, f_lb=0.0, T=1)
        with pytest.raises(ParameterError):
            _cfg(q, alg, trials=0)
        with pytest.raises(ParameterError):
            _cfg(q, alg, threshold=0.0)
        with pytest.raises(ParameterError):
            _cfg(q, alg, init_low=1.0, init_high=-1.0)

    @pytest.mark.parametrize("field,bad", [
        ("threshold", np.inf), ("threshold", np.nan), ("sg_noise_r", np.nan),
        ("sg_noise_r", np.inf), ("init_low", np.nan), ("init_low", -np.inf),
        ("init_high", np.inf), ("init_high", np.array([np.nan, 1.0])),
    ])
    def test_non_finite_parameters_rejected(self, field, bad):
        q = make_quadratic(1.0, 2)
        alg = GndConfig(eta=0.1, s=0.0, f_lb=0.0, T=1)
        with pytest.raises(ParameterError, match="must be finite"):
            _cfg(q, alg, **{field: bad})


class TestMemory:
    """Peak memory of an ensemble follows the row block, not the trial count."""

    @staticmethod
    def _peak(trials):
        rast = make_rastrigin(1.0, 1.0, 0.05, 10)
        cfg = _cfg(rast, GndConfig(eta=0.05, s=2.0, f_lb=0.0, T=200), trials=trials,
                   init_low=-5.0, init_high=5.0)
        tracemalloc.start()
        try:
            run_monte_carlo(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_trials(self):
        self._peak(20)  # first-call allocations are not part of any run below
        one_block = self._peak(experiments._CHUNK)
        # Two blocks and five blocks: no block may outlive its fold.
        assert self._peak(300) <= one_block * 1.02
        assert self._peak(1200) <= one_block * 1.02


class TestContractionCheck:
    def test_noise_free_quadratic(self):
        q = make_quadratic(1.0, 1)
        rep = contraction_check(q, r=0.0, trials=50, x0=[5.0], T=120, seed=3)
        assert rep.holds
        assert rep.first_violation is None
        assert rep.means[0] == 9.0  # y0 = 5 - 0.4*5 = 3

    def test_noisy_quadratic_respects_floor(self):
        q = make_quadratic(1.0, 1)
        rep = contraction_check(q, r=1.0, trials=200, x0=[5.0], T=200, seed=3)
        assert rep.holds
        assert rep.schedule.b == pytest.approx(0.25, rel=1e-15)
        # long-run mean stays under the slackened asymptote 1.1*100b + 3 SE
        assert rep.means[-1] <= rep.bounds[-1]

    def test_t_zero_trivially_true(self):
        q = make_quadratic(1.0, 1)
        rep = contraction_check(q, r=1.0, trials=10, x0=[5.0], T=0, seed=1)
        assert rep.holds and len(rep.means) == 1

    def test_requires_certificate(self):
        from gndopt import make_rastrigin
        r = make_rastrigin(1.0, 1.0, 0.05, 2)
        with pytest.raises(ParameterError):
            contraction_check(r, r=0.0, trials=5, x0=[1.0, 1.0], T=5, seed=0)


class TestStoppingTimeCheck:
    def test_threshold_above_start_gives_certain_dip(self):
        q = make_quadratic(1.0, 1)
        rep = stopping_time_check(q, r=1.0, ell=1e6, M=3, trials=40, x0=[5.0], seed=2)
        assert rep.empirical_p == 1.0
        assert rep.analytic_bound <= 1.0
        assert rep.B_hat == 0.0

    def test_m_zero_with_low_threshold(self):
        q = make_quadratic(1.0, 1)
        # X0 = (20 - 0.4*20)^2 - 100b = 144 - 25 = 119 >= ell
        rep = stopping_time_check(q, r=1.0, ell=1.0, M=0, trials=40, x0=[20.0], seed=2)
        assert rep.empirical_p == 0.0
        assert rep.analytic_bound <= 0.0
        assert rep.B_hat == pytest.approx(119.0, rel=1e-12)

    def test_empirical_beats_bound_on_contracting_start(self):
        q = make_quadratic(1.0, 1)
        rep = stopping_time_check(q, r=1.0, ell=25.0, M=500, trials=300, x0=[20.0], seed=4)
        assert rep.empirical_p >= rep.analytic_bound - 1e-12

    def test_requires_positive_r(self):
        q = make_quadratic(1.0, 1)
        with pytest.raises(ParameterError):
            stopping_time_check(q, r=0.0, ell=1.0, M=5, trials=5, x0=[5.0], seed=0)

    @pytest.mark.parametrize("field,bad", [("x0", [math.nan]), ("x0", [math.inf]),
                                           ("ell", math.nan), ("ell", math.inf),
                                           ("r", math.inf)])
    def test_non_finite_inputs_rejected(self, field, bad):
        params = dict(r=1.0, ell=1.0, M=5, trials=5, x0=[5.0], seed=0)
        params[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            stopping_time_check(make_quadratic(1.0, 1), **params)


class TestCsvOutput:
    def test_exact_format(self, tmp_path):
        series = StatsSeries(mse=np.array([4.0, 1.0]), ncp=np.array([1.0, 0.0]), trials=1)
        path = tmp_path / "series.csv"
        write_csv(series, path)
        assert path.read_text() == "t,mse,ncp\n0,4,1\n1,1,0\n"

    def test_full_precision_round_trip(self, tmp_path):
        values = np.array([0.1, 2.476e-76, 1.0 / 3.0])
        series = StatsSeries(mse=values, ncp=np.array([1.0, 0.5, 0.0]), trials=2)
        path = tmp_path / "series.csv"
        write_csv(series, path)
        rows = path.read_text().strip().splitlines()[1:]
        parsed = np.array([float(row.split(",")[1]) for row in rows])
        assert np.array_equal(parsed, values)

    def test_empty_path_is_io_error(self):
        series = StatsSeries(mse=np.array([1.0]), ncp=np.array([0.0]), trials=1)
        with pytest.raises(OSError):
            write_csv(series, "")

    def test_rerun_is_byte_identical(self, tmp_path):
        j1 = make_j1(7, 1)
        alg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=30)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_monte_carlo(_cfg(j1, alg, trials=40)), p1)
        write_csv(run_monte_carlo(_cfg(j1, alg, trials=40)), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSvgOutput:
    def test_writes_wellformed_deterministic_svg(self, tmp_path):
        series = StatsSeries(mse=np.array([4.0, 1.0, 0.1]), ncp=np.array([1.0, 0.5, 0.0]), trials=2)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(series, p1)
        write_svg(series, p2)
        text = p1.read_text()
        assert text.startswith("<svg ")
        assert "MSE" in text and "N-CP" in text
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_path_is_io_error(self):
        series = StatsSeries(mse=np.array([1.0]), ncp=np.array([0.0]), trials=1)
        with pytest.raises(OSError):
            write_svg(series, "")
