import gc
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from conftest import sequential_dlgnd

from gndopt import (DivergedError, DlGndConfig, ExperimentConfig, GndConfig,
                    ParameterError, RngStream, SgOracle, StatsSeries,
                    contraction_check, experiments, gnd_run, make_j1,
                    make_quadratic, make_rastrigin, run_monte_carlo, sampling, solver,
                    stopping_time_check, write_csv, write_svg)


def _cfg(objective, algorithm, **kw):
    base = dict(objective=objective, algorithm=algorithm, sg_noise_r=0.0,
                trials=16, init_low=-10.0, init_high=10.0, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def _single_run_distances(cfg):
    """Squared distances to the minimizer, trial by trial, from single-trajectory runs.

    GND trials run through ``gnd_run``, DL-GND trials through the chained
    ``gnd_run`` stages of ``sequential_dlgnd``; a restart's first point is the
    previous stage's best point and takes no iteration.
    """
    obj, alg = cfg.objective, cfg.algorithm
    oracle = SgOracle(obj, cfg.sg_noise_r)
    rows = []
    for i in range(cfg.trials):
        rng = RngStream(cfg.seed, i)
        x0 = cfg.init_low + (cfg.init_high - cfg.init_low) * rng.uniforms(obj.dim)
        if isinstance(alg, GndConfig):
            points = gnd_run(obj, oracle, x0, alg, rng).points
        else:
            stages = sequential_dlgnd(obj, oracle, x0, alg, rng)[3]
            points = np.concatenate([stages[0].points] + [traj.points[1:] for traj in stages[1:]])
        rows.append(np.sum((points - obj.minimizer) ** 2, axis=-1))
    return np.stack(rows)


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

    def test_t_zero_mse_is_the_trial_order_sum(self):
        # With one column, mean(axis=0) adds pairwise; the fold adds row by row.
        cfg = _cfg(make_j1(7, 1), GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=0), trials=500)
        d2 = _single_run_distances(cfg)[:, 0]
        stats = run_monte_carlo(cfg)
        assert stats.mse[0] == np.add.accumulate(d2)[-1] / 500
        assert stats.mse[0] != d2.mean()  # the case tells the two orders apart

    def test_streamed_equals_brute_force_recompute(self):
        j1 = make_j1(7, 1)
        alg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=25)
        cfg = _cfg(j1, alg, trials=12, sg_noise_r=0.3)
        stats = run_monte_carlo(cfg)
        brute = _single_run_distances(cfg)
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
        stats = run_monte_carlo(cfg)
        dist2 = _single_run_distances(cfg)
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
        stats = run_monte_carlo(cfg)
        assert len(stats.mse) == alg.total_iterations + 1 == 31
        # each trial as chained single GND runs on its stream, after its box draw
        dist2 = _single_run_distances(cfg)
        assert np.array_equal(stats.mse, dist2.mean(axis=0))
        thr2 = cfg.threshold**2
        assert np.array_equal(stats.ncp, np.count_nonzero(dist2 > thr2, axis=0) / cfg.trials)

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


@pytest.mark.tracemalloc
class TestMemory:
    """Peak memory of an ensemble follows the row block, not the trial count or T."""

    @staticmethod
    def _peak(trials, algorithm=GndConfig(eta=0.05, s=2.0, f_lb=0.0, T=200), r=0.0):
        rast = make_rastrigin(1.0, 1.0, 0.05, 10)
        cfg = _cfg(rast, algorithm, trials=trials, sg_noise_r=r, init_low=-5.0, init_high=5.0)
        tracemalloc.start()
        try:
            run_monte_carlo(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_trials(self):
        self._peak(20)  # first-call allocations are not part of any run below
        rows = experiments._CHUNK
        one_block = self._peak(rows)
        # Three blocks (the last of one row) and five (the last short): no
        # block may outlive its fold.
        assert self._peak(2 * rows + 1) <= one_block * 1.02
        assert self._peak(5 * rows - 3) <= one_block * 1.02

    # A short run and one with ten times the iterations.  With r > 0 each
    # iteration draws 20 noise columns per row, so 100 GND iterations of one
    # block fill the noise buffer to its cap in both runs; DL-GND adds outer
    # loops, or lengthens stage one (no stage may keep its trajectory).
    LONGER = {
        "gnd": [GndConfig(eta=0.05, s=2.0, f_lb=0.0, T=T) for T in (120, 1200)],
        "dlgnd": [DlGndConfig(eta=0.05, s=2.0, f_lb0=-1.0, gamma=0.5, N=N, T1=100, T2=10)
                  for N in (10, 190)],
        "dlgnd-T1": [DlGndConfig(eta=0.05, s=2.0, f_lb0=-1.0, gamma=0.5, N=10, T1=T1, T2=10)
                     for T1 in (100, 1000)],
    }

    @pytest.mark.parametrize("algo", ["gnd", "dlgnd", "dlgnd-T1"])
    def test_peak_does_not_grow_with_iterations(self, algo):
        assert 8 * experiments._CHUNK * 20 * 100 >= sampling._DRAW_AHEAD_BYTES
        short, long = self.LONGER[algo]
        self._peak(20)  # first-call allocations are not part of any run below
        base = self._peak(experiments._CHUNK, short, r=0.3)
        # Only the per-iteration sums grow with T: no step's distances outlive its fold.
        assert self._peak(experiments._CHUNK, long, r=0.3) <= base * 1.02

    # Shadow ensembles of 256 trials on a 10-d quadratic: with r > 0 each
    # iteration draws 20 noise columns per row, so the noise buffer reaches its
    # cap within 120 iterations in both runs.
    SHADOW = {
        "stopping_time": lambda q, M, trials: stopping_time_check(
            q, r=1.0, ell=25.0, M=M, trials=trials, x0=np.full(10, 5.0), seed=3),
        "contraction": lambda q, M, trials: contraction_check(
            q, r=1.0, trials=trials, x0=np.full(10, 5.0), T=M, seed=3),
    }

    def _shadow_peak(self, check, M, trials=256):
        q = make_quadratic(1.0, 10)
        tracemalloc.start()
        try:
            self.SHADOW[check](q, M, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_shadow_peak_does_not_grow_with_trials(self):
        # 60 iterations of a 512-row block fill the noise buffer to its cap;
        # eight blocks add only the per-trial minimum (8 B a trial).
        rows = experiments._CHUNK
        assert 8 * rows * 20 * 60 >= sampling._DRAW_AHEAD_BYTES

        def peak(trials):
            tracemalloc.start()
            try:
                stopping_time_check(make_quadratic(1.0, 10), r=1.0, ell=25.0, M=60,
                                    trials=trials, x0=np.full(10, 5.0), seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # first-call allocations are not part of any run below
        assert peak(8 * rows) <= peak(rows) * 1.05

    # Each check keeps one running minimum a trial (8 B); contraction_check's
    # first pass keeps its own while the second runs.  They measure 10.3 and
    # 18.3 B a trial, so a second float kept per trial would break either bound.
    @pytest.mark.parametrize("check,most", [("stopping_time", 12.0), ("contraction", 20.0)])
    def test_shadow_peak_per_added_trial(self, check, most):
        rows = experiments._CHUNK

        def peak(trials):
            # A full collection empties the free lists; one that fell inside a
            # run would count their refill there.
            gc.collect()
            return self._shadow_peak(check, 60, trials)

        peak(rows)  # first-call allocations
        base = peak(rows)
        assert (peak(8 * rows) - base) / (7 * rows) <= most

    def test_stopping_time_peak_does_not_grow_with_iterations(self):
        assert 8 * 256 * 20 * 120 >= sampling._DRAW_AHEAD_BYTES
        self._shadow_peak("stopping_time", 5)  # first-call allocations
        base = self._shadow_peak("stopping_time", 120)
        assert self._shadow_peak("stopping_time", 1200) <= base * 1.02

    def test_contraction_peak_does_not_grow_with_iterations(self):
        self._shadow_peak("contraction", 5)  # first-call allocations
        base = self._shadow_peak("contraction", 120)
        assert self._shadow_peak("contraction", 1200) <= base * 1.02


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

    @pytest.mark.parametrize("trials", [1, 2, 500])
    @pytest.mark.parametrize("T", [0, 40])
    def test_bitwise_equal_to_the_distance_matrix(self, trials, T):
        self._equal_to_the_distance_matrix(trials, T)

    # Blocks of 7 rows split 500 trials into 72 kernel calls per pass, the
    # last one short; blocks of 1 make every trial its own call.
    @pytest.mark.parametrize("rows,trials", [(1, 30), (7, 500)])
    @pytest.mark.parametrize("T", [0, 40])
    def test_bitwise_equal_to_the_distance_matrix_in_row_blocks(self, monkeypatch, rows,
                                                                 trials, T):
        monkeypatch.setattr(experiments, "_CHUNK", rows)
        self._equal_to_the_distance_matrix(trials, T)

    @staticmethod
    def _equal_to_the_distance_matrix(trials, T):
        # The quadratic's gradient is elementwise, so the shape it is evaluated
        # on cannot change a bit of y.
        q, r, seed = make_quadratic(1.0, 2), 1.0, 6
        x0 = [5.0, -2.0]
        rep = contraction_check(q, r=r, trials=trials, x0=x0, T=T, seed=seed)
        sched = rep.schedule
        res = solver._Recorder(trials, T, 2)
        rngs = [RngStream(seed, i) for i in range(trials)]
        cfg = GndConfig(eta=sched.eta, s=sched.s, f_lb=q.min_value, T=T)
        deque(solver._run_stages(q, np.tile(x0, (trials, 1)), rngs, res, cfg, r), maxlen=0)
        diff = res.points - sched.eta * q.gradient(res.points) - q.minimizer
        d2 = np.sum(diff * diff, axis=-1)  # (trials, T+1)
        # Sums in trial order; for T >= 1 numpy's two passes add in that order too.
        means = np.add.accumulate(d2)[-1] / trials
        se = np.zeros(T + 1)
        if trials > 1:
            dev = d2 - means
            se = np.sqrt(np.add.accumulate(dev * dev)[-1] / (trials - 1)) / math.sqrt(trials)
            assert not T or np.array_equal(se, d2.std(axis=0, ddof=1) / math.sqrt(trials))
        assert not T or np.array_equal(means, d2.mean(axis=0))
        rho = 1.0 - sched.eta_lam / 100.0
        bounds = 1.1 * (rho ** np.arange(T + 1) * d2[0, 0] + 100.0 * sched.b) + 3.0 * se
        assert np.array_equal(rep.means, means)
        assert np.array_equal(rep.bounds, bounds)
        assert np.array_equal(rep.margins, bounds - means)

    def test_t_zero_trivially_true(self):
        q = make_quadratic(1.0, 1)
        rep = contraction_check(q, r=1.0, trials=10, x0=[5.0], T=0, seed=1)
        assert rep.holds and len(rep.means) == 1

    def test_requires_certificate(self):
        from gndopt import make_rastrigin
        r = make_rastrigin(1.0, 1.0, 0.05, 2)
        with pytest.raises(ParameterError):
            contraction_check(r, r=0.0, trials=5, x0=[1.0, 1.0], T=5, seed=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bad_trial_count_rejected(self, trials):
        with pytest.raises(ParameterError, match="trials must be a positive integer"):
            contraction_check(make_quadratic(1.0, 1), r=1.0, trials=trials, x0=[5.0], T=5, seed=0)


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

    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_block_size_does_not_change_the_report(self, monkeypatch, rows):
        def check():
            return stopping_time_check(make_quadratic(1.0, 2), r=1.0, ell=24.0, M=6, trials=90,
                                       x0=[200.0, -80.0], seed=6)

        reference = check()
        assert 0.0 < reference.empirical_p < 1.0  # some trials dip, some do not
        monkeypatch.setattr(experiments, "_CHUNK", rows)
        assert check() == reference

    def test_requires_positive_r(self):
        q = make_quadratic(1.0, 1)
        with pytest.raises(ParameterError):
            stopping_time_check(q, r=0.0, ell=1.0, M=5, trials=5, x0=[5.0], seed=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bad_trial_count_rejected(self, trials):
        with pytest.raises(ParameterError, match="trials must be a positive integer"):
            stopping_time_check(make_quadratic(1.0, 1), r=1.0, ell=25.0, M=5, trials=trials,
                                x0=[5.0], seed=0)

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
        series = StatsSeries(mse=np.array([4.0, 1.0]), ncp=np.array([1.0, 0.0]))
        path = tmp_path / "series.csv"
        write_csv(series, path)
        assert path.read_text() == "t,mse,ncp\n0,4,1\n1,1,0\n"

    def test_full_precision_round_trip(self, tmp_path):
        values = np.array([0.1, 2.476e-76, 1.0 / 3.0])
        series = StatsSeries(mse=values, ncp=np.array([1.0, 0.5, 0.0]))
        path = tmp_path / "series.csv"
        write_csv(series, path)
        rows = path.read_text().strip().splitlines()[1:]
        parsed = np.array([float(row.split(",")[1]) for row in rows])
        assert np.array_equal(parsed, values)

    def test_empty_path_is_io_error(self):
        series = StatsSeries(mse=np.array([1.0]), ncp=np.array([0.0]))
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
        series = StatsSeries(mse=np.array([4.0, 1.0, 0.1]), ncp=np.array([1.0, 0.5, 0.0]))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(series, p1)
        write_svg(series, p2)
        text = p1.read_text()
        assert text.startswith("<svg ")
        assert "MSE" in text and "N-CP" in text
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_path_is_io_error(self):
        series = StatsSeries(mse=np.array([1.0]), ncp=np.array([0.0]))
        with pytest.raises(OSError):
            write_svg(series, "")
