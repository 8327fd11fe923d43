import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import sequential_dlgnd, stacked_dlgnd
from hypothesis import strategies as st

from gndopt import (DivergedError, DlGndConfig, ExperimentConfig, GndConfig,
                    ParameterError, RngStream, SgOracle, contraction_check, dlgnd_run,
                    experiments, gd_run, gnd_run, gnd_schedule, j1_stationary_points, make_j1,
                    make_quadratic, make_rastrigin, run_monte_carlo, sampling, solver,
                    stopping_time_check)
from gndopt.cli import main
from gndopt.experiments import _Fold
from gndopt.solver import GUARD_LIMIT, _Recorder, _run_stages

DATA = Path(__file__).parent / "data"


def _run_batch(objective, r, x0s, cfg, rngs, observer, trial_base=None):
    """The kernel run to its end on ``cfg``'s stages."""
    deque(_run_stages(objective, x0s, rngs, observer, cfg, r, trial_base=trial_base), maxlen=0)


class TestSigma:
    """sigma_t = sqrt(eta * s * max(f(x_{t+1/2}) - f_lb, 0)) as the kernel forms it."""

    def test_kernel_formula_bitwise(self):
        rast = make_rastrigin(1.0, 1.0, 0.05, 3)
        cfg = GndConfig(eta=0.05, s=2.0, f_lb=2.0, T=80)
        traj = gnd_run(rast, SgOracle(rast, 0.3), [4.0, -3.0, 2.5], cfg, RngStream(8, 1))
        # eta * s is formed first, as in the kernel.
        want = np.sqrt(cfg.eta * cfg.s * np.maximum(traj.half_values - cfg.f_lb, 0.0))
        assert traj.sigmas.tobytes() == want.tobytes()
        assert np.any(traj.sigmas == 0.0) and np.any(traj.sigmas > 0.0)

    def test_zero_gap(self):
        # From the minimizer without oracle noise every half-step value is f_lb.
        q = make_quadratic(1.0, 2)
        cfg = GndConfig(eta=0.4, s=3.0, f_lb=q.min_value, T=5)
        traj = gnd_run(q, SgOracle(q, 0.0), q.minimizer, cfg, RngStream(0, 0))
        assert np.all(traj.half_values == cfg.f_lb)
        assert np.all(traj.sigmas == 0.0)
        assert np.all(traj.points == q.minimizer)

    def test_clamped_gap_runs_as_gd(self):
        # f_lb lies above every half-step value, so the gap is clamped to 0.
        q = make_quadratic(1.0, 1)
        cfg = GndConfig(eta=0.4, s=0.5, f_lb=10.0, T=20)
        traj = gnd_run(q, SgOracle(q, 0.0), [3.0], cfg, RngStream(5, 0))
        assert np.all(traj.half_values < cfg.f_lb)
        assert np.all(traj.sigmas == 0.0)
        gd = gd_run(q, SgOracle(q, 0.0), [3.0], cfg.eta, cfg.T, RngStream(5, 0))
        assert np.array_equal(traj.points, gd.points)


class TestGndRun:
    def test_reduces_to_gd_on_quadratic(self):
        q = make_quadratic(1.0, 1)
        cfg = GndConfig(eta=0.4, s=0.0, f_lb=0.0, T=3)
        traj = gnd_run(q, SgOracle(q, 0.0), [1.0], cfg, RngStream(0, 0))
        assert traj.points.ravel() == pytest.approx([1.0, 0.6, 0.36, 0.216], rel=1e-15)
        assert traj.t_star == 3
        assert np.all(traj.sigmas == 0.0)

    def test_zero_iterations(self):
        q = make_quadratic(1.0, 2)
        traj = gnd_run(q, SgOracle(q, 0.0), [2.0, -1.0], GndConfig(0.4, 0.5, 0.0, 0), RngStream(0, 0))
        assert traj.points.shape == (1, 2)
        assert traj.t_star == 0
        assert traj.sigmas.shape == (0,)

    def test_values_match_objective_at_points(self):
        j1 = make_j1(7, 1)
        cfg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=25)
        traj = gnd_run(j1, SgOracle(j1, 0.0), [6.0], cfg, RngStream(4, 0))
        recomputed = np.array([j1.value(p) for p in traj.points])
        assert np.array_equal(recomputed, traj.values)

    def test_t_star_is_first_minimum(self):
        j1 = make_j1(7, 1)
        cfg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=40)
        traj = gnd_run(j1, SgOracle(j1, 0.0), [8.0], cfg, RngStream(12, 3))
        best = traj.values.min()
        assert traj.values[traj.t_star] == best
        assert not np.any(traj.values[: traj.t_star] == best)

    def test_sigma_zero_iff_half_value_below_lower_bound(self):
        j1 = make_j1(7, 1)
        cfg = GndConfig(eta=0.4, s=0.5, f_lb=1.0, T=60)
        traj = gnd_run(j1, SgOracle(j1, 0.0), [8.0], cfg, RngStream(2, 0))
        below = traj.half_values <= cfg.f_lb
        assert np.any(below) and np.any(~below)  # exercises both branches
        assert np.all(traj.sigmas[below] == 0.0)
        assert np.all(traj.sigmas[~below] > 0.0)

    def test_golden_trajectory_regenerates_bit_identically(self):
        j1 = make_j1(7, 1)
        cfg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=50)
        traj = gnd_run(j1, SgOracle(j1, 0.0), [8.0], cfg, RngStream(1, 0))
        lines = ["t,x,value,sigma"]
        for t in range(51):
            sig = repr(float(traj.sigmas[t])) if t < 50 else ""
            lines.append(f"{t},{float(traj.points[t, 0])!r},{float(traj.values[t])!r},{sig}")
        regenerated = "\n".join(lines) + "\n"
        assert regenerated == (DATA / "golden_gnd_j1_7_1.csv").read_text()

    def test_divergence_guard_reports_iteration(self):
        q = make_quadratic(1.0, 1)
        cfg = GndConfig(eta=3.0, s=0.0, f_lb=0.0, T=200)  # |1 - eta| = 2: geometric blowup
        with pytest.raises(DivergedError) as err:
            gnd_run(q, SgOracle(q, 0.0), [10.0], cfg, RngStream(0, 0))
        assert 0 < err.value.iteration <= 200

    def test_wrong_x0_shape(self):
        q = make_quadratic(1.0, 2)
        with pytest.raises(ParameterError):
            gnd_run(q, SgOracle(q, 0.0), [1.0], GndConfig(0.4, 0.0, 0.0, 1), RngStream(0, 0))


class TestGdRun:
    def test_single_step(self):
        q = make_quadratic(1.0, 1)
        traj = gd_run(q, SgOracle(q, 0.0), [1.0], eta=0.4, T=1, rng=RngStream(0, 0))
        assert traj.points[1, 0] == pytest.approx(0.6, rel=1e-16)

    def test_bitwise_equal_to_gnd_with_zero_s(self):
        j1 = make_j1(7, 1)
        rng_params = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
        for trial in range(10):
            eta = float(rng_params.uniform(0.05, 0.5))
            r = float(rng_params.choice([0.0, 0.3, 1.0]))
            x0 = float(rng_params.uniform(-9, 9))
            T = int(rng_params.integers(1, 60))
            oracle = SgOracle(j1, r)
            a = gd_run(j1, oracle, [x0], eta, T, RngStream(100, trial))
            b = gnd_run(j1, oracle, [x0], GndConfig(eta, 0.0, 0.0, T), RngStream(100, trial))
            assert np.array_equal(a.points, b.points)
            assert a.t_star == b.t_star

    def test_trapped_at_local_minimum(self):
        # the first local minimum of j1(7,1) sits at pi - arcsin((1/2)^(1/14));
        # eta=0.2 keeps the GD map contracting there (|1 - eta*f''| < 1)
        j1 = make_j1(7, 1)
        x_min = math.pi - math.asin(0.5 ** (1.0 / 14.0))
        traj = gd_run(j1, SgOracle(j1, 0.0), [x_min + 0.05], eta=0.2, T=100, rng=RngStream(0, 0))
        assert abs(traj.points[-1, 0] - x_min) <= 1e-6
        assert abs(traj.points[-1, 0]) > 1.0  # trapped far from the global minimizer
        assert j1.value(traj.points[-1]) > 0.0

    def test_stationary_points_include_the_trap(self):
        pts = j1_stationary_points(7, 1, 1)
        x_min = math.pi - math.asin(0.5 ** (1.0 / 14.0))
        assert any(abs(p - x_min) < 1e-12 for p in pts)


class _Both:
    """An observer that passes each step to several observers, in order."""

    def __init__(self, *observers):
        self.observers = observers

    def step(self, *args):
        for observer in self.observers:
            observer.step(*args)


def _added_in_row_order(rows):
    """Rows summed one at a time, first row first: the order ``mean(axis=0)`` adds them."""
    total = np.zeros(len(rows[0]))
    for row in rows:
        total += row
    return total


class TestEnsembleKernel:
    def test_rows_match_single_runs_bitwise(self):
        j1 = make_j1(7, 1)
        oracle = SgOracle(j1, 0.5)
        cfg = GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=30)
        x0s = np.array([[8.0], [-4.0], [2.5], [0.1]])
        rngs = [RngStream(21, i) for i in range(4)]
        res = _Recorder(4, cfg.T, 1)
        _run_batch(j1, oracle.r, x0s, cfg, rngs, res)
        for i in range(4):
            single = gnd_run(j1, oracle, x0s[i], cfg, RngStream(21, i))
            assert np.array_equal(res.points[i], single.points)
            assert np.array_equal(res.values[i], single.values)
            assert np.array_equal(res.sigmas[i], single.sigmas)
            assert np.array_equal(res.half_values[i], single.half_values)
            assert np.argmin(res.values[i]) == single.t_star

    def test_divergence_reports_trial_and_iteration(self):
        q = make_quadratic(1.0, 1)
        cfg = GndConfig(eta=3.0, s=0.0, f_lb=0.0, T=300)
        x0s = np.array([[1e-9], [10.0]])  # second row blows up first
        with pytest.raises(DivergedError) as err:
            _run_batch(q, 0.0, x0s, cfg, [RngStream(0, 0), RngStream(0, 1)],
                       _Fold(q.minimizer, 1.0, cfg.T + 1), trial_base=40)
        assert err.value.trial == 41


class TestWorkPerRow:
    """Objective rows and draws of a run, counted, against the package's ``work(m, d, r)``.

    Per trajectory: one stream and its d init uniforms; per stage of T
    iterations, 2T+1 value rows (f(x_0), then f(x_{t+1/2}) and f(x_{t+1})), T
    gradient rows and T*cols normals: d columns for the gradient noise when
    r > 0 and d for the injected noise when s > 0.  The formula is written out
    here too, so the test does not read the code it checks.  The value rows of
    a row block come in T+1 calls per stage: [x_t; x_{t+1/2}] for t < T, then x_T.
    """

    GND = GndConfig(eta=0.05, s=2.0, f_lb=0.0, T=7)
    GD = GndConfig(eta=0.05, s=0.0, f_lb=0.0, T=7)
    DLGND = DlGndConfig(eta=0.1, s=0.5, f_lb0=-1.0, gamma=0.5, N=3, T1=4, T2=2)

    @staticmethod
    def _counted(monkeypatch, objective):
        """``objective`` with its rows and value calls counted, and the counts, draws included."""
        counts = dict.fromkeys(["value", "gradient", "normals", "uniforms", "streams",
                                "value calls"], 0)

        def counting(name, fn, amount):
            def counted(*args, **kwargs):
                counts[name] += amount(*args)
                return fn(*args, **kwargs)
            return counted

        rows = lambda x: len(x) if np.ndim(x) == 2 else 1
        draws = lambda rng, shape: int(np.prod(shape))
        value = counting("value calls", counting("value", objective.value, rows), lambda _: 1)
        obj = dataclasses.replace(objective, value=value,
                                  gradient=counting("gradient", objective.gradient, rows))
        monkeypatch.setattr(RngStream, "normals", counting("normals", RngStream.normals, draws))
        monkeypatch.setattr(RngStream, "uniforms",
                            counting("uniforms", RngStream.uniforms, draws))
        monkeypatch.setattr(RngStream, "__init__",
                            counting("streams", RngStream.__init__, lambda *_: 1))
        monkeypatch.setattr(experiments, "_CHUNK", 4)  # two row blocks
        return obj, counts

    @pytest.mark.parametrize("algorithm, r, trials", [(GND, 0.3, 6), (DLGND, 0.0, 6),
                                                      (DLGND, 0.0, None), (GD, 0.0, 6)],
                             ids=["gnd-ensemble", "dlgnd-ensemble", "dlgnd_run", "gd"])
    def test_counts_equal_derived_counts(self, monkeypatch, algorithm, r, trials):
        obj, counts = self._counted(monkeypatch, make_rastrigin(1.0, 1.0, 0.05, 3))
        if trials is None:  # as the benchmark's dlgnd-single workload draws its start
            rng = RngStream(3, 0)
            dlgnd_run(obj, SgOracle(obj, r), -2.0 + 4.0 * rng.uniforms(obj.dim), algorithm, rng)
        else:
            run_monte_carlo(ExperimentConfig(obj, algorithm, r, trials, -2.0, 2.0, seed=3))
        m, d = trials or 1, obj.dim
        stages = ((algorithm.T,) if isinstance(algorithm, GndConfig)
                  else (algorithm.T1,) + (algorithm.T2,) * algorithm.N)
        cols = d * ((r > 0) + (algorithm.s > 0))
        blocks = 1 if trials is None else -(-trials // experiments._CHUNK)
        assert counts.pop("value calls") == blocks * sum(T + 1 for T in stages)
        assert counts == {"value": m * sum(2 * T + 1 for T in stages),
                          "gradient": m * sum(stages), "normals": m * sum(stages) * cols,
                          "uniforms": m * d, "streams": m}
        assert counts == algorithm.work(m, d, r)

    # A shadow pass of M iterations is a GND run of M+1 from the given x0, so it
    # draws no uniforms; contraction_check makes a second pass over the same streams.
    @pytest.mark.parametrize("check, passes", [
        (lambda q, M, m: stopping_time_check(q, r=1.0, ell=25.0, M=M, trials=m,
                                             x0=np.full(3, 5.0), seed=3), 1),
        (lambda q, M, m: contraction_check(q, r=1.0, trials=m, x0=np.full(3, 5.0), T=M,
                                           seed=3), 2),
    ], ids=["stopping_time_check", "contraction_check"])
    def test_shadow_pass_counts_equal_a_gnd_run_of_one_more_iteration(self, monkeypatch,
                                                                      check, passes):
        m, M, d, r = 6, 10, 3, 1.0
        q = make_quadratic(1.0, d)
        obj, counts = self._counted(monkeypatch, q)
        check(obj, M, m)
        # per pass: two row blocks of M+2 value calls each
        assert counts.pop("value calls") == passes * 2 * (M + 2)
        # per pass: m(2(M+1)+1) value rows, m(M+1) gradient rows, m(M+1)*2d normals
        one_pass = {"value": 138, "gradient": 66, "normals": 396, "uniforms": 0, "streams": 6}
        assert counts == {key: passes * n for key, n in one_pass.items()}
        sched = gnd_schedule(*q.certificate, r, 0.0)
        work = GndConfig(sched.eta, sched.s, q.min_value, T=M + 1).work(m, d, r)
        assert counts == {key: passes * (0 if key == "uniforms" else n) for key, n in work.items()}

    @pytest.mark.parametrize("algorithm, m, d, want", [
        # j1-gnd: bench j1-112-2 --T 300
        (GndConfig(eta=0.1, s=0.2, f_lb=0.0, T=300), 2000, 1,
         (1_202_000, 600_000, 600_000, 2_000, 2_000)),
        # rast10d-gnd: bench rast10d-c05 --T 1000
        (GndConfig(eta=1.5, s=1.5, f_lb=0.0, T=1000), 2000, 10,
         (4_002_000, 2_000_000, 20_000_000, 20_000, 2_000)),
        # dlgnd-single: ten dlgnd_run calls on the criterion-7 config
        (DlGndConfig(eta=1.5, s=3.0, f_lb0=-20.0, gamma=0.03, N=490, T1=100, T2=10), 10, 2,
         (104_910, 50_000, 100_000, 20, 10)),
    ], ids=["j1-gnd", "rast10d-gnd", "dlgnd-single"])
    def test_benchmark_workloads(self, algorithm, m, d, want):
        """The counts a traced benchmark run measures, one workload per case."""
        assert algorithm.work(m, d, 0.0) == dict(
            zip(["value", "gradient", "normals", "uniforms", "streams"], want))


def _poisoned(objective, kind, call, bad, m=5):
    """``objective`` whose ``kind`` evaluation ``call`` (0-based) returns ``bad`` in rows 3 and up.

    Evaluations are counted in groups of m rows, one group per point of the
    batch's m trajectories, however the kernel stacks the groups into calls.
    Value groups come in the kernel's order: f(x_0), then per iteration t the
    half-step value f(x_{t+1/2}) and f(x_{t+1}); gradient group t is grad f(x_t).
    """
    groups = [0]
    clean = getattr(objective, kind)

    def fn(x):
        out = np.array(clean(x), dtype=np.float64)
        for start in range(0, len(out), m):
            if groups[0] == call:
                out[start + 3:start + m] = bad
            groups[0] += 1
        return out

    return dataclasses.replace(objective, **{kind: fn})


class TestDivergenceGuard:
    @pytest.mark.parametrize("kind, call, bad, iteration, quantity", [
        ("value", 10, np.nan, 5, "value"),
        ("value", 7, np.inf, 3, "half-step value"),
        ("value", 0, -2.0 * GUARD_LIMIT, 0, "value"),
        ("gradient", 4, [1.0, -np.inf], 4, "gradient"),
        # finite components below GUARD_LIMIT, squared row norm 1.62 * GUARD_LIMIT**2
        ("gradient", 2, [0.9 * GUARD_LIMIT, -0.9 * GUARD_LIMIT], 2, "gradient"),
        # a finite component whose square overflows
        ("gradient", 3, [1.0, 1e200], 3, "gradient"),
    ])
    def test_names_first_failing_row_iteration_and_quantity(self, kind, call, bad, iteration,
                                                            quantity):
        q = _poisoned(make_quadratic(1.0, 2), kind, call, bad)
        cfg = GndConfig(eta=0.1, s=0.5, f_lb=0.0, T=10)
        x0s = np.full((5, 2), 2.0)
        rngs = [RngStream(0, i) for i in range(5)]
        fold = _Fold(q.minimizer, 1e-6, cfg.T + 1)
        with pytest.raises(DivergedError) as err:
            _run_batch(q, 0.3, x0s, cfg, rngs, fold, trial_base=40)
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (43, iteration, quantity)
        assert str(err.value) == f"trajectory diverged at trial 43, iteration {iteration} ({quantity})"

    # Poisoned at one iteration, f(x_t) is reported before grad f(x_t), and
    # grad f(x_t) before f(x_{t+1/2}), which is formed from it.
    @pytest.mark.parametrize("value_group, bad_gradient, quantity", [
        (8, [np.nan, 0.0], "value"),  # f(x_4)
        (8, [1.0, 1e200], "value"),
        (9, [1.0, 1e200], "gradient"),  # f(x_{4+1/2})
    ])
    def test_value_gradient_and_half_step_value_are_reported_in_order(
            self, value_group, bad_gradient, quantity):
        q = _poisoned(_poisoned(make_quadratic(1.0, 2), "value", value_group, np.nan),
                      "gradient", 4, bad_gradient)
        cfg = GndConfig(eta=0.1, s=0.5, f_lb=0.0, T=10)
        rngs = [RngStream(0, i) for i in range(5)]
        fold = _Fold(q.minimizer, 1e-6, cfg.T + 1)
        with pytest.raises(DivergedError) as err:
            _run_batch(q, 0.3, np.full((5, 2), 2.0), cfg, rngs, fold, trial_base=40)
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (43, 4, quantity)

    # Each block fails the one-dot-product screen (or is too large for it), and the
    # exact row scan passes it.
    @pytest.mark.parametrize("check, block", [
        (solver._check_values, np.full(5, 0.9 * GUARD_LIMIT)),
        (solver._check_values, np.array([1.0, GUARD_LIMIT, -GUARD_LIMIT])),
        (solver._check_gradients, np.full((5, 2), 0.5 * GUARD_LIMIT)),  # row norm^2 0.5*LIMIT^2
        (solver._check_gradients, np.array([[GUARD_LIMIT, 0.0], [0.0, -GUARD_LIMIT]])),
        (solver._check_gradients, np.full((512, 40), 1e3)),
    ])
    def test_legal_block_that_fails_the_screen_passes(self, check, block):
        check(block, 4, 40)

    @pytest.mark.parametrize("check, block, trial, quantity", [
        (solver._check_values, np.array([1.0, np.nextafter(GUARD_LIMIT, np.inf)]), 41, "value"),
        (solver._check_values, np.array([1.0, 2.0, -1e200]), 42, "value"),
        (solver._check_gradients, np.array([[1.0, 1e200]]), 40, "gradient"),
        (solver._check_gradients, np.array([[1.0, 2.0], [np.inf, 0.0], [np.nan, 0.0]]), 41,
         "gradient"),
        (solver._check_gradients, np.where(np.arange(512)[:, None] >= 300, np.nan, np.ones(40)),
         340, "gradient"),
    ])
    def test_failing_block_names_its_first_row_without_a_warning(self, check, block, trial,
                                                                 quantity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedError) as err:
                check(block, 4, 40)
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (trial, 4, quantity)

    def test_screen_dots_at_most_10000_elements(self, monkeypatch):
        sizes = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: sizes.append(a.size) or vdot(a, b))
        solver._check_gradients(np.ones((512, 40)), 0, None)
        solver._check_gradients(np.ones((512, 10)), 0, None)
        solver._check_values(np.ones(512), 0, None)
        assert sizes == [5120, 512]

    # The shadow path of M iterations runs M+1 kernel iterations, the last for
    # grad f(x_M), which the fold reads from the kernel: gradient call t is grad f(x_t),
    # and value call 2M+1 is the extra iteration's f(x_{M+1/2}).
    @pytest.mark.parametrize("kind, call, M, quantity", [
        ("gradient", 4, 4, "gradient"),  # at x_M
        ("gradient", 0, 0, "gradient"),  # at x_0 of a check with M = 0
        ("value", 0, 0, "value"),  # f(x_0) is guarded before its gradient
        ("value", 9, 4, "half-step value"),  # f(x_{M+1/2})
    ])
    def test_shadow_path_names_trial_iteration_and_quantity(self, kind, call, M, quantity):
        q = _poisoned(make_quadratic(1.0, 1), kind, call, np.nan)
        with pytest.raises(DivergedError) as err:
            stopping_time_check(q, r=1.0, ell=25.0, M=M, trials=5, x0=[5.0], seed=0)
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (3, M, quantity)


class TestNoiseBlockInvariance:
    """The pre-scaled noise block yields the same streams for any refill span."""

    T = 1100
    TRIALS = 12
    COLS = 20  # r > 0 and s > 0 at d = 10: both noise column groups drawn

    def _runs(self, monkeypatch, span):
        """One trajectory and one ensemble, each drawing ``span`` iterations ahead."""
        rast = make_rastrigin(1.0, 1.0, 0.05, 10)
        oracle = SgOracle(rast, 0.3)
        cfg = GndConfig(eta=0.05, s=2.0, f_lb=0.0, T=self.T)
        monkeypatch.setattr(sampling, "_DRAW_AHEAD_BYTES", 8 * self.COLS * span)
        traj = gnd_run(rast, oracle, np.linspace(-4.0, 4.0, 10), cfg, RngStream(6, 2))
        monkeypatch.setattr(sampling, "_DRAW_AHEAD_BYTES", 8 * self.TRIALS * self.COLS * span)
        stats = run_monte_carlo(ExperimentConfig(
            objective=rast, algorithm=cfg, sg_noise_r=0.3, trials=self.TRIALS,
            init_low=-5.0, init_high=5.0, seed=9))
        return traj, stats

    @pytest.mark.parametrize("span", [1, 3, T])
    def test_span_does_not_change_output(self, monkeypatch, span):
        ref_traj, ref_stats = self._runs(monkeypatch, 1024)  # one refill at t = 1024
        traj, stats = self._runs(monkeypatch, span)
        for name in ("points", "values", "sigmas", "half_values"):
            assert np.array_equal(getattr(traj, name), getattr(ref_traj, name))
        assert traj.t_star == ref_traj.t_star
        assert np.array_equal(stats.mse, ref_stats.mse)
        assert np.array_equal(stats.ncp, ref_stats.ncp)

    @pytest.mark.parametrize("budget,spans", [
        (8 * 4 * 2 * 3, [3, 3, 3, 1]),  # three iterations of 4 rows x 2 columns
        (8 * 4 * 2 * 3 + 63, [3, 3, 3, 1]),  # a budget between spans rounds down
        (1, [1] * 10),  # below one iteration: one iteration per refill
        (2**40, [10]),  # never more than the run
    ])
    def test_span_follows_byte_budget(self, monkeypatch, budget, spans):
        q = make_quadratic(1.0, 1)
        calls = []
        real = RngStream.normals

        def counted(rng, shape, out=None):
            calls.append(shape)
            return real(rng, shape, out=out)

        monkeypatch.setattr(sampling, "_DRAW_AHEAD_BYTES", budget)
        monkeypatch.setattr(RngStream, "normals", counted)
        # One block per run: DL-GND's 4 + 3 + 3 iterations refill as GND's 10 do.
        for cfg in (GndConfig(eta=0.1, s=0.5, f_lb=0.0, T=10),
                    DlGndConfig(eta=0.1, s=0.5, f_lb0=0.0, gamma=0.5, N=2, T1=4, T2=3)):
            calls.clear()
            _run_batch(q, 0.5, np.ones((4, 1)), cfg, [RngStream(1, i) for i in range(4)],
                       _Fold(q.minimizer, 1.0, 11))
            assert calls == [(span, 2) for span in spans for _ in range(4)]
        # `gndopt moments` draws one row of d columns per draw: at d = 8 the
        # same budget gives the same spans as 4 rows x 2 columns.
        calls.clear()
        assert main(["moments", "--d", "8", "--draws", "10", "--seed", "3"]) == 0
        assert calls == [(span, 8) for span in spans]

    @pytest.mark.tracemalloc
    def test_noise_buffer_stays_within_budget(self):
        # m = 256 rows x 20 columns x 300 iterations would be 12.3 MB in one block.
        rast = make_rastrigin(1.0, 1.0, 0.05, 10)
        x0 = np.linspace(-4.0, 4.0, 2560).reshape(256, 10)

        def peak(r, s, traced=True):
            cfg = GndConfig(eta=0.05, s=s, f_lb=0.0, T=300)
            rngs = [RngStream(3, i) for i in range(256)]
            fold = _Fold(rast.minimizer, 1.0, cfg.T + 1)
            if traced:
                tracemalloc.start()
            try:
                _run_batch(rast, r, x0, cfg, rngs, fold)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # First-call allocations are not part of either measured run below.
        peak(0.3, 2.0, traced=False)
        peak(0.0, 0.0, traced=False)
        # Against the same run without noise columns; the rest is the noisy
        # step's (256, 10) temporaries (each refill draws into the buffer).
        noise = peak(0.3, 2.0) - peak(0.0, 0.0)
        one_iteration = 8 * 256 * 20
        assert 0 < noise <= sampling._DRAW_AHEAD_BYTES + 2 * one_iteration

    def test_distances_do_not_depend_on_recorded_arrays(self):
        rast = make_rastrigin(1.0, 1.0, 0.05, 10)
        oracle = SgOracle(rast, 0.3)
        cfg = GndConfig(eta=0.05, s=2.0, f_lb=0.0, T=60)
        x0s = np.linspace(-4.0, 4.0, 50).reshape(5, 10)
        thr2 = 10.0  # some rows end within it, some beyond

        def folded(rows, *others):
            fold = _Fold(rast.minimizer, thr2, cfg.T + 1)
            _run_batch(rast, oracle.r, x0s[rows], cfg, [RngStream(4, i) for i in rows],
                       _Both(fold, *others))
            return fold

        full = _Recorder(5, cfg.T, 10)
        full_fold, bare_fold = folded(range(5), full), folded(range(5))
        assert np.array_equal(full_fold.total, bare_fold.total)
        assert np.array_equal(full_fold.misses, bare_fold.misses)
        dist2 = np.sum(full.points**2, axis=-1)
        assert np.array_equal(full_fold.total, _added_in_row_order(dist2))
        assert np.array_equal(full_fold.misses, np.count_nonzero(dist2 > thr2, axis=0))
        assert np.any((full_fold.misses > 0) & (full_fold.misses < 5))
        singles = [folded([i]) for i in range(5)]
        assert np.array_equal(full_fold.total, _added_in_row_order([f.total for f in singles]))
        assert np.array_equal(full_fold.misses, sum(f.misses for f in singles))


class TestDlGnd:
    def test_lower_bound_recurrence_exact(self):
        q = make_quadratic(1.0, 1)
        cfg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-20.0, gamma=0.3, N=6, T1=5, T2=3)
        trace = dlgnd_run(q, SgOracle(q, 0.0), [5.0], cfg, RngStream(14, 0))
        for nu in range(cfg.N):
            expected = (1.0 - cfg.gamma) * trace.lb_history[nu] + cfg.gamma * trace.min_values[nu]
            assert trace.lb_history[nu + 1] == expected

    def test_convex_combination_values(self):
        # f_lb=-20, gamma=0.3, f(x_min)=2 -> -13.4; gamma=0.999, f_lb=-1, f=0 -> -0.001
        assert (1 - 0.3) * -20.0 + 0.3 * 2.0 == pytest.approx(-13.4, abs=1e-14)
        assert (1 - 0.999) * -1.0 + 0.999 * 0.0 == pytest.approx(-0.001, rel=1e-12)

    def test_min_values_non_increasing(self):
        j1 = make_j1(7, 1)
        cfg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=20, T1=10, T2=5)
        trace = dlgnd_run(j1, SgOracle(j1, 0.0), [8.0], cfg, RngStream(3, 0))
        assert np.all(np.diff(trace.min_values) <= 0.0)

    def test_lb_moves_between_previous_lb_and_min_value(self):
        j1 = make_j1(7, 1)
        cfg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-2.0, gamma=0.25, N=15, T1=10, T2=5)
        trace = dlgnd_run(j1, SgOracle(j1, 0.0), [6.0], cfg, RngStream(5, 0))
        for nu in range(cfg.N):
            if trace.min_values[nu] >= trace.lb_history[nu]:
                assert trace.lb_history[nu] <= trace.lb_history[nu + 1] <= trace.min_values[nu]

    def test_trace_shapes_and_restarts_from_best_point(self):
        q = make_quadratic(1.0, 2)
        oracle = SgOracle(q, 0.0)
        cfg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=4, T1=6, T2=2)
        trace = dlgnd_run(q, oracle, [3.0, -2.0], cfg, RngStream(1, 0))
        assert trace.lb_history.shape == trace.min_values.shape == (5,)
        assert trace.min_points.shape == (5, 2)
        # the chained single runs restart each stage from the previous best point
        _, mins, _, stages = sequential_dlgnd(q, oracle, np.array([3.0, -2.0]), cfg,
                                              RngStream(1, 0))
        assert [traj.points.shape for traj in stages] == [(7, 2)] + [(3, 2)] * 4
        for nu in range(1, 5):
            assert np.array_equal(stages[nu].points[0], trace.min_points[nu - 1])
        assert np.array_equal(trace.min_points, mins)

    def test_ties_keep_each_stage_first_minimizer(self):
        # eta = 2 maps x to -x: x_t flips between 3 and -3 at equal values, and
        # the odd stages end on -3.  The first minimizer of every stage is its start.
        q = make_quadratic(1.0, 1)
        oracle = SgOracle(q, 0.0)
        cfg = DlGndConfig(eta=2.0, s=0.0, f_lb0=-1.0, gamma=0.5, N=4, T1=5, T2=3)
        trace = dlgnd_run(q, oracle, [3.0], cfg, RngStream(0, 0))
        _, mins, vals, stages = sequential_dlgnd(q, oracle, np.array([3.0]), cfg, RngStream(0, 0))
        assert all(traj.points[-1, 0] == -3.0 for traj in stages)  # a last minimizer's pick
        assert np.array_equal(mins, np.full((5, 1), 3.0))
        assert np.array_equal(trace.min_points, mins)
        assert np.array_equal(trace.min_values, vals)

    def test_determinism(self):
        j1 = make_j1(7, 1)
        cfg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=8, T1=10, T2=4)
        a = dlgnd_run(j1, SgOracle(j1, 0.0), [7.0], cfg, RngStream(77, 5))
        b = dlgnd_run(j1, SgOracle(j1, 0.0), [7.0], cfg, RngStream(77, 5))
        assert np.array_equal(a.lb_history, b.lb_history)
        assert np.array_equal(a.min_points, b.min_points)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=1.0, N=5, T1=5, T2=5)
        with pytest.raises(ParameterError):
            DlGndConfig(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=0, T1=5, T2=5)

    @pytest.mark.parametrize("field", ["eta", "s", "f_lb0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        params = dict(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, N=5, T1=5, T2=5)
        params[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            DlGndConfig(**params)


class TestDlGndBatch:
    """The batched double loop against the sequential scheme and single-row runs."""

    CRITERION_7 = DlGndConfig(eta=1.5, s=3.0, f_lb0=-20.0, gamma=0.03, N=40, T1=100, T2=10)

    @staticmethod
    def _assert_rows_equal_reference(objective, oracle, cfg, seed, x0s):
        rngs = [RngStream(seed, i) for i in range(len(x0s))]
        batch = stacked_dlgnd(objective, oracle, x0s, cfg, rngs)
        for i, x0 in enumerate(x0s):
            reference = sequential_dlgnd(objective, oracle, x0, cfg, RngStream(seed, i))[:3]
            for got, want in zip(batch, reference):
                assert np.array_equal(got[i], want)

    def test_criterion_7_streams_equal_sequential_reference(self):
        rast = make_rastrigin(1.0, 1.0, 0.01, 2)
        x0s = np.array([-20.0 + 40.0 * RngStream(2025, i).uniforms(2) for i in range(10)])
        self._assert_rows_equal_reference(rast, SgOracle(rast, 0.0), self.CRITERION_7, 2025, x0s)

    def test_noisy_quadratic_equals_sequential_reference(self):
        q = make_quadratic(1.0, 2)
        cfg = DlGndConfig(eta=0.4, s=0.5, f_lb0=-3.0, gamma=0.2, N=12, T1=8, T2=4)
        x0s = np.array([[3.0, -2.0], [-1.0, 4.0], [0.5, 0.5], [6.0, 1.0]])
        self._assert_rows_equal_reference(q, SgOracle(q, 0.7), cfg, 31, x0s)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), m=st.integers(1, 5), r=st.sampled_from([0.0, 0.5]),
           eta=st.floats(0.1, 1.5), s=st.floats(0.0, 3.0), f_lb0=st.floats(-20.0, 0.0),
           gamma=st.floats(0.01, 0.9), N=st.integers(1, 5), T1=st.integers(1, 8),
           T2=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_equal_single_runs(self, data, m, r, eta, s, f_lb0, gamma, N, T1, T2,
                                          seed):
        # Rows start apart, so their lower bounds differ: a row reading another
        # row's f_lb would change its noise and its trace.
        rast = make_rastrigin(1.0, 1.0, 0.01, 2)
        oracle = SgOracle(rast, r)
        cfg = DlGndConfig(eta=eta, s=s, f_lb0=f_lb0, gamma=gamma, N=N, T1=T1, T2=T2)
        x0s = np.array(data.draw(st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
                                          min_size=m, max_size=m)))
        batch = stacked_dlgnd(rast, oracle, x0s, cfg, [RngStream(seed, i) for i in range(m)])
        for i in range(m):
            trace = dlgnd_run(rast, oracle, x0s[i], cfg, RngStream(seed, i))
            for got, want in zip(batch, (trace.lb_history, trace.min_points, trace.min_values)):
                assert np.array_equal(got[i], want)

        def folded(rows):
            fold = _Fold(rast.minimizer, 1.0, cfg.total_iterations + 1)
            rngs = [RngStream(seed, i) for i in rows]
            return fold, stacked_dlgnd(rast, oracle, x0s[rows], cfg, rngs, fold)

        fold, trace = folded(range(m))  # folding does not change the trace
        for got, want in zip(trace, batch):
            assert np.array_equal(got, want)
        singles = [folded([i])[0] for i in range(m)]
        assert np.array_equal(fold.total, _added_in_row_order([f.total for f in singles]))
        assert np.array_equal(fold.misses, sum(f.misses for f in singles))

    def test_divergence_names_iteration_of_the_whole_run(self):
        # |1 - eta| = 2: every stage doubles |x|, so the best point stays x0 and
        # outer loop 1 restarts there; its half-step 17 is run iteration 5 + 17.
        q = make_quadratic(1.0, 1)
        cfg = DlGndConfig(eta=3.0, s=0.0, f_lb0=-1.0, gamma=0.5, N=3, T1=5, T2=30)
        with pytest.raises(DivergedError) as err:
            dlgnd_run(q, SgOracle(q, 0.0), [10.0], cfg, RngStream(0, 0))
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (
            None, 22, "half-step value")

    @pytest.mark.parametrize("call", [0, 5, 6, 6 + 3 + 2, 6 + 4 * 3 - 1])
    def test_divergence_iteration_in_every_stage(self, call):
        # One gradient evaluation per iteration, stages in order: gradient call
        # k is grad f(x_k) of the whole run, whichever stage it falls in.
        q = _poisoned(make_quadratic(1.0, 2), "gradient", call, [np.nan, 0.0])
        cfg = DlGndConfig(eta=0.1, s=0.5, f_lb0=-1.0, gamma=0.5, N=4, T1=6, T2=3)
        rngs = [RngStream(0, i) for i in range(5)]
        fold = _Fold(q.minimizer, 1e-6, cfg.total_iterations + 1)
        with pytest.raises(DivergedError) as err:
            _run_batch(q, 0.3, np.full((5, 2), 2.0), cfg, rngs, fold, trial_base=40)
        assert (err.value.trial, err.value.iteration, err.value.quantity) == (43, call, "gradient")


class TestBatchOneBytes:
    """Batch-1 rastrigin runs, pinned by the sha1 of their output bytes."""

    @staticmethod
    def _start():
        rast = make_rastrigin(1.0, 1.0, 0.01, 2)
        rng = RngStream(0, 0)
        return rast, -20.0 + 40.0 * rng.uniforms(2), rng

    def test_dlgnd_criterion_7(self):
        # The first run of the dlgnd-single benchmark workload at seed 0.
        rast, x0, rng = self._start()
        cfg = DlGndConfig(eta=1.5, s=3.0, f_lb0=-20.0, gamma=0.03, N=490, T1=100, T2=10)
        trace = dlgnd_run(rast, SgOracle(rast, 0.0), x0, cfg, rng)
        digest = hashlib.sha1(trace.lb_history.tobytes() + trace.min_values.tobytes())
        assert digest.hexdigest() == "158cbcacc9814d0723800b581404d0ec4c96007f"

    def test_gnd_with_oracle_noise(self):
        rast, x0, rng = self._start()
        cfg = GndConfig(eta=0.1, s=0.5, f_lb=0.0, T=200)
        traj = gnd_run(rast, SgOracle(rast, 0.5), x0, cfg, rng)
        digest = hashlib.sha1(b"".join(a.tobytes() for a in (
            traj.points, traj.values, traj.sigmas, traj.half_values)))
        assert digest.hexdigest() == "4f6f0c036f219e89516a4d274411236d6b227717"
        assert traj.t_star == 143


class TestGndConfig:
    @pytest.mark.parametrize("field", ["eta", "s", "f_lb"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        params = dict(eta=0.4, s=0.5, f_lb=0.0, T=5)
        params[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            GndConfig(**params)


@settings(max_examples=30, deadline=None)
@given(eta=st.floats(0.01, 2.0), s=st.floats(0.0, 5.0), x0=st.floats(-10.0, 10.0),
       f_lb=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_step_zero_sigma_nonnegative_and_monotone_in_f_lb(eta, s, x0, f_lb, seed):
    # f_lb enters no draw and no value before sigma_0, so f(x_{1/2}) is shared.
    q = make_quadratic(1.0, 1)
    oracle = SgOracle(q, 0.5)
    low, high = (gnd_run(q, oracle, [x0], GndConfig(eta=eta, s=s, f_lb=lb, T=1),
                         RngStream(seed, 0)) for lb in (f_lb, f_lb - 1.0))
    assert low.half_values[0] == high.half_values[0]
    assert low.sigmas[0] >= 0.0
    assert high.sigmas[0] >= low.sigmas[0]
