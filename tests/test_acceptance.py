"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
Budgets are desk scale (2000-trial ensembles); seeds are fixed so every number
here is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from conftest import central_difference_gradient, j1_value_quadrature

from gndopt import (ExperimentConfig, GndConfig, DlGndConfig, RngStream, SgOracle,
                    compute_nk, contraction_check, dlgnd_schedule,
                    gnd_schedule, j2_condition_table, make_j1, make_j2,
                    make_quadratic, make_rastrigin,
                    regularity_constants_grid, run_monte_carlo,
                    stopping_time_check, symmetric_log_grid)
from gndopt.cli import main as cli_main
from gndopt.solver import _run_dlgnd_batch


def report(cid, label, ok):
    print(f"ACCEPTANCE {cid:>2} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_gaussian_norm_moments():
    from gndopt import sample_scaled_gaussian, scaled_gaussian_norm_moments
    start = time.time()
    failures = []
    for d in (1, 2, 10, 100):
        exact = scaled_gaussian_norm_moments(d)
        rng = RngStream(42, d)
        sums = np.zeros(3)
        done, n = 0, 1_000_000
        while done < n:
            take = min(200_000, n - done)
            xi = sample_scaled_gaussian(d, rng, size=take)
            norms = np.sqrt(np.sum(xi * xi, axis=-1))
            sums += [np.sum(norms), np.sum(norms**2), np.sum(norms**4)]
            done += take
        m1, m2, m4 = sums / n
        if abs(m2 - 1.0) > 0.005:
            failures.append(f"d={d}: |m2-1|={abs(m2-1):.4f}")
        if abs(m4 - exact[3]) > 0.02:
            failures.append(f"d={d}: |m4-exact|={abs(m4-exact[3]):.4f}")
        if abs(m1 - exact[0]) > 0.005:
            failures.append(f"d={d}: |m1-exact|={abs(m1-exact[0]):.4f}")
    elapsed = time.time() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s > 10s")
    ok = report(1, "scaled-Gaussian norm moments", not failures)
    assert ok, failures


def test_criterion_02_nk_table():
    start = time.time()
    got = [compute_nk(k) for k in (1, 2, 3, 4)]
    ok = got == [199, 112, 89, 78] and (time.time() - start) < 1.0
    report(2, "double-factorial threshold table", ok)
    assert ok, got


def test_criterion_03_gradient_correctness():
    suite = [
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
    worst = 0.0
    failures = []
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 1], dtype=np.uint64)))
    for objective, box in suite:
        for _ in range(200):
            x = rng.uniform(-box, box, size=objective.dim)
            analytic = objective.gradient(x)
            fd = central_difference_gradient(objective.value, x)
            rel = math.sqrt(float(np.sum((analytic - fd) ** 2))) / (
                1.0 + math.sqrt(float(np.sum(analytic * analytic))))
            worst = max(worst, rel)
            if rel > 1e-6:
                failures.append(f"{objective.name}{objective.params}: rel={rel:.2e} at {x}")
                break
    ok = report(3, f"analytic vs central differences (worst rel {worst:.2e})", not failures)
    assert ok, failures


def test_criterion_04_fourier_value_vs_quadrature():
    worst = 0.0
    for n, k in ((1, 1), (7, 1), (112, 2)):
        j1 = make_j1(n, k)
        xs = np.linspace(-10.0, 10.0, 1000)
        got = np.atleast_1d(j1.value(xs[:, None]))
        want = j1_value_quadrature(xs, n, k)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = report(4, f"closed-form values vs quadrature oracle (max err {worst:.2e})", worst <= 1e-8)
    assert ok, worst


def test_criterion_05_gnd_escapes_gd_trapped():
    start = time.time()
    j1 = make_j1(7, 1)
    common = dict(objective=j1, sg_noise_r=0.0, trials=2000, init_low=-10.0,
                  init_high=10.0, seed=7, workers=1)
    gnd = run_monte_carlo(ExperimentConfig(
        algorithm=GndConfig(eta=0.4, s=0.5, f_lb=0.0, T=300), **common))
    gd = run_monte_carlo(ExperimentConfig(
        algorithm=GndConfig(eta=0.4, s=0.0, f_lb=0.0, T=300), **common))
    elapsed = time.time() - start
    clauses = {
        f"gnd ncp(T)={gnd.ncp[-1]:.4f} <= 0.01": gnd.ncp[-1] <= 0.01,
        f"gnd mse(T)={gnd.mse[-1]:.2e} <= 1e-4": gnd.mse[-1] <= 1e-4,
        f"gd ncp(T)={gd.ncp[-1]:.4f} >= 0.5": gd.ncp[-1] >= 0.5,
        f"runtime {elapsed:.0f}s <= 30s": elapsed <= 30.0,
    }
    ok = report(5, "noise escapes the traps that stop plain descent", all(clauses.values()))
    assert ok, [c for c, v in clauses.items() if not v]


def test_criterion_06_rastrigin_2d():
    start = time.time()
    rast = make_rastrigin(1.0, 1.0, 0.01, 2)
    stats = run_monte_carlo(ExperimentConfig(
        objective=rast, algorithm=GndConfig(eta=1.5, s=4.0, f_lb=0.0, T=5000),
        sg_noise_r=0.0, trials=2000, init_low=-20.0, init_high=20.0, seed=11, workers=1))
    elapsed = time.time() - start
    peak = float(stats.mse.max())
    final = float(stats.mse[-1])
    decades = math.inf if final == 0.0 else math.log10(peak / final)
    clauses = {
        f"ncp(T)={stats.ncp[-1]:.4f} <= 0.05": stats.ncp[-1] <= 0.05,
        f"mse drop {decades:.1f} decades >= 3": decades >= 3.0,
        f"runtime {elapsed:.0f}s <= 120s": elapsed <= 120.0,
    }
    ok = report(6, "Rastrigin 2-d ensemble convergence", all(clauses.values()))
    assert ok, [c for c, v in clauses.items() if not v]


def test_criterion_07_double_loop_lower_bound():
    # The stated outer-loop count N=200 cannot meet the 1e-2 tolerance for any
    # optimizer: the update keeps f_lb^N <= (1-gamma)^N * f_lb^0 + positive
    # terms, and the deterministic floor alone exceeds the tolerance.
    gamma, f_lb0 = 0.03, -20.0
    assert (1.0 - gamma) ** 200 * abs(f_lb0) > 1e-2
    # N is therefore budget-matched: T1 + N*T2 = 5000, the desk-scale budget
    # used for the same objective by the single-loop run above.
    n_outer = 490
    assert 100 + n_outer * 10 == 5000

    start = time.time()
    rast = make_rastrigin(1.0, 1.0, 0.01, 2)
    oracle = SgOracle(rast, 0.0)
    cfg = DlGndConfig(eta=1.5, s=3.0, f_lb0=f_lb0, gamma=gamma, N=n_outer, T1=100, T2=10)
    # The 100 runs as one batch: row i is dlgnd_run on stream (2025, i), bit for bit.
    rngs = [RngStream(2025, run) for run in range(100)]
    x0 = np.array([-20.0 + 40.0 * rng.uniforms(2) for rng in rngs])
    batch = _run_dlgnd_batch(rast, oracle, x0, cfg, rngs)
    runs_small, runs_incr, runs_noninc = 0, 0, 0
    for lb, mv in zip(batch.lb_history, batch.min_values):
        runs_small += abs(lb[-1]) <= 1e-2
        runs_incr += all(lb[i + 1] > lb[i] for i in range(len(lb) - 1) if mv[i] > lb[i])
        runs_noninc += bool(np.all(np.diff(mv) <= 0.0))
    elapsed = time.time() - start
    clauses = {
        f"|f_lb^N| <= 1e-2 in {runs_small}/100 >= 95": runs_small >= 95,
        f"strictly increasing while above in {runs_incr}/100 == 100": runs_incr == 100,
        f"min values non-increasing in {runs_noninc}/100 == 100": runs_noninc == 100,
        f"runtime {elapsed:.0f}s <= 120s": elapsed <= 120.0,
    }
    ok = report(7, "double-loop lower-bound convergence", all(clauses.values()))
    assert ok, [c for c, v in clauses.items() if not v]


def test_criterion_08_contraction_bound():
    start = time.time()
    quad = make_quadratic(1.0, 1)
    failures = []
    for r in (0.0, 1.0):
        rep = contraction_check(quad, r=r, trials=500, x0=[5.0], T=500, seed=3)
        assert rep.schedule.eta_lam == pytest.approx(0.64, rel=1e-12)
        if not rep.holds:
            failures.append(f"r={r}: first violation at t={rep.first_violation}")
    elapsed = time.time() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    ok = report(8, "mean shadow-distance contraction bound", not failures)
    assert ok, failures


def test_criterion_09_stopping_time_bound():
    quad = make_quadratic(1.0, 1)
    failures = []
    for x0 in (5.0, 20.0):
        for m in (100, 500, 2000):
            rep = stopping_time_check(quad, r=1.0, ell=25.0, M=m, trials=1000,
                                      x0=[x0], seed=5)
            se = math.sqrt(max(rep.empirical_p * (1.0 - rep.empirical_p), 0.0) / 1000.0)
            if rep.empirical_p < rep.analytic_bound - 3.0 * se:
                failures.append(f"x0={x0} M={m}: p={rep.empirical_p} < bound={rep.analytic_bound}")
    ok = report(9, "dip probability dominates analytic bound", not failures)
    assert ok, failures


def test_criterion_10_regularity_table():
    j2 = make_j2(0.1, 1.0)
    grid = symmetric_log_grid(1e-6, 10.0, 60_000)  # 120k points
    rep = regularity_constants_grid(j2, grid)
    mu_r_target = 1.0 - 0.1 * math.sqrt(2.0)
    # The PL ratio f'^2/(2(f-f*)) of j2 depends only on the phase u = 2R log|x|:
    # h(u) = (1 + eps sin u + eps R cos u)^2 / (1 + eps sin u).  Its exact infimum is
    # taken on a dense phase grid; the closed-form table value is only a lower bound.
    eps, R = 0.1, 1.0
    u = np.linspace(0.0, 2.0 * math.pi, 2_000_000, endpoint=False)
    sin_u = np.sin(u)
    mu_p_exact = float(np.min((1.0 + eps * sin_u + eps * R * np.cos(u)) ** 2 / (1.0 + eps * sin_u)))
    mu_p_table = {r.condition: r for r in j2_condition_table(eps, R)}["PL"].parameter
    rows = {r.condition: r for r in j2_condition_table(2.0 / 27.0, math.sqrt(18161.0) / 8.0)}
    clauses = {
        f"mu_q_hat={rep.mu_q_hat:.6f} within 1e-2 of 0.9": abs(rep.mu_q_hat - 0.9) <= 1e-2,
        f"mu_r_hat={rep.mu_r_hat:.6f} within 1e-2 of {mu_r_target:.6f}":
            abs(rep.mu_r_hat - mu_r_target) <= 1e-2,
        f"mu_p_hat={rep.mu_p_hat:.6f} within 1e-2 of exact infimum {mu_p_exact:.6f}":
            abs(rep.mu_p_hat - mu_p_exact) <= 1e-2,
        f"table PL={mu_p_table:.6f} <= mu_p_hat={rep.mu_p_hat:.6f}": mu_p_table <= rep.mu_p_hat,
        "boundary-regime admissibility pattern":
            rows["NC"].holds and not (rows["RSI"].holds or rows["PL"].holds or rows["SC"].holds),
    }
    ok = report(10, "grid constants vs closed-form table", all(clauses.values()))
    assert ok, [c for c, v in clauses.items() if not v]


def test_criterion_11_cli_determinism(tmp_path):
    blobs = []
    for name, extra in (("r1", []), ("r2", []), ("w1", ["--workers", "1"]),
                        ("w8", ["--workers", "8"])):
        out = tmp_path / name
        code = cli_main(["bench", "j1-7-1", "--algo", "gnd", "--seed", "7",
                         "--out", str(out), "--quiet", *extra])
        assert code == 0
        blobs.append((out / "j1-7-1-gnd.csv").read_bytes())
    ok = report(11, "byte-identical benchmark output across reruns and workers",
                blobs[0] == blobs[1] == blobs[2] == blobs[3])
    assert ok


def test_criterion_12_schedule_arithmetic():
    sched = gnd_schedule(1.0, 1.0, 0.0, 1.0)
    dl = dlgnd_schedule(1.0, 1.0, 0.0, eps=0.01, zeta=0.05, f_gap0=1.0,
                        y0_dist_sq=100.0, beta=0.0)
    gamma_target = 0.0036 / (0.0036 + 100.0 * (17.2 / 42.0) * 0.01)
    clauses = {
        f"b={sched.b!r} within 1e-12 of 17.2/42": abs(sched.b - 17.2 / 42.0) <= 1e-12,
        f"gamma={dl.gamma!r} within 1e-9 of formula": abs(dl.gamma - gamma_target) <= 1e-9,
        f"N={dl.N} == 72": dl.N == 72,
    }
    ok = report(12, "schedule arithmetic", all(clauses.values()))
    assert ok, [c for c, v in clauses.items() if not v]
