"""Command-line interface: schedules, condition audits, moment checks, experiments.

Exit codes are stable so scripts can branch on them: 0 success, 1 parameter or
validation error, 2 I/O error, 3 diverged experiment.  Diagnostics and progress
go to standard error (``--quiet`` silences progress, never diagnostics); data
goes to files or standard output only.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from gndopt.errors import DivergedError, ParameterError
from gndopt.experiments import (ExperimentConfig, run_monte_carlo, stopping_time_check,
                                write_csv, write_svg)
from gndopt.objectives import make_objective, make_quadratic
from gndopt.sampling import RngStream, sample_scaled_gaussian, scaled_gaussian_norm_moments
from gndopt.solver import DlGndConfig, GndConfig
from gndopt.theory import (ball_shell_grid, dlgnd_schedule, gnd_schedule,
                           j2_condition_table, regularity_constants_grid,
                           symmetric_log_grid)

# Desk-scale presets: objective parameters and per-algorithm defaults.  Every
# value can be overridden by a flag; the effective configuration is echoed
# into a ".config" sidecar next to the outputs.
BENCH_PRESETS = {
    "j1-7-1": dict(
        objective=dict(function="j1", n=7, k=1),
        box=(-10.0, 10.0), T=300, trials=2000,
        gnd=dict(eta=0.4, s=0.5, f_lb=0.0),
        dlgnd=dict(eta=0.4, s=0.5, f_lb0=-1.0, gamma=0.5, T1=40, T2=10, N=30),
    ),
    "j1-112-2": dict(
        objective=dict(function="j1", n=112, k=2),
        box=(-10.0, 10.0), T=1200, trials=2000,
        gnd=dict(eta=0.1, s=0.2, f_lb=0.0),
        dlgnd=dict(eta=0.1, s=0.2, f_lb0=-1.0, gamma=0.5, T1=40, T2=10, N=120),
    ),
    "rast2d-c05": dict(
        objective=dict(function="rastrigin", a=1.0, b=1.0, c=0.05, dim=2),
        box=(-20.0, 20.0), T=2000, trials=2000,
        gnd=dict(eta=1.5, s=2.0, f_lb=0.0),
        dlgnd=dict(eta=1.5, s=1.5, f_lb0=-20.0, gamma=0.3, T1=100, T2=10, N=190),
    ),
    "rast2d-c01": dict(
        objective=dict(function="rastrigin", a=1.0, b=1.0, c=0.01, dim=2),
        box=(-20.0, 20.0), T=5000, trials=2000,
        gnd=dict(eta=1.5, s=4.0, f_lb=0.0),
        dlgnd=dict(eta=1.5, s=3.0, f_lb0=-20.0, gamma=0.03, T1=100, T2=10, N=490),
    ),
    "rast10d-c05": dict(
        objective=dict(function="rastrigin", a=1.0, b=1.0, c=0.05, dim=10),
        box=(-20.0, 20.0), T=8000, trials=2000,
        gnd=dict(eta=1.5, s=1.5, f_lb=0.0),
        dlgnd=dict(eta=1.5, s=1.4, f_lb0=-20.0, gamma=0.025, T1=100, T2=10, N=790),
    ),
    "rast10d-c03": dict(
        objective=dict(function="rastrigin", a=1.0, b=1.0, c=0.03, dim=10),
        box=(-20.0, 20.0), T=8000, trials=2000,
        gnd=dict(eta=1.5, s=2.5, f_lb=0.0),
        dlgnd=dict(eta=1.5, s=1.5, f_lb0=-20.0, gamma=0.0035, T1=100, T2=10, N=790),
    ),
}


class _CliParser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as parameter errors (exit 1)."""

    def error(self, message):
        raise ParameterError(message)


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _progress(args, msg: str) -> None:
    if not getattr(args, "quiet", False):
        print(msg, file=sys.stderr)


def _emit_pairs(pairs, csv_path=None) -> None:
    for key, val in pairs:
        print(f"{key}={val}")
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write("key,value\n")
            for key, val in pairs:
                fh.write(f"{key},{val}\n")


def _fixed(v: float) -> str:
    return format(float(v), ".12g")


def _cmd_schedule(args) -> int:
    sched = gnd_schedule(args.alpha, args.L, args.r, args.fgap)
    pairs = [("eta", _fixed(sched.eta)), ("lambda", _fixed(sched.lam)),
             ("s", _fixed(sched.s)), ("b", _fixed(sched.b)),
             ("eta_lambda", _fixed(sched.eta_lam))]
    if args.eps is not None:
        if args.fgap0 is None:
            raise ParameterError("--fgap0 is required together with --eps")
        dl = dlgnd_schedule(args.alpha, args.L, args.r, args.eps, args.zeta,
                            args.fgap0, args.y0sq, args.beta)
        pairs += [("b0", _fixed(dl.b0)), ("b_eps", _fixed(dl.b_eps)),
                  ("gamma", _fixed(dl.gamma)), ("N", dl.N), ("T1", dl.T1),
                  ("T2", dl.T2), ("zeta_prime", _fixed(dl.zeta_prime))]
    _emit_pairs(pairs, args.csv)
    return 0


def _cmd_check(args) -> int:
    params = {}
    for key in ("n", "k"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    for key in ("eps", "a", "b", "c"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if args.R is not None:
        params["R"] = args.R
    if args.function == "quadratic":
        params = {"alpha": args.alpha if args.alpha is not None else 1.0, "dim": args.d}
    elif args.function == "rastrigin":
        params["dim"] = args.d
    obj = make_objective(args.function, **params)
    if obj.dim == 1:
        grid = symmetric_log_grid(args.grid_lo, args.grid_hi, args.grid_points // 2)
    else:
        grid = ball_shell_grid(obj, args.grid_lo, args.grid_hi, args.grid_points, seed=args.seed)
    report = regularity_constants_grid(obj, grid, alpha=args.alpha, L=args.L)
    pairs = [("objective", obj.name), ("n_points", report.n_points),
             ("mu_r_hat", _fixed(report.mu_r_hat)), ("mu_p_hat", _fixed(report.mu_p_hat)),
             ("mu_q_hat", _fixed(report.mu_q_hat)), ("beta_hat", _fixed(report.beta_hat)),
             ("nc_gate", str(report.nc_gate).lower())]
    if args.function == "j2":
        for row in j2_condition_table(params["eps"], params["R"]):
            pairs.append((f"{row.condition}_holds", str(row.holds).lower()))
            if row.parameter is not None:
                if isinstance(row.parameter, tuple):
                    pairs.append((f"{row.condition}_alpha", _fixed(row.parameter[0])))
                    pairs.append((f"{row.condition}_L", _fixed(row.parameter[1])))
                else:
                    pairs.append((f"{row.condition}_parameter", _fixed(row.parameter)))
    _emit_pairs(pairs, args.csv)
    return 0


def _cmd_moments(args) -> int:
    exact = scaled_gaussian_norm_moments(args.d)
    rng = RngStream(args.seed, 0)
    chunk = max(1, min(args.draws, 10_000_000 // max(args.d, 1)))
    sums = np.zeros(4)
    done = 0
    while done < args.draws:
        take = min(chunk, args.draws - done)
        xi = sample_scaled_gaussian(args.d, rng, size=take)
        norms = np.sqrt(np.sum(xi * xi, axis=-1))
        for p in range(4):
            sums[p] += float(np.sum(norms ** (p + 1)))
        done += take
    mc = sums / args.draws
    pairs = []
    for p in range(4):
        pairs.append((f"m{p + 1}_exact", _fixed(exact[p])))
        pairs.append((f"m{p + 1}_mc", _fixed(mc[p])))
        pairs.append((f"m{p + 1}_abs_err", _fixed(abs(mc[p] - exact[p]))))
    _emit_pairs(pairs, args.csv)
    return 0


def _cmd_stbound(args) -> int:
    obj = make_quadratic(alpha=args.alpha, d=args.d)
    report = stopping_time_check(obj, r=args.r, ell=args.ell, M=args.M,
                                 trials=args.trials, x0=np.full(args.d, args.x0),
                                 seed=args.seed)
    _emit_pairs([("empirical_p", _fixed(report.empirical_p)),
                 ("analytic_bound", _fixed(report.analytic_bound)),
                 ("B_hat", _fixed(report.B_hat)), ("theta", _fixed(report.theta)),
                 ("floor", _fixed(report.floor)), ("M", report.M),
                 ("ell", _fixed(report.ell))], args.csv)
    return 0


def _parse_config_file(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read config: {path}") from exc
    parser.read_string(text)
    out = {}
    for section in parser.sections():
        out[section] = {k: v.strip().strip('"').strip("'") for k, v in parser[section].items()}
    return out


def _build_algorithm(section: dict, default_t: int):
    kind = section.get("algorithm", "gnd")
    f = lambda key, dv: float(section.get(key, dv))
    i = lambda key, dv: int(section.get(key, dv))
    record_y = section.get("record_y", "false").lower() in ("1", "true", "yes")
    if kind == "gnd":
        return GndConfig(eta=f("eta", 0.4), s=f("s", 0.5), f_lb=f("f_lb", 0.0),
                         T=i("T", default_t), record_y=record_y)
    if kind == "gd":
        return GndConfig(eta=f("eta", 0.4), s=0.0, f_lb=0.0, T=i("T", default_t),
                         record_y=record_y)
    if kind == "dlgnd":
        return DlGndConfig(eta=f("eta", 0.4), s=f("s", 0.5), f_lb0=f("f_lb0", -1.0),
                           gamma=f("gamma", 0.5), N=i("N", 30), T1=i("T1", 40),
                           T2=i("T2", 10), record_y=record_y)
    raise ParameterError(f"unknown algorithm {kind!r}; valid: gnd, dlgnd, gd")


_OBJECTIVE_KEY_TYPES = {"n": int, "k": int, "dim": int, "eps": float, "R": float,
                        "a": float, "b": float, "c": float, "alpha": float}


def _objective_from_section(section: dict):
    if "function" not in section:
        raise ParameterError("config section [objective] needs a 'function' key")
    params = {}
    for key, raw in section.items():
        if key == "function":
            continue
        if key not in _OBJECTIVE_KEY_TYPES:
            raise ParameterError(f"unknown objective key {key!r}")
        params[key] = _OBJECTIVE_KEY_TYPES[key](raw)
    return make_objective(section["function"], **params)


def _run_experiment(args, objective, algorithm, exp: dict, name: str) -> int:
    cfg = ExperimentConfig(
        objective=objective, algorithm=algorithm,
        sg_noise_r=float(exp.get("sg_noise_r", 0.0)),
        trials=int(exp.get("trials", 2000)),
        init_low=float(exp.get("init_low", -10.0)),
        init_high=float(exp.get("init_high", 10.0)),
        seed=int(exp.get("seed", 0)),
        threshold=float(exp.get("threshold", 1e-3)),
        workers=int(exp.get("workers", 1)),
    )
    _progress(args, f"running {name}: trials={cfg.trials} iterations={cfg.total_iterations}")
    stats = run_monte_carlo(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    write_csv(stats, csv_path)
    write_svg(stats, out_dir / f"{name}.svg")
    _progress(args, f"wrote {csv_path} (final mse={stats.mse[-1]:.3e}, ncp={stats.ncp[-1]:.4f})")
    return 0


def _cmd_run(args) -> int:
    sections = _parse_config_file(Path(args.config))
    exp = sections.get("experiment", {})
    if "objective" not in sections:
        raise ParameterError("config must have an [objective] section")
    objective = _objective_from_section(sections["objective"])
    alg_section = dict(sections.get("algorithm", {}))
    if "T" in exp and "T" not in alg_section:
        alg_section["T"] = exp["T"]
    algorithm = _build_algorithm(alg_section, default_t=300)
    name = exp.get("name", Path(args.config).stem)
    return _run_experiment(args, objective, algorithm, exp, name)


def _cmd_bench(args) -> int:
    if args.name not in BENCH_PRESETS:
        raise ParameterError(
            f"unknown bench name {args.name!r}; valid names: {', '.join(sorted(BENCH_PRESETS))}")
    preset = BENCH_PRESETS[args.name]
    objective = make_objective(**preset["objective"])
    t_total = args.T if args.T is not None else preset["T"]
    algo = args.algo
    if algo == "gnd":
        p = preset["gnd"]
        algorithm = GndConfig(eta=_ov(args.eta, p["eta"]), s=_ov(args.s, p["s"]),
                              f_lb=_ov(args.f_lb, p["f_lb"]), T=t_total)
    elif algo == "gd":
        p = preset["gnd"]
        algorithm = GndConfig(eta=_ov(args.eta, p["eta"]), s=0.0, f_lb=0.0, T=t_total)
    else:
        p = preset["dlgnd"]
        n_outer = args.N if args.N is not None else p["N"]
        algorithm = DlGndConfig(eta=_ov(args.eta, p["eta"]), s=_ov(args.s, p["s"]),
                                f_lb0=_ov(args.f_lb0, p["f_lb0"]),
                                gamma=_ov(args.gamma, p["gamma"]),
                                N=n_outer, T1=p["T1"], T2=p["T2"])
    low, high = preset["box"]
    exp = dict(trials=str(args.trials if args.trials is not None else preset["trials"]),
               seed=str(args.seed), threshold=str(args.threshold),
               workers=str(args.workers), init_low=str(low), init_high=str(high),
               sg_noise_r=str(args.r))
    name = f"{args.name}-{algo}"
    code = _run_experiment(args, objective, algorithm, exp, name)
    sidecar = Path(args.out) / f"{name}.config"
    with open(sidecar, "w", newline="") as fh:
        fh.write("[objective]\n")
        for key, val in preset["objective"].items():
            fh.write(f"{key} = {val}\n")
        fh.write("\n[algorithm]\n")
        fh.write(f"algorithm = {algo}\n")
        for key, val in vars(algorithm).items():
            if key != "record_y":
                fh.write(f"{key} = {val}\n")
        fh.write("\n[experiment]\n")
        for key, val in exp.items():
            fh.write(f"{key} = {val}\n")
    return code


def _ov(override, default):
    return default if override is None else override


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="gndopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print solver schedules derived from a certificate")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--fgap", type=float, default=0.0, help="f* - f_lb for the single-loop schedule")
    p.add_argument("--eps", type=float, default=None, help="target accuracy; enables the double-loop schedule")
    p.add_argument("--zeta", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--fgap0", type=float, default=None, help="f* - f_lb^0 for the double-loop schedule")
    p.add_argument("--y0sq", type=float, default=1.0, help="||y0 - x*||^2 used by the iteration bounds")
    p.add_argument("--csv", default=None, help="also write key,value rows to this path")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("check", help="grid audit of regularity constants for a named objective")
    p.add_argument("--function", required=True, choices=["quadratic", "j1", "j2", "rastrigin"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--grid-lo", type=float, default=1e-6)
    p.add_argument("--grid-hi", type=float, default=10.0)
    p.add_argument("--grid-points", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("moments", help="exact scaled-Gaussian norm moments vs Monte-Carlo")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("stbound", help="empirical dip probability vs the analytic bound")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--x0", type=float, default=5.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_stbound)

    p = sub.add_parser("run", help="run one experiment from a config file")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="regenerate a named benchmark at desk scale")
    p.add_argument("name")
    p.add_argument("--algo", choices=["gnd", "dlgnd", "gd"], default="gnd")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--f-lb", dest="f_lb", type=float, default=None)
    p.add_argument("--f-lb0", dest="f_lb0", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and recorded in the sidecar; runs are "
                        "single-threaded")
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--out", default="out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ParameterError as exc:
        _diag(f"gndopt: {exc}")
        return 1
    except DivergedError as exc:
        _diag(f"gndopt: {exc}")
        return 3
    except OSError as exc:
        _diag(f"gndopt: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
