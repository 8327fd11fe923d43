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

from gndopt.errors import DivergedError, ParameterError, require_finite, require_integer
from gndopt.experiments import (ExperimentConfig, run_monte_carlo, stopping_time_check,
                                write_csv, write_svg)
from gndopt.objectives import _FACTORIES, make_objective, make_quadratic
from gndopt.sampling import RngStream, sample_scaled_gaussian, scaled_gaussian_norm_moments
from gndopt.solver import DlGndConfig, GndConfig
from gndopt.theory import (ball_shell_grid, dlgnd_schedule, gnd_schedule,
                           j2_condition_table, regularity_constants_grid,
                           symmetric_log_grid)

# Desk-scale presets: objective parameters and per-algorithm defaults.  `bench`
# overrides them with flags and `run` overrides j1-7-1 with a config file; bench
# echoes the effective configuration into a ".config" sidecar next to its outputs.
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
    # The objective gets the flags given, so make_objective names one it does not
    # read; alpha and d default to 1 where it reads them.  --alpha is also the
    # surrogate's alpha, for every function.
    reads = _FACTORIES[args.function][1]
    params = {key: 1 for key in ("alpha", "dim") if key in reads}
    params.update((key, val) for key, val in vars(args).items()
                  if key in _SCHEMA["objective"] and val is not None
                  and (key in reads or key != "alpha"))
    obj = make_objective(**params)
    require_finite(**{"--grid-lo": args.grid_lo, "--grid-hi": args.grid_hi})
    # a 1-d grid has 2 * (grid_points // 2) points, at least 2 per side
    require_integer(4 if obj.dim == 1 else 1, **{"--grid-points": args.grid_points})
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
    require_integer(1, draws=args.draws)
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


# The config schema: each section's keys and their types, in sidecar order.  An
# [algorithm] section holds "algorithm" plus the keys of that algorithm; T may
# stand in [experiment] instead.  Defaults come from BENCH_PRESETS via _preset.
_SCHEMA = {
    "objective": dict(function=str, n=int, k=int, eps=float, R=float, alpha=float,
                      a=float, b=float, c=float, dim=int),
    "gnd": dict(eta=float, s=float, f_lb=float, T=int),
    "gd": dict(eta=float, T=int),
    "dlgnd": dict(eta=float, s=float, f_lb0=float, gamma=float, N=int, T1=int, T2=int),
    "experiment": dict(trials=int, seed=int, threshold=float, workers=int, init_low=float,
                       init_high=float, sg_noise_r=float, name=str, T=int),
}


def _preset(name: str, algo: str) -> dict:
    """The config sections of bench preset ``name`` run with ``algo``."""
    if algo not in ("gnd", "dlgnd", "gd"):
        raise ParameterError(f"unknown algorithm {algo!r}; valid: gnd, dlgnd, gd")
    preset = BENCH_PRESETS[name]
    values = {**preset["dlgnd" if algo == "dlgnd" else "gnd"], "T": preset["T"]}
    low, high = preset["box"]
    return {"objective": dict(preset["objective"]),
            "algorithm": {"algorithm": algo, **{key: values[key] for key in _SCHEMA[algo]}},
            "experiment": dict(trials=preset["trials"], seed=0, threshold=1e-3, workers=1,
                               init_low=low, init_high=high, sg_noise_r=0.0)}


def _read_config(path: Path) -> dict:
    """The j1-7-1 preset's sections with config file ``path`` applied, checked key by key.

    The file's [objective] section is required and replaces the preset's whole.
    """
    # default_section=None: a [DEFAULT] section is an unknown section, not keys for all
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section=None)
    parser.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read config: {path}") from exc
    try:
        parser.read_string(text, source=str(path))
        given = {section: {k: v.strip().strip('"').strip("'") for k, v in parser[section].items()}
                 for section in parser.sections()}
    except configparser.Error as exc:
        raise ParameterError(f"malformed config {path}: {str(exc).splitlines()[0]}") from None
    for section in given:
        if section not in ("objective", "algorithm", "experiment"):
            raise ParameterError(f"unknown config section [{section}]; "
                                 "valid sections: objective, algorithm, experiment")
    alg, exp = given.setdefault("algorithm", {}), given.get("experiment", {})
    if "T" in exp:
        if "T" in alg:
            raise ParameterError("T is set in both [experiment] and [algorithm]; set it once")
        alg["T"] = exp.pop("T")
    if "objective" not in given:
        raise ParameterError("config must have an [objective] section")
    kind = alg.get("algorithm", "gnd")
    sections = _preset("j1-7-1", kind)
    sections["objective"] = {}
    for section, values in given.items():
        types = {"algorithm": str, **_SCHEMA[kind]} if section == "algorithm" else _SCHEMA[section]
        for key, raw in values.items():
            if key not in types:
                where = f"[algorithm] of {kind}" if section == "algorithm" else f"[{section}]"
                raise ParameterError(f"unknown key {key!r} in {where}; valid keys: "
                                     f"{', '.join(types)}")
            try:
                sections[section][key] = types[key](raw)
            except ValueError:
                raise ParameterError(f"[{section}] {key} = {raw!r} is not a valid "
                                     f"{types[key].__name__}") from None
    if "function" not in sections["objective"]:
        raise ParameterError("config section [objective] needs a 'function' key")
    return sections


def _run_experiment(args, sections: dict, name: str) -> int:
    objective = make_objective(**sections["objective"])
    alg = dict(sections["algorithm"])
    kind = alg.pop("algorithm")
    algorithm = (DlGndConfig(**alg) if kind == "dlgnd"
                 else GndConfig(**{"s": 0.0, "f_lb": 0.0, **alg}))
    exp = dict(sections["experiment"])
    workers = exp.pop("workers")  # recorded in the sidecar; runs are single-threaded
    require_integer(1, workers=workers)
    cfg = ExperimentConfig(objective=objective, algorithm=algorithm, **exp)
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
    sections = _read_config(Path(args.config))
    name = sections["experiment"].pop("name", Path(args.config).stem)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ParameterError(f"[experiment] name = {name!r} is not a plain file name")
    return _run_experiment(args, sections, name)


def _cmd_bench(args) -> int:
    if args.name not in BENCH_PRESETS:
        raise ParameterError(
            f"unknown bench name {args.name!r}; valid names: {', '.join(sorted(BENCH_PRESETS))}")
    sections = _preset(args.name, args.algo)
    flags = {key: val for key, val in vars(args).items() if val is not None}
    unread = (_SCHEMA["gnd"].keys() | _SCHEMA["dlgnd"].keys()) - _SCHEMA[args.algo].keys()
    for key in flags:
        if key in unread:
            raise ParameterError(f"--{key.replace('_', '-')} is not read by {args.algo}; "
                                 f"its keys: {', '.join(_SCHEMA[args.algo])}")
    for values in (sections["algorithm"], sections["experiment"]):
        values.update((key, val) for key, val in flags.items() if key in values)
    name = f"{args.name}-{args.algo}"
    code = _run_experiment(args, sections, name)
    with open(Path(args.out) / f"{name}.config", "w", newline="") as fh:
        fh.write("\n".join(f"[{section}]\n" + "".join(f"{key} = {val}\n"
                                                      for key, val in values.items())
                           for section, values in sections.items()))
    return code


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
    p.add_argument("--d", dest="dim", type=int, default=None)
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
    p.add_argument("--r", dest="sg_noise_r", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility and recorded in the sidecar; runs are "
                        "single-threaded")
    p.add_argument("--threshold", type=float, default=None)
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
