import argparse
import contextlib
import io
import re
import string
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gndopt import cli, sampling
from gndopt.cli import _SCHEMA, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


_COMMANDS = ["schedule", "check", "moments", "stbound", "run", "bench"]


def test_the_six_subcommands():
    assert list(_subcommands()) == _COMMANDS


@pytest.mark.parametrize("command", _COMMANDS)
def test_subcommand_help_is_exit_0(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gndopt {command}")


@pytest.mark.parametrize("argv", [
    ["bench", "j1-7-1", "--trials", "4", "--T", "5", "--quiet"],
    ["stbound", "--ell", "25", "--M", "5"],
    ["moments", "--d", "2", "--draws", "10"],
    ["check", "--function", "quadratic", "--d", "2", "--grid-points", "10"],
], ids=["bench", "stbound", "moments", "check"])
def test_seed_beyond_64_bits_is_exit_1_naming_seed(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", str(2**64),
                             *(["--out", str(tmp_path)] if argv[0] == "bench" else []))
    assert (code, out) == (1, "")
    assert err == "gndopt: seed must fit in 64 unsigned bits, got a 65-bit integer\n"


class TestSchedule:
    def test_unit_certificate_values(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--alpha", "1", "--L", "1",
                               "--r", "0", "--fgap", "0")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert float(pairs["eta"]) == 0.4
        assert float(pairs["lambda"]) == 1.6
        assert float(pairs["s"]) == pytest.approx(0.533333, abs=1e-6)
        assert float(pairs["b"]) == 0.0

    def test_double_loop_section(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--alpha", "1", "--L", "1",
                               "--eps", "0.01", "--fgap0", "1", "--y0sq", "100")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert int(pairs["N"]) == 72
        assert float(pairs["gamma"]) == pytest.approx(0.0087141, abs=1e-7)

    def test_double_loop_defaults(self, capsys):
        base = ("schedule", "--alpha", "1", "--L", "1", "--eps", "0.01", "--fgap0", "1")
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        assert run_cli(capsys, *base, "--zeta", "0.05", "--beta", "0", "--y0sq", "1") == (0, out, "")

    @pytest.mark.parametrize("flag,value", [
        ("--y0sq", "nan"), ("--zeta", "5"), ("--beta", "0.1"), ("--fgap0", "1"),
    ])
    def test_double_loop_flag_without_eps_is_exit_1(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "schedule", "--alpha", "1", "--L", "1", flag, value)
        assert code == 1
        assert err == f"gndopt: {flag} is read only with --eps\n"
        assert out == ""

    def test_invalid_certificate_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "schedule", "--alpha", "2", "--L", "1")
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("flags", [
        ("--r", "nan"), ("--fgap", "nan"), ("--alpha", "inf"), ("--L", "inf"),
        ("--eps", "nan", "--fgap0", "1"), ("--eps", "0.01", "--fgap0", "inf"),
        ("--eps", "0.01", "--fgap0", "1", "--y0sq", "nan"),
        ("--eps", "0.01", "--fgap0", "1", "--beta", "nan"),
    ])
    def test_non_finite_input_is_exit_1(self, capsys, flags):
        code, out, err = run_cli(capsys, "schedule", "--alpha", "1", "--L", "1", *flags)
        assert code == 1
        assert "must be finite" in err
        assert out == ""

    def test_csv_sidecar(self, capsys, tmp_path):
        target = tmp_path / "sched.csv"
        code, _, _ = run_cli(capsys, "schedule", "--alpha", "1", "--L", "1",
                             "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("eta,") for line in lines)


class TestCheck:
    def test_j2_report_with_condition_table(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--function", "j2", "--eps", "0.1",
                               "--R", "1", "--grid-points", "20000")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert abs(float(pairs["mu_q_hat"]) - 0.9) <= 1e-2
        assert pairs["NC_holds"] == "true"
        assert pairs["SC_holds"] == "true"

    def test_quadratic_report(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--function", "quadratic",
                               "--alpha", "1", "--d", "2", "--grid-points", "5000")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert float(pairs["mu_r_hat"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flags,message", [
        (["quadratic", "--alpha", "1", "--L", "nan"], "L must be finite, got nan"),
        (["quadratic", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["j1", "--n", "112", "--k", "2", "--grid-hi", "inf"], "--grid-hi must be finite, got inf"),
        (["rastrigin", "--a", "inf", "--b", "1", "--c", "1", "--d", "2", "--alpha", "1",
          "--L", "2"], "a must be finite, got inf"),
        (["j1", "--n", "7", "--k", "1", "--grid-points", "3"],
         "--grid-points must be an integer >= 4, got 3"),
        (["j1", "--n", "7", "--k", "1", "--grid-points", "0"],
         "--grid-points must be an integer >= 4, got 0"),
        (["quadratic", "--alpha", "1", "--d", "2", "--grid-points", "0"],
         "--grid-points must be a positive integer, got 0"),
        (["quadratic", "--n", "5"], "objective 'quadratic' got unknown keys ['n']"),
        (["j1", "--n", "112", "--k", "2", "--d", "3"], "objective 'j1' got unknown keys ['dim']"),
        (["quadratic", "--d", "0"], "dim must be a positive integer, got 0"),
    ], ids=["L-nan", "alpha-inf", "grid-hi-inf", "rastrigin-a-inf", "grid-points-3-d1",
            "grid-points-0-d1", "grid-points-0-d2", "n-unread-by-quadratic", "d-unread-by-j1",
            "d-zero"])
    def test_bad_input_is_exit_1(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "check", "--function", *flags)
        assert code == 1
        assert err == f"gndopt: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("d", ["1", "10"])
    @pytest.mark.parametrize("given", [["--alpha", "0.1"], ["--L", "3"], []],
                             ids=["no-L", "no-alpha", "neither"])
    def test_missing_certificate_flag_fails_before_the_grid(self, capsys, monkeypatch, d, given):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")
        monkeypatch.setattr(cli, "ball_shell_grid", no_grid)
        monkeypatch.setattr(cli, "symmetric_log_grid", no_grid)
        code, out, err = run_cli(capsys, "check", "--function", "rastrigin", "--a", "1",
                                 "--b", "1", "--c", "0.05", "--d", d, *given)
        assert (code, out) == (1, "")
        assert err == "gndopt: alpha and L are required when the objective has no certificate\n"

    def test_fewest_grid_points(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--function", "quadratic", "--grid-points", "4")
        assert code == 0
        assert "n_points=4\n" in out

    def test_flags_dests_and_types(self):
        check = _subcommands()["check"]
        assert {(flag, action.dest, action.type) for action in check._actions
                for flag in action.option_strings} == {
            ("-h", "help", None), ("--help", "help", None), ("--function", "function", None),
            ("--n", "n", int), ("--k", "k", int), ("--eps", "eps", float), ("--R", "R", float),
            ("--a", "a", float), ("--b", "b", float), ("--c", "c", float),
            ("--alpha", "alpha", float), ("--L", "L", float), ("--d", "dim", int),
            ("--grid-lo", "grid_lo", float), ("--grid-hi", "grid_hi", float),
            ("--grid-points", "grid_points", int), ("--seed", "seed", int), ("--csv", "csv", None)}
        (function,) = [action for action in check._actions if action.dest == "function"]
        assert sorted(function.choices) == ["j1", "j2", "quadratic", "rastrigin"]


class TestMoments:
    def test_small_draw_run(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--d", "2", "--draws", "20000",
                               "--seed", "42")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert float(pairs["m2_exact"]) == 1.0
        assert abs(float(pairs["m2_mc"]) - 1.0) <= 0.05

    @pytest.mark.tracemalloc
    def test_memory_stays_within_draw_ahead_budget(self, capsys):
        # 300000 draws of d = 10 are 24 MB of noise.  The chunks are the
        # draw-ahead budget's, squared in place: the peak is one chunk and its
        # (chunk,) norms.
        def peak(draws):
            tracemalloc.start()
            try:
                assert main(["moments", "--d", "10", "--draws", draws, "--seed", "42"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("10")  # first-call allocations are not part of the run below
        assert peak("300000") <= 1.5 * sampling._DRAW_AHEAD_BYTES
        capsys.readouterr()

    def test_bytes_do_not_depend_on_draw_ahead_budget(self, capsys, monkeypatch):
        # The budget sets the chunk: 26214 draws of d = 10 at 2 MiB, 819 at
        # 64 KiB, 7 at 560 bytes; the powered norms are added one draw at a time.
        def stdout(budget, draws):
            monkeypatch.setattr(sampling, "_DRAW_AHEAD_BYTES", budget)
            code, out, _ = run_cli(capsys, "moments", "--d", "10", "--draws", draws,
                                   "--seed", "42")
            assert code == 0
            return out

        assert stdout(2 * 2**20, "200000") == stdout(64 * 2**10, "200000")
        assert stdout(2 * 2**20, "3001") == stdout(560, "3001")

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_is_exit_1(self, capsys, draws):
        code, out, err = run_cli(capsys, "moments", "--d", "2", "--draws", draws)
        assert code == 1
        assert "draws" in err
        assert out == ""


class TestStbound:
    def test_reports_pair(self, capsys):
        code, out, _ = run_cli(capsys, "stbound", "--ell", "25", "--M", "50",
                               "--trials", "64")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert float(pairs["empirical_p"]) >= float(pairs["analytic_bound"])

    @pytest.mark.parametrize("flag,bad", [
        ("--x0", "nan"), ("--x0", "inf"), ("--ell", "nan"), ("--ell", "inf"),
        ("--r", "inf"), ("--alpha", "inf"),
    ])
    def test_non_finite_input_is_exit_1(self, capsys, flag, bad):
        code, out, err = run_cli(capsys, "stbound", "--ell", "25", "--M", "5",
                                 "--trials", "8", f"{flag}={bad}")
        assert code == 1
        assert "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trial_count_is_exit_1(self, capsys, trials):
        code, out, err = run_cli(capsys, "stbound", "--ell", "25", "--M", "5", "--trials", trials)
        assert code == 1
        assert err == f"gndopt: trials must be a positive integer, got {trials}\n"
        assert out == ""

    def test_zero_dim_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "stbound", "--ell", "25", "--M", "5", "--d", "0")
        assert (code, out, err) == (1, "", "gndopt: dim must be a positive integer, got 0\n")


_BASE = '[objective]\nfunction = "j1"\nn = 7\nk = 1\n\n[experiment]\ntrials = 4\n'


class TestRun:
    def test_missing_config_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "missing.toml")
        assert code == 2
        assert "cannot read config" in err

    def test_config_file_round_trip(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text(
            '[experiment]\n'
            'trials = 24\nseed = 7\nT = 30\ninit_low = -10\ninit_high = 10\n'
            'workers = 2\n\n'
            '[objective]\nfunction = "j1"\nn = 7\nk = 1\n\n'
            '[algorithm]\nalgorithm = "gnd"\neta = 0.4\ns = 0.5\nf_lb = 0\n'
        )
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(out_dir), "--quiet")
        assert code == 0
        assert err == ""  # --quiet silences progress
        assert (out_dir / "exp.csv").exists()
        assert (out_dir / "exp.svg").exists()
        body = (out_dir / "exp.csv").read_text()
        assert body.startswith("t,mse,ncp\n")
        assert len(body.strip().splitlines()) == 32

    def test_readme_config_example_runs(self, capsys, tmp_path):
        (example,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        assert "#" in example  # the inline comments are part of what is checked
        text = re.sub(r"(?m)^trials = \d+$", "trials = 8", example)
        text = re.sub(r"(?m)^T = \d+$", "T = 12", text)
        assert text != example
        cfg = tmp_path / "example.toml"
        cfg.write_text(text)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(out_dir), "--quiet")
        assert code == 0, err
        assert len((out_dir / "example.csv").read_text().strip().splitlines()) == 1 + 13

    def test_readme_lists_the_schema_keys(self):
        listed = {}
        for section, algo, keys in re.findall(
                r"(?m)^- `\[(\w+)\]`(?: with `algorithm = (\w+)`)?: (.*)$", README.read_text()):
            listed[algo or section] = re.findall(r"`(\w+)`", keys)
        assert listed == {name: list(keys) for name, keys in _SCHEMA.items()}

    @pytest.mark.parametrize("text,names", [
        (_BASE + "[algorithm]\neat = 0.9\n", ["'eat'", "[algorithm]", "eta, s, f_lb, T"]),
        (_BASE + "wokers = 4\n", ["'wokers'", "[experiment]", "workers"]),
        (_BASE + "[extra]\nx = 1\n", ["[extra]", "objective, algorithm, experiment"]),
        ("[DEFAULT]\ntrials = 4\n" + _BASE, ["[DEFAULT]", "objective, algorithm, experiment"]),
        ("[experiment]\ntrials = 4\n", ["[objective]"]),
        (_BASE + "[algorithm]\nalgorithm = gd\ns = 0.5\n", ["'s'", "[algorithm]", "eta, T"]),
        (_BASE + "[algorithm]\nalgorithm = dlgnd\nT = 5\n", ["'T'", "[algorithm]", "T1, T2"]),
        (_BASE + "T = 5\n[algorithm]\nalgorithm = dlgnd\n", ["'T'", "[algorithm]", "T1, T2"]),
        (_BASE + "T = 5\n[algorithm]\nT = 5\n", ["[experiment]", "[algorithm]"]),
        (_BASE.replace("trials = 4", "trials = 4.5"), ["[experiment] trials", "4.5"]),
        (_BASE.replace("n = 7", "n = seven"), ["[objective] n", "seven"]),
        (_BASE + "[algorithm]\neta = fast\n", ["[algorithm] eta", "fast"]),
        (_BASE + "seed = 1\nseed = 2\n", ["malformed", "seed"]),
        ("trials = 4\n", ["malformed", "section header"]),
        (_BASE + "name = ../escaped\n", ["[experiment] name", "'../escaped'", "plain file name"]),
        (_BASE + "name = sub/run\n", ["[experiment] name", "'sub/run'", "plain file name"]),
        (_BASE + "name = sub\\run\n", ["[experiment] name", "plain file name"]),
        (_BASE + "name = .\n", ["[experiment] name", "'.'", "plain file name"]),
        (_BASE + "name = ..\n", ["[experiment] name", "'..'", "plain file name"]),
        (_BASE + "name =\n", ["[experiment] name", "''", "plain file name"]),
    ], ids=["typo-eta", "typo-workers", "unknown-section", "default-section", "no-objective",
            "s-under-gd", "T-under-dlgnd", "T-in-experiment-with-dlgnd", "T-twice",
            "float-trials", "word-n", "word-eta", "duplicate-key", "no-section-header",
            "name-parent", "name-slash", "name-backslash", "name-dot", "name-dotdot",
            "name-empty"])
    def test_bad_config_is_exit_1(self, capsys, tmp_path, text, names):
        cfg = tmp_path / "bad.toml"
        cfg.write_text(text)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(out), "--quiet")
        assert code == 1
        assert err.startswith("gndopt: ") and "Traceback" not in err
        for name in names:
            assert name in err
        assert list(tmp_path.iterdir()) == [cfg]  # nothing written, in --out or beside it

    @pytest.mark.parametrize("algo,length", [("gnd", ["--T", "15"]), ("dlgnd", ["--N", "2"]),
                                             ("gd", ["--T", "15"])], ids=["gnd", "dlgnd", "gd"])
    def test_sidecar_reruns_the_bench(self, capsys, tmp_path, algo, length):
        bench, rerun = tmp_path / "bench", tmp_path / "rerun"
        code, _, _ = run_cli(capsys, "bench", "j1-7-1", "--algo", algo, "--trials", "12",
                             *length, "--seed", "5", "--r", "0.2",
                             "--out", str(bench), "--quiet")
        assert code == 0
        code, _, err = run_cli(capsys, "run", str(bench / f"j1-7-1-{algo}.config"),
                               "--out", str(rerun), "--quiet")
        assert code == 0, err
        for suffix in (".csv", ".svg"):
            name = f"j1-7-1-{algo}{suffix}"
            assert (rerun / name).read_bytes() == (bench / name).read_bytes()

    @pytest.mark.parametrize("objective,message", [
        ('function = "rastrigin"\na = 1\nb = 1\nc = inf\ndim = 2\n', "c must be finite, got inf"),
        ('function = "quadratic"\nalpha = inf\ndim = 2\n', "alpha must be finite, got inf"),
        ('function = "j2"\neps = 0.1\nR = inf\n', "R must be finite, got inf"),
    ], ids=["rastrigin-c", "quadratic-alpha", "j2-R"])
    def test_non_finite_objective_parameter_is_exit_1(self, capsys, tmp_path, objective, message):
        cfg = tmp_path / "exp.toml"
        cfg.write_text(f"[objective]\n{objective}\n[experiment]\ntrials = 4\nT = 5\n")
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(tmp_path), "--quiet")
        assert code == 1
        assert err == f"gndopt: {message}\n"

    @pytest.mark.parametrize("objective", [
        'function = "quadratic"\nalpha = 1\ndim = 0\n',
        'function = "rastrigin"\na = 1\nb = 1\nc = 0.05\ndim = 0\n',
    ], ids=["quadratic", "rastrigin"])
    def test_zero_dim_is_named_as_dim(self, capsys, tmp_path, objective):
        cfg = tmp_path / "exp.toml"
        cfg.write_text(f"[objective]\n{objective}\n[experiment]\ntrials = 4\nT = 5\n")
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(tmp_path), "--quiet")
        assert code == 1
        assert err == "gndopt: dim must be a positive integer, got 0\n"

    def test_bad_algorithm_is_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('[objective]\nfunction = "j1"\nn = 7\nk = 1\n\n'
                       '[algorithm]\nalgorithm = "adam"\n')
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 1
        assert "adam" in err


class TestBench:
    def test_unknown_name_lists_valid_ones(self, capsys):
        code, _, err = run_cli(capsys, "bench", "nope")
        assert code == 1
        assert "j1-7-1" in err and "rast2d-c01" in err

    def test_small_bench_writes_outputs_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "bench", "j1-7-1", "--algo", "gnd",
                             "--trials", "16", "--T", "20", "--seed", "3",
                             "--out", str(out), "--quiet")
        assert code == 0
        assert (out / "j1-7-1-gnd.csv").exists()
        assert (out / "j1-7-1-gnd.svg").exists()
        assert (out / "j1-7-1-gnd.config").read_text() == (
            "[objective]\nfunction = j1\nn = 7\nk = 1\n\n"
            "[algorithm]\nalgorithm = gnd\neta = 0.4\ns = 0.5\nf_lb = 0.0\nT = 20\n\n"
            "[experiment]\ntrials = 16\nseed = 3\nthreshold = 0.001\nworkers = 1\n"
            "init_low = -10.0\ninit_high = 10.0\nsg_noise_r = 0.0\n")

    def test_progress_line_states_the_work(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bench", "j1-7-1", "--trials", "6", "--T", "4",
                               "--out", str(tmp_path))
        assert code == 0
        assert err.splitlines()[0] == ("running j1-7-1-gnd: trials=6 iterations=4 work: "
                                       "value=54 gradient=24 normals=24 uniforms=6 streams=6")

    def test_repeat_identical_and_worker_invariant(self, capsys, tmp_path):
        outs = []
        for name, extra in (("a", []), ("b", []), ("w1", ["--workers", "1"]),
                            ("w8", ["--workers", "8"])):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "bench", "j1-7-1", "--algo", "gnd",
                                 "--trials", "48", "--T", "25", "--seed", "7",
                                 "--out", str(out), "--quiet", *extra)
            assert code == 0
            outs.append((out / "j1-7-1-gnd.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3]

    @pytest.mark.parametrize("algo,flag,bad", [
        ("gnd", "--r", "nan"), ("gnd", "--r", "inf"), ("gnd", "--f-lb", "nan"),
        ("gnd", "--f-lb", "-inf"), ("gnd", "--s", "inf"), ("gnd", "--s", "nan"),
        ("gnd", "--eta", "inf"), ("gnd", "--threshold", "nan"),
        ("gnd", "--threshold", "inf"), ("dlgnd", "--f-lb0", "nan"),
        ("dlgnd", "--s", "inf"),
    ])
    def test_non_finite_flag_is_exit_1(self, capsys, tmp_path, algo, flag, bad):
        length = {"gnd": ["--T", "5"], "dlgnd": ["--N", "2"]}[algo]
        code, _, err = run_cli(capsys, "bench", "j1-7-1", "--algo", algo, "--trials", "4",
                               *length, "--out", str(tmp_path), "--quiet", f"{flag}={bad}")
        assert code == 1
        assert "must be finite" in err
        assert not (tmp_path / f"j1-7-1-{algo}.csv").exists()

    @pytest.mark.parametrize("algo,flags,keys", [
        ("gnd", ["--N", "2"], "eta, s, f_lb, T"),
        ("dlgnd", ["--T", "5"], "eta, s, f_lb0, gamma, N, T1, T2"),
        ("gd", ["--s", "0.5"], "eta, T"),
    ], ids=["gnd", "dlgnd", "gd"])
    def test_unread_flag_is_exit_1(self, capsys, tmp_path, algo, flags, keys):
        code, _, err = run_cli(capsys, "bench", "j1-7-1", "--algo", algo, "--trials", "4",
                               *flags, "--out", str(tmp_path / "out"), "--quiet")
        assert code == 1
        assert err == f"gndopt: {flags[0]} is not read by {algo}; its keys: {keys}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_init_box_in_config_is_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('[experiment]\ntrials = 4\nT = 5\ninit_low = nan\n\n'
                       '[objective]\nfunction = "j1"\nn = 7\nk = 1\n')
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(tmp_path), "--quiet")
        assert code == 1
        assert err == "gndopt: init_low must be finite, got nan\n"

    def test_dlgnd_bench_runs(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "bench", "rast2d-c01", "--algo", "dlgnd",
                             "--trials", "8", "--N", "3", "--out", str(out), "--quiet")
        assert code == 0
        body = (out / "rast2d-c01-dlgnd.csv").read_text()
        assert len(body.strip().splitlines()) == 1 + 100 + 3 * 10 + 1
        assert (out / "rast2d-c01-dlgnd.config").read_text() == (
            "[objective]\nfunction = rastrigin\na = 1.0\nb = 1.0\nc = 0.01\ndim = 2\n\n"
            "[algorithm]\nalgorithm = dlgnd\neta = 1.5\ns = 3.0\nf_lb0 = -20.0\n"
            "gamma = 0.03\nN = 3\nT1 = 100\nT2 = 10\n\n"
            "[experiment]\ntrials = 8\nseed = 0\nthreshold = 0.001\nworkers = 1\n"
            "init_low = -20.0\ninit_high = 20.0\nsg_noise_r = 0.0\n")

    def test_gd_bench_runs(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "bench", "j1-7-1", "--algo", "gd",
                             "--trials", "8", "--T", "10", "--out", str(out), "--quiet")
        assert code == 0
        assert (out / "j1-7-1-gd.csv").exists()


@st.composite
def _accepted_configs(draw):
    """Sections of a config the schema accepts, with trials <= 4 and at most 5 iterations."""
    algo = draw(st.sampled_from(["gnd", "gd", "dlgnd"]))
    objective = dict(draw(st.sampled_from([
        dict(function="j1", n=7, k=1), dict(function="j2", eps=0.1, R=1.0),
        dict(function="quadratic", alpha=1.0, dim=2),
        dict(function="rastrigin", a=1.0, b=1.0, c=0.05, dim=2)])))
    algorithm = dict(algorithm=algo, eta=draw(st.floats(0.01, 5.0)))
    if algo != "gd":
        algorithm["s"] = draw(st.floats(0.0, 5.0))
    if algo == "gnd":
        algorithm["f_lb"] = draw(st.floats(-10.0, 10.0))
    if algo == "dlgnd":
        algorithm.update(f_lb0=draw(st.floats(-20.0, 0.0)), gamma=draw(st.floats(0.01, 0.99)),
                         N=draw(st.integers(1, 2)), T1=draw(st.integers(1, 3)), T2=1)
    low = draw(st.floats(-20.0, 20.0))
    experiment = dict(trials=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)),
                      threshold=draw(st.floats(1e-6, 10.0)), workers=draw(st.integers(1, 8)),
                      init_low=low, init_high=low + draw(st.floats(0.0, 20.0)),
                      sg_noise_r=draw(st.floats(0.0, 2.0)))
    if algo != "dlgnd":
        (experiment if draw(st.booleans()) else algorithm)["T"] = draw(st.integers(0, 5))
    for key in draw(st.sets(st.sampled_from(["eta", "s", "f_lb", "f_lb0", "gamma", "seed",
                                             "threshold", "workers", "sg_noise_r"]))):
        algorithm.pop(key, None)  # the j1-7-1 default applies
        experiment.pop(key, None)
    return dict(objective=objective, algorithm=algorithm, experiment=experiment)


def _run_config(sections):
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {val}\n" for key, val in values.items())
                   for name, values in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.toml"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", tmp, "--quiet"])
        csv = (Path(tmp) / "exp.csv").read_text() if code == 0 else None
    return code, err.getvalue(), csv


@settings(max_examples=40, deadline=None)
@given(_accepted_configs())
def test_accepted_config_runs_finite_or_diverges(sections):
    code, err, csv = _run_config(sections)
    assert code in (0, 3), err
    if code == 0:
        table = np.loadtxt(csv.splitlines(), delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(table))


def _parses(cast, raw):
    try:
        cast(raw)
    except ValueError:
        return False
    return True


def _types(sections, section):
    if section == "algorithm":
        return {"algorithm": str, **_SCHEMA[sections["algorithm"]["algorithm"]]}
    return _SCHEMA[section]


@settings(max_examples=40, deadline=None)
@given(_accepted_configs(), st.data())
def test_unknown_key_or_unparseable_value_is_exit_1(sections, data):
    section = data.draw(st.sampled_from(sorted(sections)))
    values = sections[section]
    types = _types(sections, section)
    numeric = [key for key in values if types[key] is not str]
    if not numeric or data.draw(st.booleans()):
        key = data.draw(st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True)
                        .filter(lambda k: k not in types))
    else:
        key = data.draw(st.sampled_from(numeric))
    values[key] = data.draw(st.text(string.ascii_letters + string.digits + ".,-", min_size=1,
                                    max_size=8).filter(lambda v: not _parses(types.get(key, int), v)))
    code, err, _ = _run_config(sections)
    assert code == 1
    assert err.startswith("gndopt: ") and key in err


@settings(max_examples=40, deadline=None)
@given(_accepted_configs(), st.data())
def test_non_finite_float_key_is_exit_1(sections, data):
    section, key = data.draw(st.sampled_from([
        (section, key) for section, values in sections.items() for key in values
        if _types(sections, section)[key] is float]))
    bad = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    sections[section][key] = bad
    code, err, _ = _run_config(sections)
    assert code == 1
    assert err == f"gndopt: {key} must be finite, got {bad}\n"


def test_module_entry_point():
    import os
    import subprocess
    import sys

    import gndopt
    # the child imports the same package as this test, installed or not
    src = str(Path(gndopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gndopt", "schedule",
                           "--alpha", "1", "--L", "1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "eta=0.4" in proc.stdout
