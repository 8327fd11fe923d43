import re
from pathlib import Path

import pytest

from gndopt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestMoments:
    def test_small_draw_run(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--d", "2", "--draws", "20000",
                               "--seed", "42")
        assert code == 0
        pairs = dict(line.split("=") for line in out.strip().splitlines())
        assert float(pairs["m2_exact"]) == 1.0
        assert abs(float(pairs["m2_mc"]) - 1.0) <= 0.05


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
        sidecar = (out / "j1-7-1-gnd.config").read_text()
        assert "eta = 0.4" in sidecar
        assert "trials = 16" in sidecar

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
        code, _, err = run_cli(capsys, "bench", "j1-7-1", "--algo", algo, "--trials", "4",
                               "--T", "5", "--N", "2", "--out", str(tmp_path), "--quiet",
                               f"{flag}={bad}")
        assert code == 1
        assert "must be finite" in err
        assert not (tmp_path / f"j1-7-1-{algo}.csv").exists()

    def test_non_finite_init_box_in_config_is_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('[experiment]\ntrials = 4\nT = 5\ninit_low = nan\n\n'
                       '[objective]\nfunction = "j1"\nn = 7\nk = 1\n')
        code, _, err = run_cli(capsys, "run", str(cfg), "--out", str(tmp_path), "--quiet")
        assert code == 1
        assert "init box" in err

    def test_dlgnd_bench_runs(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "bench", "rast2d-c01", "--algo", "dlgnd",
                             "--trials", "8", "--N", "3", "--out", str(out), "--quiet")
        assert code == 0
        body = (out / "rast2d-c01-dlgnd.csv").read_text()
        assert len(body.strip().splitlines()) == 1 + 100 + 3 * 10 + 1

    def test_gd_bench_runs(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "bench", "j1-7-1", "--algo", "gd",
                             "--trials", "8", "--T", "10", "--out", str(out), "--quiet")
        assert code == 0
        assert (out / "j1-7-1-gd.csv").exists()


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
