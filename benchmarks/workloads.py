"""The three benchmark workloads, their correctness gate and their derived counts.

Two ensemble workloads, ``j1-gnd`` and ``rast10d-gnd``, enter through the CLI,
``gndopt.cli.main(["bench", ...])``, exactly as a user would.  Each run leaves
a CSV, an SVG and the CLI's ``.config`` sidecar; the size of the work (trials,
iterations, init box) is read back from that sidecar, so the counts and the
gate follow what the CLI ran.  The third, ``dlgnd-single``, runs
``gndopt.solver.dlgnd_run`` sequentially at batch size 1.  Every name the
tracer replaces (``gndopt.solver.dlgnd_run``,
``gndopt.objectives.make_objective``) is looked up at call time so that a
traced run goes through the wrappers.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gndopt.cli
import gndopt.objectives
import gndopt.solver
from gndopt.sampling import RngStream, SgOracle
from gndopt.solver import DlGndConfig

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

LB_TOLERANCE = 1e-2  # criterion 7: |f_lb^N - f*| <= 1e-2


@dataclass(frozen=True)
class Work:
    """The size of one workload run, from which the gate and the exact counts follow."""

    objective: object
    trajectories: int
    stages: tuple  # iterations of each inner GND run of one trajectory, in order
    box: tuple  # (low, high) of each coordinate of the uniform initial points
    threshold: float = 1e-3

    @property
    def row_iters(self) -> int:
        return self.trajectories * sum(self.stages)

    def derived_counts(self) -> dict:
        """Exact work implied by the draw-order contract for r = 0 and s > 0."""
        d, m, stages = self.objective.dim, self.trajectories, self.stages
        return {
            "sampling.normals": m * sum(stages) * d,
            "sampling.uniforms": m * d,
            "sampling.stream_open": m,
            "objectives.value": m * sum(2 * t + 1 for t in stages),
            "objectives.gradient": m * sum(stages),
        }


def digests(outputs: dict) -> dict:
    return {name: hashlib.sha1(data).hexdigest() for name, data in sorted(outputs.items())}


def reference_seed(workload: str, seed: int) -> int:
    """``seed`` if reference.json holds its digests, else a covered seed picked by it."""
    covered = sorted(int(s) for s in REFERENCE[workload])
    return seed if seed in covered else covered[seed % len(covered)]


def _reference_problems(workload: str, seed: int, outputs: dict) -> list[str]:
    ref = REFERENCE.get(workload, {}).get(str(seed))
    if ref is None:
        return []
    got = digests(outputs)
    return [f"{name} sha1 {got.get(name)} != reference {want}"
            for name, want in ref.items() if got.get(name) != want]


@dataclass(frozen=True)
class Ensemble:
    """``gndopt bench <preset> --algo <algo> <flags>``; later flags override earlier ones."""

    name: str
    preset: str
    algo: str
    flags: tuple

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["bench", self.preset, "--algo", self.algo, "--seed", str(seed),
                "--workers", "1", "--out", str(out_dir), "--quiet", *self.flags]

    def prepare(self, seed: int):
        """The CLI's own set-up steps: parse the arguments and build the objective."""
        args = gndopt.cli.build_parser().parse_args(self.argv(seed, Path("unused")))
        return gndopt.objectives.make_objective(**gndopt.cli.BENCH_PRESETS[args.name]["objective"])

    def run(self, seed: int, out_dir: Path):
        """Run the workload; returns a callable that collects its output bytes."""
        code = gndopt.cli.main(self.argv(seed, out_dir))
        if code != 0:
            raise RuntimeError(f"gndopt bench exited with code {code}")
        stem = out_dir / f"{self.preset}-{self.algo}"
        return lambda: {"csv": stem.with_suffix(".csv").read_bytes(),
                        "svg": stem.with_suffix(".svg").read_bytes()}

    def work(self, objective, out_dir: Path) -> Work:
        """Trials, iterations and init box as the CLI wrote them to its ``.config`` sidecar."""
        cfg = configparser.ConfigParser()
        cfg.read_string((out_dir / f"{self.preset}-{self.algo}.config").read_text())
        alg, exp = cfg["algorithm"], cfg["experiment"]
        if alg["algorithm"] == "dlgnd":
            stages = (alg.getint("T1"),) + (alg.getint("T2"),) * alg.getint("N")
        else:
            stages = (alg.getint("T"),)
        return Work(objective, exp.getint("trials"), stages,
                    (exp.getfloat("init_low"), exp.getfloat("init_high")),
                    exp.getfloat("threshold"))

    @staticmethod
    def _table(outputs: dict) -> np.ndarray:
        return np.loadtxt(outputs["csv"].decode().splitlines(), delimiter=",", skiprows=1, ndmin=2)

    def check(self, seed: int, work: Work, outputs: dict) -> list[str]:
        problems = _reference_problems(self.name, seed, outputs)
        if not outputs["csv"].startswith(b"t,mse,ncp\n"):
            return problems + ["CSV header is not t,mse,ncp"]
        table = self._table(outputs)
        t, mse, ncp = table[:, 0], table[:, 1], table[:, 2]
        if not np.array_equal(t, np.arange(sum(work.stages) + 1)):
            problems.append("CSV iteration column is not 0..T")
        if not np.all(np.isfinite(mse)):
            problems.append("mse is not finite")
        if not np.all((ncp >= 0.0) & (ncp <= 1.0)):
            problems.append("ncp leaves [0, 1]")
        # Row 0 recomputed from the draw-order contract: trial i's first d
        # uniforms on stream (seed, i) place x_0 in the init box.
        low, high = work.box
        x0 = np.array([low + (high - low) * RngStream(seed, i).uniforms(work.objective.dim)
                       for i in range(work.trajectories)])
        dist2 = np.sum((x0 - work.objective.minimizer) ** 2, axis=-1)
        if not math.isclose(mse[0], dist2.mean(), rel_tol=1e-12):
            problems.append(f"mse[0] {mse[0]!r} != recomputed {dist2.mean()!r}")
        if ncp[0] != np.count_nonzero(dist2 > work.threshold**2) / work.trajectories:
            problems.append("ncp[0] disagrees with the recomputed initial points")
        return problems

    def miss_frac(self, work: Work, outputs: dict) -> float:
        """N-CP averaged over iterations 0..T (the area under the N-CP curve)."""
        return float(self._table(outputs)[:, 2].mean())


CRITERION_7 = DlGndConfig(eta=1.5, s=3.0, f_lb0=-20.0, gamma=0.03, N=490, T1=100, T2=10)


@dataclass(frozen=True)
class Single:
    """Sequential ``dlgnd_run`` calls at batch size 1 on the criterion-7 config."""

    name: str
    runs: int
    box = (-20.0, 20.0)

    def prepare(self, seed: int):
        return gndopt.objectives.make_objective("rastrigin", a=1.0, b=1.0, c=0.01, dim=2)

    def run(self, seed: int, out_dir: Path):
        """Run the workload; returns a callable that collects its output bytes."""
        objective = self.prepare(seed)
        oracle = SgOracle(objective, 0.0)
        low, high = self.box
        lbs, mins = [], []
        for i in range(self.runs):
            rng = RngStream(seed, i)
            x0 = low + (high - low) * rng.uniforms(objective.dim)
            trace = gndopt.solver.dlgnd_run(objective, oracle, x0, CRITERION_7, rng)
            lbs.append(trace.lb_history)
            mins.append(trace.min_values)
        return lambda: {"lb_history": np.stack(lbs).tobytes(),
                        "min_values": np.stack(mins).tobytes()}

    def work(self, objective, out_dir: Path) -> Work:
        cfg = CRITERION_7
        return Work(objective, self.runs, (cfg.T1,) + (cfg.T2,) * cfg.N, self.box)

    def _arrays(self, outputs: dict):
        return (np.frombuffer(outputs["lb_history"]).reshape(self.runs, -1),
                np.frombuffer(outputs["min_values"]).reshape(self.runs, -1))

    def check(self, seed: int, work: Work, outputs: dict) -> list[str]:
        problems = _reference_problems(self.name, seed, outputs)
        lb, mv = self._arrays(outputs)
        if lb.shape[1] != CRITERION_7.N + 1:
            return problems + [f"lb_history has {lb.shape[1]} entries, want N+1"]
        if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(mv))):
            problems.append("lb_history or min_values is not finite")
        if not np.all(lb[:, 0] == CRITERION_7.f_lb0):
            problems.append("lb_history does not start at f_lb0")
        # Each inner run starts from the running best point, so the best
        # value can never increase from one outer loop to the next.
        if not np.all(np.diff(mv, axis=1) <= 0.0):
            problems.append("min_values increase across outer loops")
        return problems

    def miss_frac(self, work: Work, outputs: dict) -> float:
        """Share of (run, outer loop) pairs with |f_lb^nu - f*| > 1e-2, nu = 0..N."""
        lb, _ = self._arrays(outputs)
        return float(np.mean(np.abs(lb - work.objective.min_value) > LB_TOLERANCE))


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Ensemble("j1-gnd", "j1-112-2", "gnd", ("--T", "300")),
    Ensemble("rast10d-gnd", "rast10d-c05", "gnd", ("--T", "1000")),
    Single("dlgnd-single", 10),
)}
