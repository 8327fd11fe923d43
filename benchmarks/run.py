"""gndopt benchmark: one workload, one seed, timed or traced.

    python3 benchmarks/run.py --workload j1-gnd --seed 0 --seconds 36 --trace 0

Run from the repository root; gndopt is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run reports
the end-to-end metrics of ``BENCHMARK.json``: one warm-up run whose bytes are
checked against ``reference.json`` (at a covered seed if ``--seed`` is not
one), then timed runs until ``--seconds`` have passed, each followed by one
fresh-interpreter set-up.
Times are the fastest of those samples: on a shared machine whose speed drifts
with other tenants' load, the fastest sample is the steadiest estimate of the
program's own cost (README.md gives the numbers).  With ``--trace 1`` it
alternates untraced and traced runs for ``--seconds`` and reports the median
per-layer metrics, the tracing overhead and the layer probes.  Every run's
output bytes pass the correctness gate; a run that raises or fails the gate
counts as failed, and any failure makes the process exit 1 after printing the
result.

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it list each metric with its unit and the
machine record.  A detailed record (every run, output digests, spans) goes to
``.benchmarks_out/`` under the repository root.
"""

from __future__ import annotations

import os

# One thread everywhere, so that the numbers measure the program, not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmarks_out"
MIN_SETUPS = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description="gndopt benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(gndopt) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "gndopt": gndopt.__version__,
            "loadavg_1m_before": os.getloadavg()[0]}


def _setup_seconds(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload is ready to run."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _layer_metrics(totals: dict, work) -> dict:
    val, grad = totals["objectives.value"], totals["objectives.gradient"]
    nor, uni = totals["sampling.normals"], totals["sampling.uniforms"]
    streams = totals["sampling.stream_open"]
    row_iters = work.row_iters
    return {
        "objectives.value_calls": val["calls"],
        "objectives.value_rows": val["rows"],
        "objectives.value_s": val["s"],
        "objectives.value_ns_per_row": _ratio(val["s"], val["rows"]) * 1e9,
        "objectives.value_evals_per_row_iter": _ratio(val["rows"], row_iters),
        "objectives.gradient_calls": grad["calls"],
        "objectives.gradient_rows": grad["rows"],
        "objectives.gradient_s": grad["s"],
        "objectives.gradient_ns_per_row": _ratio(grad["s"], grad["rows"]) * 1e9,
        "sampling.normals_calls": nor["calls"],
        "sampling.normals_drawn": nor["rows"],
        "sampling.normals_s": nor["s"],
        "sampling.ns_per_normal": _ratio(nor["s"], nor["rows"]) * 1e9,
        "sampling.normals_per_call": _ratio(nor["rows"], nor["calls"]),
        "sampling.normals_per_row_iter": _ratio(nor["rows"], row_iters),
        "sampling.uniforms_drawn": uni["rows"],
        "sampling.streams_opened": streams["calls"],
        "sampling.stream_open_s": streams["s"],
        "solver.self_s": totals["solver.self_s"],
        "solver.row_iters": row_iters,
        "solver.self_ns_per_row_iter": _ratio(totals["solver.self_s"], row_iters) * 1e9,
        "experiments.run_monte_carlo_s": totals["experiments.run_monte_carlo"]["s"],
        "experiments.write_csv_s": totals["experiments.write_csv"]["s"],
        "experiments.write_svg_s": totals["experiments.write_svg"]["s"],
    }


def _count_problems(totals: dict, work) -> list[str]:
    """Counted work against the work the draw-order contract implies."""
    problems = []
    for span, want in work.derived_counts().items():
        got = totals[span]["calls" if span == "sampling.stream_open" else "rows"]
        if got != want:
            problems.append(f"{span}: counted {got}, derived {want}")
    return problems


class Bench:
    """One benchmark process: runs, gates and tallies the runs of one workload."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.objective = workload.prepare(seed)
        self.work = None   # read back after the first run
        self.out_dir = OUT / f"{workload.name}-seed{seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict = {}   # seed -> output bytes of its first run that passed the gate

    @property
    def reference(self):
        return self.outputs.get(self.seed)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"benchmark: FAILED: {message}", file=sys.stderr)

    def run_once(self, tracer=None, seed=None):
        """One run (at ``seed``, default the bench's); returns (wall_s, cpu_s) or None."""
        seed = self.seed if seed is None else seed
        self.attempted += 1
        try:
            if tracer is None:
                w0, c0 = perf_counter(), process_time()
                collect = self.workload.run(seed, self.out_dir)
                wall, cpu = perf_counter() - w0, process_time() - c0
            else:
                with tracer.installed():
                    w0, c0 = perf_counter(), process_time()
                    collect = self.workload.run(seed, self.out_dir)
                    wall, cpu = perf_counter() - w0, process_time() - c0
            outputs = collect()
            if self.work is None:
                self.work = self.workload.work(self.objective, self.out_dir)
        except Exception:  # a run that raises is a failed operation, reported in full
            self._fail(traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc()
            return None
        first = self.outputs.get(seed)
        if first is None:
            problems = self.workload.check(seed, self.work, outputs)
            if problems:
                self._fail(f"seed {seed}: " + "; ".join(problems))
                return None
            self.outputs[seed] = outputs
        elif outputs != first:
            kind = "traced" if tracer is not None else "repeated"
            self._fail(f"{kind} run output bytes differ from the first run's")
            return None
        return wall, cpu

    def warm_up(self):
        """The untimed first run, its bytes checked against reference.json.

        At a seed that reference.json does not cover, this run is made at a
        covered seed instead, so that every process compares output bytes
        with known-good ones before it times anything.
        """
        from workloads import reference_seed

        known = reference_seed(self.workload.name, self.seed)
        if known != self.seed:
            print(f"benchmark: seed {self.seed} has no reference digests; "
                  f"warm-up bytes checked at seed {known}", file=sys.stderr)
        return self.run_once(seed=known)


def _timed(bench: Bench, seconds: float) -> tuple[dict, dict]:
    name, seed = bench.workload.name, bench.seed
    _setup_seconds(name, seed)  # unmeasured: warms the file cache
    warm = bench.warm_up()
    walls, cpus, setups, steps = [], [], [], []
    start = perf_counter()
    while warm and (not steps or perf_counter() - start + statistics.median(steps) <= seconds):
        t0 = perf_counter()
        got = bench.run_once()
        if got is None:
            break
        walls.append(got[0])
        cpus.append(got[1])
        setups.append(_setup_seconds(name, seed))  # spread over the window, like the runs
        steps.append(perf_counter() - t0)
    while walls and len(setups) < MIN_SETUPS:
        setups.append(_setup_seconds(name, seed))
    detail = {"warmup_wall_s": warm and warm[0], "wall_s": walls, "cpu_s": cpus, "setup_s": setups}
    if not walls:
        return {}, detail
    metrics = {
        "wall_s": min(walls),
        "trial_iters_per_s": bench.work.row_iters / min(walls),
        "cpu_s": min(cpus),
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "miss_frac": bench.workload.miss_frac(bench.work, bench.reference),
    }
    return metrics, detail


def _traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from probes import run_probes
    from tracing import Tracer, layer_totals

    warm = bench.warm_up()
    plain, traced, layers, last = [], [], [], None
    start = perf_counter()
    while warm and (not traced or perf_counter() - start + statistics.median(
            p + t for p, t in zip(plain, traced)) <= seconds):
        got = bench.run_once()
        tracer = Tracer()
        got_traced = got and bench.run_once(tracer)
        if not got_traced:
            break
        totals = layer_totals(tracer)
        problems = _count_problems(totals, bench.work)
        if problems:
            bench._fail("; ".join(problems))
            break
        plain.append(got[0])
        traced.append(got_traced[0])
        layers.append(_layer_metrics(totals, bench.work))
        last = tracer
    detail = {"untraced_wall_s": plain, "traced_wall_s": traced}
    if not traced:
        return {}, detail
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["experiments.output_bytes"] = sum(len(b) for b in bench.reference.values())
    metrics["trace.overhead_s"] = min(traced) - min(plain)
    metrics.update(run_probes(bench.seed))
    numpy.savez_compressed(bench.out_dir / "spans.npz", names=numpy.array(last.names),
                           **last.arrays())
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gndopt" / "__init__.py").is_file():
        print(f"benchmark: gndopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gndopt
    from workloads import WORKLOADS, digests, reference_seed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = _environment(gndopt)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    measure = _traced if args.trace else _timed
    metrics, detail = measure(bench, args.seconds)
    env["loadavg_1m_after"] = os.getloadavg()[0]

    names = {m["name"] for m in wanted}
    if metrics and set(metrics) != names:
        raise SystemExit(f"benchmark: metrics disagree with BENCHMARK.json: missing "
                         f"{sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}")
    correct = bench.failed == 0 and bool(metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "runs": detail, "problems": bench.problems,
        "reference_seed": reference_seed(args.workload, args.seed),
        "digests": {str(seed): digests(out) for seed, out in bench.outputs.items()},
    }
    (bench.out_dir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("environment", "reference_seed", "digests")}))
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in wanted if m["name"] in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
