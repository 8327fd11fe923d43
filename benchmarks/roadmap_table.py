"""One-off reproduction of the full-scale timings table in ROADMAP open item 1.

    python3 benchmarks/roadmap_table.py

Runs each full preset-scale ensemble through the benchmark's own harness
(``Bench``: the CLI entry point, timed with ``perf_counter``/``process_time``,
outputs gated) and prints one Markdown row per configuration with the median
and range of its ``REPS`` timed runs at ``SEED``.  Not a workload: it takes
minutes and is run by hand when the table in ``benchmarks/README.md`` is
refreshed.
"""

import statistics
import sys

import run

REPS = 3
SEED = 0
TABLE = (
    ("rast2d-c01 GND, 2000 x 5000, workers=1", "rast2d-c01", "gnd", ()),
    ("rast2d-c01 GND, 2000 x 5000, workers=2", "rast2d-c01", "gnd", ("--workers", "2")),
    ("rast2d-c01 DL-GND, 2000 x 5000", "rast2d-c01", "dlgnd", ()),
    ("j1-112-2 GND, 2000 x 1200", "j1-112-2", "gnd", ()),
    ("rast10d-c05 GND, 2000 x 8000", "rast10d-c05", "gnd", ()),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import Ensemble, digests

    print("| Configuration | wall s (median, range) | cpu s | trial-iters/s | CSV sha1 |")
    print("|---|---|---|---|---|")
    for label, preset, algo, flags in TABLE:
        bench = run.Bench(Ensemble(f"table-{preset}-{algo}", preset, algo, flags), SEED)
        timings = [bench.run_once() for _ in range(REPS)]
        if bench.failed:
            print(f"| {label} | FAILED: {'; '.join(bench.problems)} | | | |")
            return 1
        walls = [w for w, _ in timings]
        wall = statistics.median(walls)
        print(f"| {label} | {wall:.2f} ({min(walls):.2f}-{max(walls):.2f}) "
              f"| {statistics.median(c for _, c in timings):.2f} "
              f"| {bench.work.row_iters / wall:,.0f} "
              f"| {digests(bench.reference)['csv'][:12]} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
