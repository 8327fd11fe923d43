"""Set-up cost of one workload in a fresh interpreter.

Run as ``python3 benchmarks/setup_probe.py <workload> <seed>``: imports
gndopt, parses the workload's arguments and builds its objective, then
prints the monotonic clock (``time.perf_counter``) at the moment the run
could start.  The caller subtracts its own clock reading taken just before it
started this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports gndopt from the path above)

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print(repr(time.perf_counter()))
