"""Direct timed calls into the objectives and sampling layers.

Each probe times one public callable on a fixed input and reports the median
cost per row (objectives), per normal (sampling) or per construction (streams).
Inputs are drawn from the benchmark seed, inside the presets' init boxes.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from gndopt.objectives import make_objective
from gndopt.sampling import RngStream

PROBE_OBJECTIVES = {
    "j1_112_2": (dict(function="j1", n=112, k=2), 10.0),
    "j1_7_1": (dict(function="j1", n=7, k=1), 10.0),
    "rast2d": (dict(function="rastrigin", a=1.0, b=1.0, c=0.01, dim=2), 20.0),
    "rast10d": (dict(function="rastrigin", a=1.0, b=1.0, c=0.05, dim=10), 20.0),
}
PROBE_BATCHES = (1, 256, 2000)
PROBE_BLOCKS = ((1024, 10), (10, 2))
STREAMS_PER_GROUP = 200

_GROUP_S = 2e-3   # each timed group of calls lasts at least this long
_GROUPS = 7


def _seconds_per_call(fn) -> float:
    """Median seconds per call over ``_GROUPS`` groups of back-to-back calls."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= _GROUP_S:
            break
        n *= 2
    times = []
    for _ in range(_GROUPS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def run_probes(seed: int) -> dict:
    gen = np.random.default_rng(seed)
    out = {}
    for key, (params, half_width) in PROBE_OBJECTIVES.items():
        obj = make_objective(**params)
        for m in PROBE_BATCHES:
            x = gen.uniform(-half_width, half_width, size=(m, obj.dim))
            for kind, fn in (("value", obj.value), ("gradient", obj.gradient)):
                out[f"probe.{key}.{kind}_ns_per_row.m{m}"] = (
                    _seconds_per_call(lambda: fn(x)) / m * 1e9)
    stream = RngStream(seed, 0)
    for r, c in PROBE_BLOCKS:
        out[f"probe.normals_ns_per_normal.{r}x{c}"] = (
            _seconds_per_call(lambda: stream.normals((r, c))) / (r * c) * 1e9)
    out["probe.stream_open_us"] = _seconds_per_call(
        lambda: [RngStream(seed, i) for i in range(STREAMS_PER_GROUP)]) / STREAMS_PER_GROUP * 1e6
    return out
