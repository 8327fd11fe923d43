"""Deterministic random streams, the scaled Gaussian noise law, and the SG oracle.

Streams are Philox-backed (counter-based) and keyed by the pair
``(master_seed, stream_index)``: identical origins replay bit-identical draw
sequences and distinct stream indices give independent streams by construction
of the keyed generator.  Normal variates come from numpy's
``Generator.standard_normal`` (ziggurat); this choice is load-bearing because
golden-trajectory tests freeze the resulting streams.

Draw-order contract used throughout the package: a trajectory owns stream
``stream_index = trial index``; it first consumes ``d`` uniforms for its
initial point (when the harness draws one), then per solver iteration ``d``
normals for the gradient noise when ``r > 0`` followed by ``d`` normals for the
injected noise when ``s > 0``.  Runs with ``s = 0`` (plain GD/SGD) consume no
injected-noise draws, which makes GD bitwise identical to GND with ``s = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gndopt.errors import ParameterError, require_integer, require_nonnegative, require_uint64
from gndopt.objectives import Objective

Array = np.ndarray

# Bytes of noise drawn ahead per refill, across all rows of a block: the L2
# cache of one core on the machine the benchmark records.  4 MiB took more
# memory for no speed; 1 MiB doubled the refills and ran slower.
_DRAW_AHEAD_BYTES = 2 * 2**20


class RngStream:
    """Single-consumer random stream addressed by (master_seed, stream_index)."""

    __slots__ = ("origin", "generator")

    def __init__(self, master_seed: int, stream_index: int = 0):
        require_uint64(master_seed=master_seed, stream_index=stream_index)
        self.origin = (int(master_seed), int(stream_index))
        key = np.array(self.origin, dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def normals(self, shape, out: Array | None = None) -> Array:
        """Standard normals of ``shape``, written into ``out`` when given (same bits)."""
        return self.generator.standard_normal(shape, out=out)

    def uniforms(self, shape) -> Array:
        return self.generator.random(shape)

    def __repr__(self):
        return f"RngStream(master_seed={self.origin[0]}, stream_index={self.origin[1]})"


def draw_ahead_span(rows: int, cols: int, steps: int) -> int:
    """Steps of a (rows, steps, cols) float64 draw to take per refill.

    As many as fit in the draw-ahead budget, at least one and at most
    ``steps``.  Any span gives the same streams: only the number of
    :meth:`RngStream.normals` calls depends on it.
    """
    return max(1, min(steps, _DRAW_AHEAD_BYTES // (8 * rows * cols)))


def fill_scaled_gaussian(out: Array, rngs, d: int) -> Array:
    """Fill a (rows, span, cols) block with N(0, I_d / d) draws, in place, and return it.

    Row i takes its span x cols standard normals from ``rngs[i]`` in draw order,
    then the block is divided by sqrt(d).  The solver's blocks have d columns
    per iteration for each noise it draws (gradient noise, injected noise).
    Raises ParameterError unless there is one stream per row.
    """
    require_integer(1, d=d)
    if len(rngs) != len(out):
        raise ParameterError(f"need one rng stream per row: {len(rngs)} streams, {len(out)} rows")
    for row, rng in enumerate(rngs):
        rng.normals(out.shape[1:], out=out[row])
    out /= math.sqrt(d)
    return out


@dataclass(frozen=True)
class SgOracle:
    """Stochastic gradient oracle: exact gradient plus isotropic Gaussian noise.

    The solver draws ``grad f(x) + r * xi`` with ``xi ~ N(0, I_d/d)``, so the
    mean is the exact gradient and the mean squared deviation is exactly
    ``r**2``.  With ``r = 0`` it uses the exact gradient and consumes no draws.
    Runners evaluate their own ``objective`` argument and read only ``r`` here.
    """

    objective: Objective
    r: float = 0.0

    def __post_init__(self):
        require_nonnegative(r=self.r)


def scaled_gaussian_norm_moments(d: int) -> tuple[float, float, float, float]:
    """Exact moments E||xi||^p, p = 1..4, for xi ~ N(0, I_d/d).

    ``sqrt(d)*||xi||`` is chi-distributed with d degrees of freedom, giving

        m1 = sqrt(2/d) * Gamma((d+1)/2) / Gamma(d/2)
        m2 = 1
        m3 = m1 * (1 + 1/d)
        m4 = 1 + 2/d

    The Gamma ratio is evaluated through ``math.lgamma`` (relative error well
    below 1e-12 for any practical d).
    """
    require_integer(1, d=d)
    d = int(d)
    m1 = math.sqrt(2.0 / d) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))
    m2 = 1.0
    m3 = m1 * (1.0 + 1.0 / d)
    m4 = 1.0 + 2.0 / d
    return (m1, m2, m3, m4)
