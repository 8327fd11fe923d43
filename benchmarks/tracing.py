"""Span tracing of gndopt's public callables, installed from outside the package.

A :class:`Tracer` wraps the layer entry points named below for the duration of
one ``with tracer.installed():`` block and restores the originals afterwards.
Each call becomes one span ``(name, parent, start, end, rows)`` kept in memory;
``rows`` is the amount of work the call was asked for (batch rows for an
objective call, variates for a draw).  Nothing in the package is edited: the
objective's ``value``/``gradient`` are swapped with ``dataclasses.replace`` on
the object ``make_objective`` returns, and module or class attributes are
replaced in place.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from time import perf_counter

import numpy as np

import gndopt.cli
import gndopt.objectives
import gndopt.solver
from gndopt.sampling import RngStream

OBJECTIVE_SPANS = ("objectives.value", "objectives.gradient")
SAMPLING_SPANS = ("sampling.normals", "sampling.uniforms", "sampling.stream_open")
ENTRY_SPANS = ("experiments.run_monte_carlo", "solver.dlgnd_run")


def _batch_rows(args) -> int:
    x = np.asarray(args[0])
    return int(x.shape[0]) if x.ndim == 2 else 1


def _draw_count(args) -> int:
    shape = args[1]
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


class Tracer:
    """In-memory span recorder; spans of one traced run share one tracer."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name, fn, rows=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (nid, parent, t0, t1, rows(args) if rows else 1)

        return traced

    def _traced_factory(self, factory):
        value_name, grad_name = OBJECTIVE_SPANS

        def make_objective(*args, **kwargs):
            obj = factory(*args, **kwargs)
            return dataclasses.replace(
                obj, value=self.wrap(value_name, obj.value, _batch_rows),
                gradient=self.wrap(grad_name, obj.gradient, _batch_rows))

        return make_objective

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced callables in for the block, restoring them on exit."""
        patches = [
            (gndopt.cli, "make_objective", self._traced_factory(gndopt.cli.make_objective)),
            (gndopt.objectives, "make_objective",
             self._traced_factory(gndopt.objectives.make_objective)),
            (RngStream, "__init__", self.wrap("sampling.stream_open", RngStream.__init__)),
            (RngStream, "normals", self.wrap("sampling.normals", RngStream.normals, _draw_count)),
            (RngStream, "uniforms",
             self.wrap("sampling.uniforms", RngStream.uniforms, _draw_count)),
            (gndopt.cli, "run_monte_carlo",
             self.wrap("experiments.run_monte_carlo", gndopt.cli.run_monte_carlo)),
            (gndopt.cli, "write_csv", self.wrap("experiments.write_csv", gndopt.cli.write_csv)),
            (gndopt.cli, "write_svg", self.wrap("experiments.write_svg", gndopt.cli.write_svg)),
            (gndopt.solver, "dlgnd_run", self.wrap("solver.dlgnd_run", gndopt.solver.dlgnd_run)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def arrays(self) -> dict:
        """Spans as columns: name (index into ``names``), parent span, start, end, rows."""
        if any(span is None for span in self.spans):
            raise RuntimeError("tracer read while a span is still open")
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        return {"name": np.array(cols[0], dtype=np.int32),
                "parent": np.array(cols[1], dtype=np.int64),
                "start": np.array(cols[2], dtype=np.float64),
                "end": np.array(cols[3], dtype=np.float64),
                "rows": np.array(cols[4], dtype=np.int64)}


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, rows, busy seconds; plus the solver's self time.

    ``solver.self_s`` is the time inside the entry spans (``run_monte_carlo`` or
    ``dlgnd_run``) not covered by their objectives and sampling child spans.
    """
    cols = tracer.arrays()
    dur = cols["end"] - cols["start"]
    names = np.array(tracer.names)[cols["name"]] if len(dur) else np.array([], dtype=str)
    totals = {}
    for name in OBJECTIVE_SPANS + SAMPLING_SPANS + ENTRY_SPANS + (
            "experiments.write_csv", "experiments.write_svg"):
        sel = names == name
        totals[name] = {"calls": int(sel.sum()), "rows": int(cols["rows"][sel].sum()),
                        "s": float(dur[sel].sum())}
    entry = np.isin(names, ENTRY_SPANS)
    entry_idx = np.flatnonzero(entry)
    child = np.isin(cols["parent"], entry_idx) & np.isin(names, OBJECTIVE_SPANS + SAMPLING_SPANS)
    totals["solver.self_s"] = float(dur[entry].sum() - dur[child].sum())
    return totals
