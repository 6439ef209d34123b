"""Spans around the calls into each plapt layer, recorded from outside.

``installed(tracer)`` rebinds every name under which a traced function is
reachable in the ``plapt`` modules (``from ... import`` copies bindings, so
``distribution.lambert_w`` and ``extremes.lambert_w`` are separate sites)
and restores each binding on exit.  A span has a layer, a start, an end
and the span that was open when it started; a layer's self time is its
spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT_LAYER = "bench.op"

# Traced functions by defining module, and what a call counts as work:
# "points" is the size of the array argument, "n" the requested sample
# size, "fit" records the fit's iterations and convergence.
LAYERS = {
    "special_functions.lambert_w": "points",
    "distribution.sample": "n",
    "distribution.quantile": "points",
    "distribution.tail_quantile": "points",
    "inference.score": None,
    "inference.log_likelihood": None,
    "inference.fit_mle": "fit",
    "inference.fit_mle_profile": None,
    "inference.model_compare": None,
    "extremes.double_hill_components": None,
    "extremes.maxima_normalization": None,
    "montecarlo.run_experiment": None,
}

_MARK = "__bench_traced_layer__"


class Tracer:
    """In-memory span log plus the counts taken at the same boundaries."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.span_layer: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self.points: Counter = Counter()
        self.fit_iterations: list[int] = []
        self.fits_not_converged = 0

    def open(self, layer: str) -> int:
        lid = self._layer_index.get(layer)
        if lid is None:
            lid = self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        idx = len(self.span_layer)
        self.span_layer.append(lid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        idx = self.open(layer)
        try:
            yield
        finally:
            self.close(idx)

    def summary(self) -> dict:
        """Per-layer calls, points and self time; fit counts; root time.

        The result is plain JSON data, so summaries of child processes can
        be merged with :func:`merge`.
        """
        child_ns = [0] * len(self.span_layer)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        layers = {name: {"calls": 0, "points": self.points[name], "self_ns": 0} for name in self.layers}
        root_ns = 0
        for i, lid in enumerate(self.span_layer):
            dur = self.span_end[i] - self.span_start[i]
            entry = layers[self.layers[lid]]
            entry["calls"] += 1
            entry["self_ns"] += dur - child_ns[i]
            if self.span_parent[i] < 0:
                root_ns += dur
        return {
            "layers": layers,
            "root_ns": root_ns,
            "spans": len(self.span_layer),
            "fit_iterations": list(self.fit_iterations),
            "fits_not_converged": self.fits_not_converged,
        }


def merge(total: dict, part: dict) -> dict:
    """Add summary ``part`` into ``total`` (both as returned by ``summary``)."""
    for name, entry in part["layers"].items():
        agg = total["layers"].setdefault(name, {"calls": 0, "points": 0, "self_ns": 0})
        for key in agg:
            agg[key] += entry[key]
    for key in ("root_ns", "spans", "fits_not_converged"):
        total[key] += part[key]
    total["fit_iterations"].extend(part["fit_iterations"])
    return total


def empty_summary() -> dict:
    return {"layers": {}, "root_ns": 0, "spans": 0, "fit_iterations": [], "fits_not_converged": 0}


def _wrapper(tracer: Tracer, layer: str, fn, counting: str | None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counting == "points":
            tracer.points[layer] += int(np.size(args[1]))
        elif counting == "n":
            tracer.points[layer] += int(args[1])
        elif counting == "fit":
            tracer.fit_iterations.append(result.iterations)
            tracer.fits_not_converged += not result.converged
        return result

    setattr(traced, _MARK, layer)
    return traced


def originals() -> dict[str, object]:
    """The traced functions, looked up in their defining modules.

    A layer that no longer exists raises, so the traced run fails instead
    of reading 0 for every metric of that layer.
    """
    found = {}
    for layer in LAYERS:
        module, name = layer.rsplit(".", 1)
        found[layer] = getattr(importlib.import_module(f"plapt.{module}"), name)
    return found


def plapt_modules():
    return [m for name, m in list(sys.modules.items()) if name == "plapt" or name.startswith("plapt.")]


def traced_bindings() -> list[tuple[str, str]]:
    """Bindings in the plapt modules that currently hold a tracing wrapper."""
    return [
        (module.__name__, attr)
        for module in plapt_modules()
        for attr, value in list(vars(module).items())
        if hasattr(value, _MARK)
    ]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every site of every traced function; restore all on exit.

    Yields the list of (module, name, original) bindings it replaced.
    """
    fns = originals()
    wrappers = {id(fn): _wrapper(tracer, layer, fn, LAYERS[layer]) for layer, fn in fns.items()}
    rebound = []
    try:
        for module in plapt_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    rebound.append((module, attr, value))
        yield rebound
    finally:
        for module, attr, value in reversed(rebound):
            setattr(module, attr, value)
