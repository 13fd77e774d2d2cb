"""Spans and counters around calls into glstat's modules, from outside.

A traced round rebinds the module attributes through which glstat's
modules call each other (``mc.simulate_path``, ``lrv.build_plugin``,
...) to timing wrappers, and puts the originals back when the round
ends.  The program's files are not touched and untraced rounds run the
original functions.

Each call becomes a span (layer, function, sample size, start, end,
parent).  A layer's self time is its spans' duration minus the part
covered by child spans, so the self times of one round add up to the
time spent inside any traced call.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np


def sample_size(args) -> Optional[int]:
    """n of a call: the size of a leading sample array, or the int after
    the process config of ``simulate_path(process, n, rng)``."""
    if args and isinstance(args[0], np.ndarray):
        return int(args[0].size)
    if len(args) > 1 and isinstance(args[1], int):
        return args[1]
    return None


def _rows(_args, result) -> float:
    return float(np.size(result))


def _report_bytes(args, result) -> float:
    out_dir = args[1]
    names = list(result) + ["manifest.json"]
    return float(sum(os.path.getsize(os.path.join(out_dir, f)) for f in names))


# (module, attribute, layer, counter name, counter function)
# Every module through which a function is reached is listed, because
# ``from .x import f`` gives each caller its own binding of f.
TARGETS = [
    ("mc", "run_experiment", "mc.run_experiment", None, None),
    ("mc", "write_report", "mc.write_report", "mc.report_bytes", _report_bytes),
    ("mc", "normality_summary", "mc.summary", None, None),
    ("mc", "qq_points", "mc.summary", None, None),
    ("mc", "q_subsampled", "mc.q_sub", None, None),
    ("mc", "simulate_path", "processes.simulate", "processes.paths",
     lambda a, r: 1.0),
    ("cli", "simulate_path", "processes.simulate", "processes.paths",
     lambda a, r: 1.0),
    ("mc", "estimator_gini", "gl.estimator", None, None),
    ("mc", "estimator_q", "gl.estimator", None, None),
    ("mc", "estimator_c", "gl.estimator", None, None),
    ("mc", "estimator_lms", "gl.estimator", None, None),
    ("cli", "estimator_gini", "gl.estimator", None, None),
    ("cli", "estimator_q", "gl.estimator", None, None),
    ("cli", "estimator_c", "gl.estimator", None, None),
    ("cli", "estimator_lms", "gl.estimator", None, None),
    ("lrv", "gl_statistic", "gl.gl_statistic", None, None),
    ("gl", "kernel_values", "ustat.kernel_values", "ustat.values_materialized",
     lambda a, r: float(r.size)),
    ("lrv", "kernel_values", "ustat.kernel_values", "ustat.values_materialized",
     lambda a, r: float(r.size)),
    ("ustat", "kernel_values", "ustat.kernel_values",
     "ustat.values_materialized", lambda a, r: float(r.size)),
    ("lrv", "g1_hat_all", "ustat.g1_hat_all", None, None),
    ("ustat", "eval_kernel_rows", "kernels.eval_rows", "kernels.rows_evaluated",
     _rows),
    ("lrv", "eval_kernel_rows", "kernels.eval_rows", "kernels.rows_evaluated",
     _rows),
    ("mc", "gl_confidence_interval", "lrv.ci", None, None),
    ("cli", "gl_confidence_interval", "lrv.ci", None, None),
    ("lrv", "lrv_gl", "lrv.lrv_gl", None, None),
    ("cli", "lrv_gl", "lrv.lrv_gl", None, None),
    ("cli", "lrv_ustat", "lrv.lrv_ustat", None, None),
    ("lrv", "build_plugin", "lrv.build_plugin", None, None),
    ("lrv", "a1_hat_all", "lrv.a1_hat_all", None, None),
    ("lrv", "_weighted_autocov", "lrv.autocov", None, None),
    ("lrv", "density_at_uquantile", "lrv.density", None, None),
    ("cli", "read_series", "cli.read_series", "cli.rows_read", _rows),
    ("cli", "run_cli", "cli.run_cli", None, None),
]

# the self time of run_experiment is the harness's own work
SELF_METRIC = {"mc.run_experiment": "mc.harness_self_s"}
PEAK_LAYER = "lrv.ci"  # allocation peak measured inside these calls

LAYERS = sorted({t[2] for t in TARGETS})
COUNTERS = sorted({t[3] for t in TARGETS if t[3]})


def self_metric(layer: str) -> str:
    return SELF_METRIC.get(layer, layer + "_s")


class Tracer:
    """Collects spans, self times and counters over traced rounds."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.peak_bytes = 0
        self.round_id = -1
        self._children: List[float] = []  # child time of each open span
        self._parents: List[int] = []
        self._saved: List[tuple] = []

    def _wrap(self, layer: str, fn: Callable, counter: Optional[str],
              count_fn: Optional[Callable]) -> Callable:
        tracer = self
        fname = fn.__name__

        def traced(*args, **kwargs):
            n = sample_size(args)
            index = len(tracer.spans)
            parent = tracer._parents[-1] if tracer._parents else -1
            tracer.spans.append(None)
            tracer._parents.append(index)
            tracer._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = tracer._children.pop()
                tracer._parents.pop()
                dur = t1 - t0
                tracer.self_s[layer] += dur - child
                if tracer._children:
                    tracer._children[-1] += dur
                tracer.spans[index] = (tracer.round_id, layer, fname, n,
                                       t0, t1, parent)
            if counter:
                tracer.counts[counter] += count_fn(args, result)
            return result

        return traced

    def _peak(self, fn: Callable) -> Callable:
        tracer = self

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak_bytes = max(tracer.peak_bytes, peak)

        return measured

    def install(self, round_id: int) -> None:
        """Wrap every target in a span for the coming round."""
        self.round_id = round_id
        for mod, attr, layer, counter, count_fn in TARGETS:
            self._replace(mod, attr,
                          lambda f: self._wrap(layer, f, counter, count_fn))

    def install_memory(self) -> None:
        """Measure the allocation peak of PEAK_LAYER calls, without spans.
        tracemalloc slows every Python allocation, so this gets a round of
        its own whose time is not reported."""
        for mod, attr, layer, _, _ in TARGETS:
            if layer == PEAK_LAYER:
                self._replace(mod, attr, self._peak)

    def _replace(self, mod: str, attr: str, wrap: Callable) -> None:
        module = self.modules[mod]
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_total_s(self) -> float:
        """Sum of all self times: the time covered by top-level spans."""
        return sum(self.self_s.values())

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Per-round self times and counts, 0 for layers never called."""
        out = {self_metric(layer): self.self_s.get(layer, 0.0) / rounds
               for layer in LAYERS}
        for c in COUNTERS:
            out[c] = self.counts.get(c, 0.0) / rounds
        out["ustat.values_mb"] = out["ustat.values_materialized"] * 8 / 1e6
        out["lrv.ci_peak_mb"] = self.peak_bytes / 1e6
        return out
