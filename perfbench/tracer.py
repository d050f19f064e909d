"""Spans and counters recorded around lambdadet's public functions, from outside.

Modules import each other by name (``from .dynamics import propagate``), so
a wrapper is installed in every lambdadet namespace that binds the original
function, which is where callers look the name up. Each call records a span
(name, start, end, parent span) in memory. A span's self time is its
duration minus the time its child spans cover; calls in one thread nest, so
the children of a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function): every traced layer boundary
SPANNED = (
    ("cli", "run_sweep"),
    ("sweep", "parallel_map"),
    ("sweep", "write_csv"),
    ("render", "render_heatmap"),
    ("protocols", "efficiency_map"),
    ("protocols", "reset_map"),
    ("protocols", "detection_run"),
    ("protocols", "detection_trace"),
    ("protocols", "reset_run"),
    ("protocols", "full_cycle"),
    ("response", "dip_map"),
    ("response", "calibrate_signal_power"),
    ("response", "pdiff_spectrum"),
    ("response", "reflection_coefficient"),
    ("dressed", "dressed_states"),
    ("dynamics", "propagate"),
    ("dynamics", "steady_state"),
    ("dynamics", "liouvillian"),
)

# per-layer metrics read from the spans: (span name, statistic)
SPAN_METRICS = (
    ("dynamics.propagate", "calls"),
    ("dynamics.propagate", "self_s"),
    ("dynamics.propagate", "p50_ms"),
    ("dynamics.steady_state", "calls"),
    ("dynamics.steady_state", "self_s"),
    ("dynamics.liouvillian", "calls"),
    ("dynamics.liouvillian", "self_s"),
    ("response.reflection_coefficient", "calls"),
    ("response.reflection_coefficient", "self_s"),
    ("response.dip_map", "self_s"),
    ("response.pdiff_spectrum", "calls"),
    ("response.pdiff_spectrum", "self_s"),
    ("response.calibrate_signal_power", "self_s"),
    ("dressed.dressed_states", "calls"),
    ("protocols.detection_run", "calls"),
    ("protocols.detection_run", "self_s"),
    ("protocols.reset_run", "calls"),
    ("protocols.reset_run", "self_s"),
    ("protocols.detection_trace", "self_s"),
    ("protocols.efficiency_map", "self_s"),
    ("protocols.reset_map", "self_s"),
    ("protocols.full_cycle", "self_s"),
    ("sweep.parallel_map", "self_s"),
    ("sweep.write_csv", "self_s"),
    ("render.render_heatmap", "self_s"),
    ("cli.run_sweep", "calls"),
    ("cli.run_sweep", "self_s"),
)

COUNTERS = (
    "dynamics.rk4_steps",
    "dynamics.rhs_evals",
    "dynamics.samples",
    "pulses.envelope_evals",
    "pulses.schedules_built",
    "sweep.csv_bytes",
    "render.svg_bytes",
)


def _count_propagation(counts, fn):
    """RK4 steps and RHS evaluations of one fixed-step propagate, from its
    sample times: each gap between samples is cut into ceil(gap / max_step)
    steps of four RHS evaluations."""
    opts_default = inspect.signature(fn).parameters["opts"].default

    def after(args, kwargs, traj):
        opts = args[3] if len(args) > 3 else kwargs.get("opts", opts_default)
        counts["dynamics.samples"] += len(traj.times)
        if opts.method != "fixed_rk4":
            return
        steps = sum(
            max(1, int(math.ceil((b - a) / opts.max_step)))
            for a, b in zip(traj.times[:-1], traj.times[1:])
        )
        counts["dynamics.rk4_steps"] += steps
        counts["dynamics.rhs_evals"] += 4 * steps

    return after


def _count_file_bytes(counts, counter):
    def after(args, kwargs, path):
        counts[counter] += os.path.getsize(path)

    return after


def _after_hook(name, fn, counts):
    """Counts taken when a call to ``name`` returns, or None."""
    if name == "dynamics.propagate":
        return _count_propagation(counts, fn)
    if name == "sweep.write_csv":
        return _count_file_bytes(counts, "sweep.csv_bytes")
    if name == "render.render_heatmap":
        return _count_file_bytes(counts, "render.svg_bytes")
    return None


class Tracer:
    """Installs the wrappers, holds the spans and counts, and restores the
    original functions on ``uninstall``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []
        self._envelope_ticks = itertools.count()

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from lambdadet import pulses

        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "lambdadet"]
        for module_name, attr in SPANNED:
            module = importlib.import_module(f"lambdadet.{module_name}")
            original = getattr(module, attr)
            name = f"{module_name}.{attr}"
            wrapper = self._span(name, original, _after_hook(name, original, self.counts))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, key, wrapper)

        counts = self.counts
        value = pulses.PulseEnvelope.value
        init = pulses.PulseSchedule.__init__
        # the hottest call in the package: a C-level tick, added up on uninstall
        self._envelope_ticks = itertools.count()
        tick = self._envelope_ticks.__next__

        def counted_value(env, t):
            tick()
            return value(env, t)

        def counted_init(sched, *args, **kwargs):
            counts["pulses.schedules_built"] += 1
            init(sched, *args, **kwargs)

        self._replace(pulses.PulseEnvelope, "value", counted_value)
        self._replace(pulses.PulseSchedule, "__init__", counted_init)

    def uninstall(self):
        self.counts["pulses.envelope_evals"] += next(self._envelope_ticks)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_stats(spans):
    """Per span name: call count, summed self time, and call durations."""
    covered = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[index]
        entry["durations"].append(end - start)
    return stats


def layer_metrics(spans, counts, rounds):
    """Per-round values of the span and counter metrics over ``rounds``
    identical rounds. A layer with no calls reports 0."""
    stats = layer_stats(spans)
    out = {}
    for name, stat in SPAN_METRICS:
        entry = stats.get(name)
        key = f"{name}.{stat}"
        if stat == "calls":
            out[key] = ((entry["calls"] if entry else 0) // rounds, "count")
        elif stat == "self_s":
            out[key] = ((entry["self_s"] if entry else 0.0) / rounds, "s")
        else:
            p50 = statistics.median(entry["durations"]) * 1e3 if entry else 0.0
            out[key] = (p50, "ms")
    for name in COUNTERS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        out[name] = (counts[name] // rounds, unit)
    return out
