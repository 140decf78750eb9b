"""Spans around the benchmark's calls into kinvar, kept in memory.

A span records its name, the task it belongs to, the span that caused it,
its start and end, and its self time: its duration minus the part covered by
child spans. High-frequency calls (the mass-action right-hand side) are
counted and timed at the same boundary without a record per call; their time
still counts against the enclosing span.

Spans are installed by replacing module attributes for the duration of a
traced pass, so calls that kinvar makes internally through module globals
(``dual_experiment`` -> ``build_rate_matrix``, ``integrate_dp54`` ->
``rhs_packed``, ``_propagators`` -> ``scipy.linalg.expm``) are seen too.
Untraced passes run the unmodified functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

ROOT = "bench.task"

# (module, attribute, span name); the same span name may sit on several
# modules that import one function under their own name
TASK_PATCHES = (
    ("kinvar.network", "check_cycle_conditions", "network.cycle_check"),
    ("kinvar.network", "balance_network", "network.balance"),
    ("kinvar.integrate", "conservation_vector", "network.conservation"),
    ("kinvar.linear", "dual_experiment", "linear.dual"),
    ("kinvar.linear", "build_rate_matrix", "linear.rate_matrix"),
    ("kinvar.linear", "default_time_grid", "linear.default_grid"),
    ("kinvar.linear", "simulate_linear", "linear.simulate"),
    ("scipy.linalg", "expm", "linear.expm"),
    ("kinvar.integrate", "dual_experiment_nonlinear", "integrate.dual"),
    ("kinvar.integrate", "integrate", "integrate.run"),
    ("kinvar.integrate", "pack_network", "integrate.pack"),
    ("kinvar._kernels", "integrate_dp54", "integrate.call"),
    ("kinvar.invariants", "path_equilibrium_constant", "laplace.path_constant"),
    ("kinvar.laplace", "prove_fixed_proportion", "laplace.prove"),
    ("kinvar.laplace", "exact_balance", "laplace.exact_balance"),
    ("kinvar.laplace", "all_transfer_functions_forest", "laplace.forest"),
    ("kinvar.laplace", "transfer_function_cofactor", "laplace.cofactor"),
    ("kinvar.invariants", "resolve_expected_K", "invariants.resolve"),
    ("kinvar.invariants", "evaluate_invariant", "invariants.evaluate"),
    ("kinvar.closed_forms", "nonlinear_2A_B", "closed_forms.eval"),
    ("kinvar.closed_forms", "nonlinear_2A_2B", "closed_forms.eval"),
)
# counted without a record per call
TASK_COUNTERS = (
    ("kinvar._kernels", "rhs_packed", "integrate.rhs"),
)
CLI_PATCHES = (
    ("kinvar.cli", "write_trajectory_csv", "trajectory.csv_write"),
    ("kinvar.cli", "_write_json", "cli.json_write"),
)

TASK_SPANS = (ROOT,) + tuple(dict.fromkeys(
    name for _, _, name in TASK_PATCHES + TASK_COUNTERS))


class Tracer:
    """Collects spans of one process; ``task`` tags the spans that follow."""

    def __init__(self):
        self.records = []   # (id, parent id or None, task, name, start, end, self)
        self.counters = {}  # name -> [calls, seconds]
        self.task = None
        self._stack = []    # open spans: [id, child seconds]
        self._next_id = 0

    def wrap(self, name, fn):
        stack = self._stack
        records = self.records
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                records.append((span_id, parent, self.task, name, start, end,
                                duration - frame[1]))

        return traced

    def count(self, name, fn):
        stack = self._stack
        stats = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                if stack:
                    stack[-1][1] += duration

        return counted

    def root(self, fn):
        """Run ``fn`` inside the root span of the current task."""
        return self.wrap(ROOT, fn)()

    @contextmanager
    def installed(self, patches=TASK_PATCHES, counters=TASK_COUNTERS):
        """Replace the listed module attributes by traced wrappers, then restore."""
        saved = []
        try:
            for specs, wrapper in ((patches, self.wrap), (counters, self.count)):
                for module_name, attr, name in specs:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """``{name: [calls, self seconds]}`` over every span and counter."""
        out = {}
        for *_, name, _start, _end, self_time in self.records:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_time
        for name, (calls, seconds) in self.counters.items():
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "task", "name", "start", "end", "self")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")

    def root_seconds(self):
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _id, parent, _task, _name, start, end, _self
                   in self.records if parent is None)


def layer_metrics(res, first_calls, lines):
    """Per-layer metrics of a traced run, per traced pass of the task list.

    ``res`` is the worker's result, ``first_calls`` the reports of the
    fresh-process probes, ``lines`` the line count of the kinvar sources.
    """
    from statistics import fmean, median

    passes = len(res["pass_s"]["traced"])
    layers = res["layers"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in TASK_SPANS:
        calls, seconds = layers.get(name, (0, 0.0))
        if name == "integrate.rhs":
            put("integrate.rhs_evals", calls / passes, "count")
            put("integrate.rhs_ms", seconds * 1e3 / passes, "ms")
            put("integrate.rhs_us", seconds * 1e6 / calls if calls else 0.0, "us")
        else:
            put(f"{name}_ms", seconds * 1e3 / passes, "ms")
            put(f"{name}_calls", calls / passes, "count")
    untraced = fmean(res["pass_s"]["untraced"])
    traced = fmean(res["pass_s"]["traced"])
    put("trace.overhead_ms", (traced - untraced) * 1e3, "ms")
    put("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%")
    cli = res["cli_traced"]["layers"]
    for span, name in (("trajectory.csv_write", "trajectory.csv_write_ms"),
                       ("cli.json_write", "cli.json_write_ms")):
        put(name, cli.get(span, (0, 0.0))[1] * 1e3, "ms")
    put("cli.import_s", median(f["import_s"] for f in first_calls), "s")
    put("network.conservation_first_ms",
        median(f["conservation_first_ms"] for f in first_calls), "ms")
    put("src.lines", lines, "lines")
    return out
