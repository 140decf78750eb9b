"""One benchmark worker process: set up a workload, then run its passes.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; it prints JSON lines.
The first line reports the monotonic clock when set-up ended, so the parent
can time set-up from the moment it started this interpreter. With
``--setup-only`` the worker stops there. Otherwise it runs whole passes over
the workload's fixed task list, one task at a time, until ``--seconds`` have
passed, and prints the result as its last line. With ``--trace 0`` a reference
of fixed work (``hostspeed.py``) runs after each task for a fifth of its time,
so every pass carries a reading of the host's speed while it ran.

With ``--trace 1`` passes alternate untraced and traced in the order
U T T U U T T U ..., so the tracing overhead is measured on the same work
and a drift in machine speed cancels out; after the passes the workload's
CLI command runs once in this process with its output writers traced.
``--first-call`` instead times ``import kinvar`` and the first
``conservation_vector`` call of a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def first_call(cli_network):
    """``import kinvar`` and the first ``conservation_vector`` call of a process."""
    start = time.perf_counter()
    import kinvar  # noqa: F401
    imported = time.perf_counter()
    from kinvar.network import conservation_vector, network_from_dict

    net = network_from_dict(cli_network)
    before = time.perf_counter()
    conservation_vector(net)
    end = time.perf_counter()
    return {"import_s": imported - start, "conservation_first_ms": (end - before) * 1e3}


def run_task(task, tracer=None):
    """Run one task; returns (seconds, misses, output)."""
    import tasks as T

    start = time.perf_counter()
    try:
        out = tracer.root(task.run) if tracer is not None else task.run()
    except Exception as exc:  # a failing task is counted, the loop goes on
        elapsed = time.perf_counter() - start
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return elapsed, [T.Miss("exception", detail, True)], None
    elapsed = time.perf_counter() - start
    misses = task.check(out)
    if elapsed > T.TASK_TIMEOUT_S:
        misses.append(T.Miss("timeout", f"{elapsed:.1f} s", False))
    return elapsed, misses, out


class Loop:
    """Accumulates the passes of one closed loop over a workload's task list."""

    def __init__(self, workload, trace):
        from hostspeed import Meter
        from tracing import Tracer

        self.workload = workload
        self.tracer = Tracer() if trace else None
        self.meter = None if trace else Meter()
        self.latencies = []   # per untraced pass: task latencies in ms
        self.references = []  # per untraced pass: its reference times in s
        self.pass_s = {False: [], True: []}
        self.misses, self.examples, self.digests = {}, [], []
        # tasks (by index) that missed in some pass; a pass repeats the same
        # inputs, so these do not depend on how many passes fit in a run
        self.failed, self.exact_failed = set(), set()
        self.passes = 0

    def run_pass(self) -> None:
        traced = self.tracer is not None and self.passes % 4 in (1, 2)
        tracer = self.tracer if traced else None
        lat = []
        first_ref = len(self.meter.samples) if self.meter else 0
        with tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            for i, task in enumerate(self.workload.tasks):
                if traced:
                    tracer.task = (self.passes, i)
                elapsed, misses, out = run_task(task, tracer)
                lat.append(elapsed * 1e3)
                if self.meter is not None:
                    self.meter.pay(elapsed)
                if self.passes == 0:
                    self.digests.append((task.name, None if out is None
                                         else task.digest(out)))
                if misses:
                    self.failed.add(i)
                    if any(m.exact for m in misses):
                        self.exact_failed.add(i)
                    for m in misses:
                        self.misses[m.check] = self.misses.get(m.check, 0) + 1
                        if len(self.examples) < 8:
                            self.examples.append(f"{task.name}: {m.check}: {m.detail}")
            elapsed = time.perf_counter() - start
        self.pass_s[traced].append(elapsed)
        if not traced:
            self.latencies.append(lat)
            self.references.append(self.meter.samples[first_ref:] if self.meter else [])
        self.passes += 1

    def result(self) -> dict:
        import tasks as T

        out = {
            "attempted": len(self.workload.tasks),
            "failed": len(self.failed),
            "exact_failed": len(self.exact_failed),
            "misses": self.misses,
            "examples": self.examples,
            "task_list": T.checksum(*(t.name for t in self.workload.tasks)),
            "checksum": T.checksum(*self.digests),
            "tasks_per_pass": len(self.workload.tasks),
            "latencies_ms": self.latencies,
            "references_s": self.references,
            "pass_s": {"untraced": self.pass_s[False], "traced": self.pass_s[True]},
        }
        if self.tracer is not None:
            out["layers"] = {name: list(v) for name, v in self.tracer.totals().items()}
        return out


def write_cli_inputs(workload, workdir: Path):
    """Write the CLI command's input files; returns its arguments."""
    import tasks as T

    workdir.mkdir(parents=True, exist_ok=True)
    spec = workload.cli
    (workdir / "cli.json").write_text(json.dumps({"network": spec["network"]}),
                                      encoding="utf-8")
    out = str(workdir / "out")
    names = spec["network"]["species"]
    if workload.name == "exact-proof":
        path = workdir / "network.json"
        path.write_text(json.dumps(spec["network"]), encoding="utf-8")
        a, b = spec["pair"]
        return ["prove", "--balance", "--config", str(path),
                "--pair", f"{names[a]},{names[b]}", "--out", out]
    scenario = {"network": spec["network"], "experiment": {"a": "A", "b": "B"}}
    if workload.name == "linear-verify":
        a, b = spec["pair"]
        scenario["experiment"] = {"a": names[a], "b": names[b]}
        scenario["invariants"] = [{"kind": "linear_ratio",
                                   "pair": [names[a], names[b]]}]
        argv = ["invariants"]
    elif workload.name == "mass-action":
        argv = ["simulate", "--oracle"]
    else:
        argv = ["simulate", "--grid", f"{T.STIFF_HORIZON:g},200,geometric"]
    path = workdir / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return argv + ["--config", str(path), "--out", out]


def cli_expect(workload) -> dict:
    """What a correct run of the CLI command writes; after ``prepare``."""
    import tasks as T

    spec = workload.cli
    if workload.name == "mass-action":
        return {"oracle_tol": T.CLOSED_FORM_TOL}
    if workload.name == "stiff":
        return {"final": spec["final"], "gap_tol": T.STIFF_GAP_TOL}
    return {"K": spec["expected_K"]}


def traced_cli(argv):
    """Run the CLI once in this process with its output writers traced."""
    from kinvar import cli
    from tracing import CLI_PATCHES, Tracer

    tracer = Tracer()
    with tracer.installed(CLI_PATCHES, ()), contextlib.redirect_stdout(io.StringIO()):
        code = tracer.wrap("cli.main", cli.main)(argv)
    return code, tracer.totals()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--first-call", action="store_true")
    args = p.parse_args(argv)

    if args.first_call:
        spec = json.loads((args.workdir / "cli.json").read_text(encoding="utf-8"))
        _emit(first_call(spec["network"]))
        return 0

    import tasks as T

    workload = T.build(args.workload, args.seed)
    for task in workload.warmup:   # its results are not scored
        run_task(task)
    cli_argv = write_cli_inputs(workload, args.workdir)
    _emit({"ready": time.perf_counter()})
    if args.setup_only:
        return 0

    workload.prepare()
    loop = Loop(workload, bool(args.trace))
    start = time.perf_counter()
    # a traced run needs an untraced and a traced pass at least
    while time.perf_counter() - start < args.seconds or loop.passes < 1 + args.trace:
        loop.run_pass()
    result = loop.result()
    result["cli"] = {"argv": cli_argv, "expect": cli_expect(workload)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        loop.tracer.write(args.workdir / "spans.jsonl")
        code, layers = traced_cli(cli_argv)
        result["cli_traced"] = {"exit": code, "layers": layers}
    result["facts"] = {"stiff_horizon": T.STIFF_HORIZON}
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
