#!/usr/bin/env python3
"""kinvar benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload linear-verify --seed 1 --seconds 15 --trace 0

Workloads: linear-verify, mass-action, stiff, exact-proof (see README.md).

A worker process sets the workload up and then runs whole passes over its
fixed task list as a closed loop, one task at a time, until ``--seconds``
have passed. After it ends, this process makes the run's other
measurements: with ``--trace 0``, three fresh set-ups (``setup_s`` is their
median) and five timed CLI runs as fresh processes, each between two runs of
a base process that gives the host's speed (``hostspeed.py``); with
``--trace 1``, where the worker alternates untraced and traced passes, three
fresh-process first-call probes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the facts of the machine and the run. The program
is imported from ``src`` of the checkout this file sits in; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1       # one client, one core: the steadiest reading on 2 cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
# pinned here too, before hostspeed loads numpy
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

from hostspeed import BASE_CMD, BASE_MS, REF_MS, base_scale, scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "kinvar"
OUT = HERE / "out"

WORKLOADS = ("linear-verify", "mass-action", "stiff", "exact-proof")
SETUPS = 3             # fresh set-ups per timed run; the median is reported
CLI_RUNS = 5           # fresh CLI processes per timed run; the median is reported
FIRST_CALLS = 3        # fresh processes for the first-call layer metrics
RUN_LIMIT_S = 170.0    # every child is killed once the run is this old
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it

CLI_COMMANDS = {
    "linear-verify": "kinvar invariants",
    "mass-action": "kinvar simulate --oracle",
    "stiff": "kinvar simulate --grid 1,200,geometric",
    "exact-proof": "kinvar prove --balance",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts children with the pinned environment and a shared deadline."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _run(self, cmd, what) -> subprocess.CompletedProcess:
        """Run ``cmd`` to its end in a process group of its own.

        On a timeout or any exception (``SIGTERM`` included, see ``main``)
        the whole group is killed and waited for, so no grandchild outlives
        the run.
        """
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{what} timed out") from None
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def worker(self, what, *extra) -> tuple[float, list]:
        """Run a worker to its end; returns its start time and its JSON lines."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(self.args.trace), "--workdir", str(self.workdir), *extra]
        start = time.perf_counter()
        proc = self._run(cmd, what)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{what} exited {proc.returncode}")
        return start, [json.loads(line) for line in proc.stdout.splitlines()]

    def measured_worker(self) -> dict:
        """The worker that runs the passes; returns its result."""
        start, (ready, result) = self.worker("worker", "--seconds", str(self.args.seconds))
        result["setup_s"] = ready["ready"] - start
        return result

    def setup_probe(self) -> float:
        start, (ready,) = self.worker("set-up probe", "--setup-only")
        return ready["ready"] - start

    def first_call(self) -> dict:
        return self.worker("first-call probe", "--first-call")[1][0]

    def base(self) -> float:
        """Time one run of the fresh-process reference."""
        start = time.perf_counter()
        proc = self._run(BASE_CMD, "base process")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"base process exited {proc.returncode}")
        return elapsed

    def cli(self, argv) -> tuple[float, int]:
        """Time the kinvar console script as a fresh process."""
        cmd = [sys.executable, "-c",
               "import sys; from kinvar.cli import main; sys.exit(main())", *argv]
        start = time.perf_counter()
        proc = self._run(cmd, "CLI run")
        elapsed = time.perf_counter() - start
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
        return elapsed, proc.returncode


# ---------------------------------------------------------------------------
# checks of the CLI outputs


def _last_row(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(x) for x in rows[-1][1:]]


def check_cli(workload: str, expect: dict, code: int, out: Path) -> list:
    """Misses of one CLI run against the worker's expectations."""
    misses = []
    if workload == "linear-verify":
        # the verdict's accuracy is scored on the tasks; here the exit code
        # must agree with the verdict written
        if code not in (0, 1):
            return [f"exit {code}, expected 0 or 1"]
        report = json.loads((out / "invariants.json").read_text())["reports"][0]
        if report["expected_K"] != expect["K"]:
            misses.append(f"K {report['expected_K']!r} != {expect['K']!r}")
        if report["verdict"] != (code == 0):
            misses.append(f"verdict {report['verdict']} with exit {code}")
        return misses
    if code != 0:
        return [f"exit {code}, expected 0"]
    if workload == "mass-action":
        gap = json.loads((out / "summary.json").read_text())["oracle"]["max_abs_diff"]
        if not gap <= expect["oracle_tol"]:
            misses.append(f"oracle gap {gap:.2e}")
    elif workload == "stiff":
        for label, ref in expect["final"].items():
            got = _last_row(out / f"from_{label}.csv")
            gap = max(abs(x - y) for x, y in zip(got, ref))
            if not gap <= expect["gap_tol"]:
                misses.append(f"from {label}: final-state gap {gap:.2e}")
    else:
        proof = json.loads((out / "proof.json").read_text())
        if not proof["verified"]:
            misses.append("balanced proof not verified")
        if [proof["K_num"], proof["K_den"]] != expect["K"]:
            misses.append(f"K {proof['K_num']}/{proof['K_den']} != {expect['K']}")
    return misses


# ---------------------------------------------------------------------------
# facts


def source_files() -> list:
    return sorted(PACKAGE.rglob("*.py"))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in source_files())


def facts(args, worker_facts: dict) -> dict:
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": src_lines(),
        **worker_facts,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def metric(value, unit):
    return {"value": value, "unit": unit}


def against_bases(runner: Runner, jobs) -> list:
    """Run ``jobs`` one after another, with a base process before each and at the end.

    Returns each job's result and the scale factor of the two base runs
    around it (``hostspeed.base_scale``).
    """
    bases, outs = [runner.base()], []
    for job in jobs:
        outs.append(job())
        bases.append(runner.base())
    return [(out, base_scale(b0, b1)) for out, b0, b1 in zip(outs, bases, bases[1:])]


def timed_run(runner: Runner, report: list) -> tuple[dict, dict]:
    res = runner.measured_worker()
    argv, expect = res["cli"]["argv"], res["cli"]["expect"]
    out = Path(argv[argv.index("--out") + 1])

    def cli_job():
        shutil.rmtree(out, ignore_errors=True)
        elapsed, code = runner.cli(argv)
        res["cli_misses"].extend(check_cli(runner.args.workload, expect, code, out))
        return elapsed

    res["cli_misses"] = []
    scaled = against_bases(runner, [runner.setup_probe] * SETUPS + [cli_job] * CLI_RUNS)
    setups, cli_times = scaled[:SETUPS], scaled[SETUPS:]

    per_pass = res["latencies_ms"]
    factors = [scale(refs) for refs in res["references_s"]]
    lat = [x * f for p, f in zip(per_pass, factors) for x in p]
    # each task's median over the passes damps what scaling leaves of the
    # host's drift
    task_medians = [statistics.median(xs) for xs in
                    zip(*([x * f for x in p] for p, f in zip(per_pass, factors)))]
    metrics = {
        "setup_s": metric(statistics.median(s * f for s, f in setups), "s"),
        "tasks_per_s": metric(len(task_medians) / (sum(task_medians) / 1e3), "1/s"),
        "task_p50_ms": metric(statistics.median(task_medians), "ms"),
        "cli_p50_ms": metric(statistics.median(t * f for t, f in cli_times) * 1e3, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    raw_medians = [statistics.median(xs) for xs in zip(*per_pass)]
    attempted = res["attempted"]
    n = len(lat)
    report.append(f"{runner.args.workload} seed {runner.args.seed}: {len(per_pass)} "
                  f"passes of {res['tasks_per_pass']} tasks in "
                  f"{sum(res['pass_s']['untraced']):.2f} s")
    report.append("  times are scaled to the host the benchmark was built on; "
                  "unscaled figures in brackets")
    report.append(f"  reference    {REF_MS / statistics.median(factors):.4f} ms in the "
                  f"worker (median over passes; {REF_MS} ms scales by 1); base process "
                  f"{BASE_MS / statistics.median(f for _, f in scaled):.1f} ms "
                  f"(median; {BASE_MS} ms scales by 1)")
    report.append(f"  setup_s      {metrics['setup_s']['value']:.4f} s   "
                  f"(median of {len(setups)} fresh starts: "
                  + ", ".join(f"{s * f:.3f} [{s:.3f}]" for s, f in setups)
                  + f"; the worker's own took {res['setup_s']:.3f})")
    report.append(f"  tasks_per_s  {metrics['tasks_per_s']['value']:.4f} 1/s   "
                  "(task list over the sum of per-task medians) "
                  f"[{len(raw_medians) / (sum(raw_medians) / 1e3):.4f}]")
    report.append(f"  task_p50_ms  {metrics['task_p50_ms']['value']:.4f} ms   "
                  f"(median over {len(task_medians)} tasks of each task's median "
                  f"over {len(per_pass)} passes) [{statistics.median(raw_medians):.4f}]")
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat, n=10)[-1]
        report.append(f"  task_p90_ms  {p90:.4f} ms   ({n} samples, "
                      f"{sum(x > p90 for x in lat)} beyond)")
    else:
        report.append(f"  task_p90_ms  not reported: {n} samples, "
                      f"p90 needs {P90_MIN_SAMPLES}")
    report.append(f"  cli_p50_ms   {metrics['cli_p50_ms']['value']:.4f} ms   "
                  f"(median of {len(cli_times)}: {CLI_COMMANDS[runner.args.workload]}) "
                  f"[{statistics.median(t for t, _ in cli_times) * 1e3:.4f}]")
    report.append(f"  error_rate   {res['failed'] / attempted:.4f}   "
                  f"({res['failed']} of {attempted} tasks missed in some pass; "
                  f"misses per pass and check {res['misses']})")
    report.append(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MB")
    return metrics, res


def traced_run(runner: Runner, report: list) -> tuple[dict, dict]:
    from tracing import layer_metrics

    res = runner.measured_worker()
    firsts = [runner.first_call() for _ in range(FIRST_CALLS)]
    code = res["cli_traced"]["exit"]
    res["cli_misses"] = [] if code in (0, 1) else [f"traced CLI exited {code}"]

    metrics = layer_metrics(res, firsts, src_lines())
    report.append(f"{runner.args.workload} seed {runner.args.seed}: "
                  f"{len(res['pass_s']['untraced'])} untraced and "
                  f"{len(res['pass_s']['traced'])} traced passes of "
                  f"{res['tasks_per_pass']} tasks")
    for name, m in metrics.items():
        report.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    return metrics, res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no kinvar sources at {PACKAGE}", file=sys.stderr)
        return 2

    # a terminated run stops its children on the way out (Runner._run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    report = []
    try:
        runner = Runner(args, workdir)
        run = traced_run if args.trace else timed_run
        metrics, res = run(runner, report)
        if args.trace:
            shutil.move(workdir / "spans.jsonl",
                        OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = res["exact_failed"] == 0 and not res["cli_misses"]
    for line in report:
        print(line)
    if res["examples"]:
        print("  first misses: " + "; ".join(res["examples"]))
    if res["cli_misses"]:
        print("  CLI misses: " + "; ".join(res["cli_misses"]))
    run_facts = facts(args, res["facts"])
    print(f"  task list {res['task_list']}, result checksum {res['checksum']}")
    print("facts: " + json.dumps(run_facts, sort_keys=True))
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "facts": run_facts,
                                  "misses": res["misses"], "pass_s": res["pass_s"]},
                                 indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
