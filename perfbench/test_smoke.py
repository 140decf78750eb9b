"""Smoke test of the benchmark itself (not of kinvar).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

The first test starts the real command once per workload and trace mode
with a one-second run, so the file takes a minute or two.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tasks as T  # noqa: E402
import worker  # noqa: E402
from tracing import TASK_SPANS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDED = ("linear-verify", "mass-action", "exact-proof")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _sample(workload):
    """The first task of every kind, so a check stays cheap."""
    seen = {}
    for task in workload.tasks:
        seen.setdefault(task.kind, task)
    return list(seen.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(name, trace):
    proc = _run(name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("stiff", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", T.WORKLOADS)
def test_same_seed_gives_same_tasks_and_checksums(name):
    first, second = T.build(name, 11), T.build(name, 11)
    assert [t.name for t in first.tasks] == [t.name for t in second.tasks]
    assert first.cli == second.cli
    for a, b in zip(_sample(first), _sample(second)):
        assert a.digest(a.run()) == b.digest(b.run())


@pytest.mark.parametrize("name", SEEDED)
def test_other_seed_gives_other_networks_of_same_sizes(name):
    first, second = T.build(name, 11), T.build(name, 12)
    assert [t.kind for t in first.tasks] == [t.kind for t in second.tasks]
    assert [n.n for n in first.networks] == [n.n for n in second.networks]
    assert [n.reactions for n in first.networks] != [n.reactions for n in second.networks]


def test_stiff_inputs_do_not_depend_on_the_seed():
    assert T.build("stiff", 11).networks == T.build("stiff", 12).networks


@pytest.mark.parametrize("name", T.WORKLOADS)
def test_traced_self_times_add_up_to_span_totals(name):
    workload = T.build(name, 5)
    workload.prepare()
    tracer = Tracer()
    with tracer.installed():
        for i, task in enumerate(_sample(workload)):
            tracer.task = (0, i)
            _, misses, _ = worker.run_task(task, tracer)
            assert not any(m.exact for m in misses), misses
    totals = tracer.totals()
    assert set(totals) <= set(TASK_SPANS)
    self_sum = sum(seconds for _, seconds in totals.values())
    assert self_sum == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert totals["bench.task"][0] == len(_sample(workload))
    assert len(totals) > 2  # spans below the root were seen
    # wrappers are removed after the traced block
    assert T.LIN.build_rate_matrix.__module__ == "kinvar.linear"
    assert not hasattr(T.LIN.build_rate_matrix, "__wrapped__")
