#!/usr/bin/env python3
"""One-off capped probe of the inputs too slow for the repeated workloads.

Usage (from the repository root):

    python3 perfbench/probe.py

Each slow input runs once in a child process under a 600 s wall-clock cap
and a 1500 MB address-space cap (the path search would otherwise exhaust
memory). It is recorded as "finished in X s", "hit cap at X s" or
"failed ... at X s". The inputs:

- ``stiff-full-horizon``: one priming of the stiff workload's network
  (``2A<=>B`` k 1e4/1e3 plus ``B<=>C`` k 1e-2/5e-3) from pure A, rtol 1e-6,
  on a geometric grid from 1e-6 to 1e3;
- ``resolve-200-40``: ``resolve_expected_K`` on a seeded balanced integer
  network of 200 species with 40 extra edges (seed 0), for a seeded pair.

The record is printed and written to ``perfbench/out/probe.json``. This
probe is not part of ``run.py``: a capped run that may last minutes does not
belong in the repeated, timed workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time

from run import HERE, OUT, child_env, ROOT

PROBES = ("stiff-full-horizon", "resolve-200-40")
STIFF_FULL_HORIZON = 1e3
CAP_S = 600.0
MEMORY_MB = 1500
SEED = 0


def child(name):
    """Run one probe input in this process; prints its result as JSON."""
    import numpy as np
    import tasks as T

    if name == "stiff-full-horizon":
        net = T.stiff_network()
        times = T.stiff_times(STIFF_FULL_HORIZON)
        cfg = T.INT.IntegratorConfig(rel_tol=T.STIFF_RTOL)
        start = time.perf_counter()
        traj = T.INT.integrate(net, np.array([1.0, 0.0, 0.0]), times, cfg)
        elapsed = time.perf_counter() - start
        detail = {"final": traj.concentrations[-1].tolist()}
    else:
        rng = np.random.default_rng(SEED)
        net, h = T.balanced_integer_network(rng, 200, extra_edges=40)
        a, b = T.sample_pairs(rng, 200, 1)[0]
        start = time.perf_counter()
        spec = T.INV.resolve_expected_K(net, "linear_ratio", a, b)
        elapsed = time.perf_counter() - start
        detail = {"pair": [a, b], "K": spec.expected_K, "expected": h[b] / h[a]}
    print(json.dumps({"elapsed_s": elapsed, **detail}))


def run_probe(name):
    cmd = [sys.executable, str(HERE / "probe.py"), "--child", name]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CAP_S)
    except subprocess.TimeoutExpired:
        wall = time.perf_counter() - start
        return {"probe": name, "outcome": f"hit cap at {wall:.1f} s", "cap_s": CAP_S}
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return {"probe": name, "outcome": f"failed ({last}) at {wall:.1f} s",
                "cap_s": CAP_S}
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"probe": name, "outcome": f"finished in {result['elapsed_s']:.1f} s",
            "cap_s": CAP_S, "wall_s": wall, **result}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--child", choices=PROBES, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        limit = MEMORY_MB * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        child(args.child)
        return 0
    records = [run_probe(name) for name in PROBES]
    for r in records:
        print(f"{r['probe']}: {r['outcome']} (cap {r['cap_s']:g} s)")
    OUT.mkdir(exist_ok=True)
    (OUT / "probe.json").write_text(json.dumps({
        "records": records, "seed": SEED, "memory_mb": MEMORY_MB,
        "python": platform.python_version(), "machine": platform.machine(),
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
