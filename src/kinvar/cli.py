"""Command-line front end.

Subcommands: ``simulate`` (dual-experiment trajectories to CSV), ``invariants``
(ratio reports with pass/fail exit code), ``prove`` (exact Laplace-domain
proportionality proof), ``fig1`` (built-in butene ratio dataset), ``balance``
(cycle-condition repair of a network file). Scenario and network inputs are
JSON; all outputs are UTF-8 with dot decimals, and reports are pretty-printed
with sorted keys so identical inputs give identical bytes.

Exit codes: 0 success/verified, 1 invariant or proof failure, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .closed_forms import (
    nonlinear_2A_B,
    nonlinear_2A_2B,
    single_reversible,
    two_step_concentrations,
)
from .errors import (
    BalanceError,
    ConfigError,
    ConservationError,
    DegenerateExperimentError,
    IntegrationError,
    KinvarError,
    MultipleEquilibriaError,
    NetworkValidationError,
    NoReversiblePathError,
)
from .integrate import (
    IntegratorConfig,
    dual_experiment_nonlinear,
    integrate,
    primed_amounts,
)
from .invariants import (
    DEFAULT_TOL,
    FIRST_ORDER_KINDS,
    InvariantSpec,
    evaluate_invariant,
    overshoot_scan,
    resolve_expected_K,
)
from .laplace import exact_balance, prove_fixed_proportion
from .linear import build_rate_matrix, default_time_grid, dual_experiment
from .network import (
    ORDER_FIRST,
    ReactionNetwork,
    balance_network,
    butene_cycle,
    check_cycle_conditions,
    config_number,
    conservation_vector,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from .trajectory import DualExperiment, Trajectory, geometric_grid, write_trajectory_csv

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# largest grid a scenario or --grid may ask for; 250 times the default 400
# points, and a 200-species trajectory on it already takes 160 MB
MAX_GRID_POINTS = 100_000

_INPUT_ERRORS = (
    ConfigError,
    NetworkValidationError,
    NoReversiblePathError,
    BalanceError,
    FileNotFoundError,
    ValueError,
)
_NUMERICAL_ERRORS = (
    IntegrationError,
    MultipleEquilibriaError,
    ConservationError,
    DegenerateExperimentError,
)


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    t_max: float
    points: int
    spacing: str

    def __post_init__(self):
        if self.spacing not in ("linear", "geometric"):
            raise ConfigError(f"grid spacing must be linear or geometric, "
                              f"got {self.spacing!r}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ConfigError("grid t_max must be positive and finite, "
                              f"got {self.t_max!r}")
        if not 2 <= self.points <= MAX_GRID_POINTS:
            raise ConfigError(f"grid points must be between 2 and {MAX_GRID_POINTS}, "
                              f"got {self.points}")

    def times(self) -> np.ndarray:
        """``{0}`` plus ``points`` times up to the named ``t_max``; geometric
        spacing starts at ``1e-3 t_max`` (``linear.default_time_grid`` has no
        horizon given and runs from ``1e-3 tau`` to ``10 tau``)."""
        if self.spacing == "linear":
            return np.linspace(0.0, self.t_max, self.points + 1)
        return geometric_grid(self.t_max * 1e-3, self.t_max, self.points)


@dataclass(frozen=True)
class ExperimentSpec:
    a: str
    b: str
    a0: Optional[float] = None
    b0: Optional[float] = None


@dataclass(frozen=True)
class InvariantRequest:
    kind: str
    pair: tuple
    expected_K: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    network: ReactionNetwork
    experiment: ExperimentSpec
    grid: Optional[GridSpec]
    invariants: tuple
    engine: str
    balance: str


def _require_keys(data: dict, allowed: set, where: str):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def parse_scenario(data: dict, base_dir: Path = Path(".")) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    _require_keys(
        data,
        {"network", "network_file", "experiment", "grid", "invariants",
         "engine", "balance"},
        "scenario",
    )
    if ("network" in data) == ("network_file" in data):
        raise ConfigError("give exactly one of 'network' or 'network_file'")
    if "network" in data:
        net = network_from_dict(data["network"])
    elif isinstance(data["network_file"], str):
        net = load_network(base_dir / data["network_file"])
    else:
        raise ConfigError("network_file must be a path string")

    exp = data.get("experiment")
    if not isinstance(exp, dict):
        raise ConfigError("scenario needs an 'experiment' object")
    _require_keys(exp, {"a", "b", "a0", "b0"}, "experiment")
    for key in ("a", "b"):
        if exp.get(key) not in net.names:
            raise ConfigError(f"experiment species {exp.get(key)!r} is not in "
                              "the network")
    if exp["a"] == exp["b"]:
        raise ConfigError("experiment species must be distinct")
    a0, b0 = (None if exp.get(key) is None else config_number(exp[key], f"experiment {key}")
              for key in ("a0", "b0"))
    experiment = ExperimentSpec(exp["a"], exp["b"], a0, b0)
    if experiment.a0 is not None or experiment.b0 is not None:
        # mismatched amounts are a scenario error, caught before any run
        w = conservation_vector(net)
        try:
            primed_amounts(net, w, net.index_of(exp["a"]), net.index_of(exp["b"]),
                           experiment.a0, experiment.b0)
        except ConservationError as exc:
            raise ConfigError(f"experiment amounts: {exc}") from None

    grid = None
    if data.get("grid") is not None:
        g = data["grid"]
        if not isinstance(g, dict):
            raise ConfigError("grid must be an object")
        _require_keys(g, {"t_max", "points", "spacing"}, "grid")
        try:
            grid = GridSpec(config_number(g["t_max"], "grid t_max"),
                            config_number(g["points"], "grid points", int),
                            str(g.get("spacing", "geometric")))
        except KeyError as exc:
            raise ConfigError(f"grid is missing {exc}") from None

    requests = []
    items = data.get("invariants", [])
    if not isinstance(items, list):
        raise ConfigError("invariants must be a list")
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError("each invariant must be an object")
        _require_keys(item, {"kind", "pair", "expected_K"}, "invariant")
        kind = str(item.get("kind"))
        if kind in FIRST_ORDER_KINDS and net.order_kind != ORDER_FIRST:
            raise ConfigError(f"invariant kind {kind!r} needs an {ORDER_FIRST} "
                              f"network, not a {net.order_kind} one")
        pair = item.get("pair")
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or any(p not in net.names for p in pair)):
            raise ConfigError(f"invariant pair {pair!r} must name two network "
                              "species")
        K = item.get("expected_K")
        requests.append(InvariantRequest(
            kind, (pair[0], pair[1]),
            None if K is None else config_number(K, "invariant expected_K"),
        ))

    engine = data.get("engine", "auto")
    if engine not in ("auto", "linear", "nonlinear", "closed-form"):
        raise ConfigError(f"unknown engine {engine!r}")
    balance = data.get("balance", "off")
    if balance not in ("off", "check", "enforce"):
        raise ConfigError(f"unknown balance mode {balance!r}")
    return Scenario(net, experiment, grid, tuple(requests), engine, balance)


def scenario_to_dict(sc: Scenario) -> dict:
    out = {
        "network": network_to_dict(sc.network),
        "experiment": {"a": sc.experiment.a, "b": sc.experiment.b},
        "engine": sc.engine,
        "balance": sc.balance,
    }
    if sc.experiment.a0 is not None:
        out["experiment"]["a0"] = sc.experiment.a0
    if sc.experiment.b0 is not None:
        out["experiment"]["b0"] = sc.experiment.b0
    if sc.grid is not None:
        out["grid"] = {"t_max": sc.grid.t_max, "points": sc.grid.points,
                       "spacing": sc.grid.spacing}
    if sc.invariants:
        out["invariants"] = []
        for req in sc.invariants:
            item = {"kind": req.kind, "pair": list(req.pair)}
            if req.expected_K is not None:
                item["expected_K"] = req.expected_K
            out["invariants"].append(item)
    return out


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _resolve_engine(engine: str, net: ReactionNetwork) -> str:
    if engine == "auto":
        return "linear" if net.order_kind == ORDER_FIRST else "nonlinear"
    if engine == "linear" and net.order_kind != ORDER_FIRST:
        raise ConfigError("engine=linear requires an all-first-order network")
    return engine


def _default_times(net: ReactionNetwork, points: int = 400) -> np.ndarray:
    if net.order_kind == ORDER_FIRST:
        return default_time_grid(build_rate_matrix(net), points)
    rates = [r.k_forward for r in net.reactions]
    rates += [r.k_backward for r in net.reactions if r.reversible]
    return GridSpec(10.0 / min(rates), points, "geometric").times()


# closed form of a lone reaction u (cu) <=> v (cv) on two species, by (cu, cv)
_TWO_SPECIES_FORMS = {(1, 1): single_reversible, (2, 1): nonlinear_2A_B,
                      (2, 2): nonlinear_2A_2B}


def _closed_form_dual(net: ReactionNetwork, a: int, b: int,
                      times: np.ndarray) -> DualExperiment:
    """Dual experiment from an analytic solution, if one fits the network.

    The network must hold one reversible reaction ``u (cu) <=> v (cv)`` with
    one species a side. On two species and no other reaction, ``(cu, cv)``
    picks A <-> B, 2A <-> B or 2A <-> 2B from ``_TWO_SPECIES_FORMS``; on three
    species joined by first-order steps, one more irreversible step
    ``v -> w`` gives the chain A <-> B -> C. The experiment pair must be
    ``(u, v)``, the reactant side of the formulas first.
    """
    rev = [r for r in net.reactions if r.reversible]
    irr = [r for r in net.reactions if not r.reversible]
    cols = None
    if len(rev) == 1 and len(rev[0].reactants) == len(rev[0].products) == 1:
        (u, cu), = rev[0].reactants
        (v, cv), = rev[0].products
        kp, km = rev[0].k_forward, rev[0].k_backward
        form = _TWO_SPECIES_FORMS.get((cu, cv))
        if net.n == 2 and not irr and form is not None:
            sol = form(kp, km, times)
            # 2A <-> B primed with B keeps a + 2b = 1
            b_from_b = ((1.0 - sol.a_from_b) / 2.0 if form is nonlinear_2A_B
                        else sol.b_from_b)
            cols = {u: (sol.a_from_a, sol.a_from_b), v: (sol.b_from_a, b_from_b)}
        elif (net.n == 3 and net.order_kind == ORDER_FIRST and len(irr) == 1
              and irr[0].reactants[0][0] == v and irr[0].products[0][0] not in (u, v)):
            sol = two_step_concentrations(kp, km, irr[0].k_forward, times)
            cols = {u: (sol.a_from_a, sol.a_from_b), v: (sol.b_from_a, sol.b_from_b),
                    irr[0].products[0][0]: (sol.c_from_a, sol.c_from_b)}
    if cols is None:
        raise ConfigError("closed-form engine does not cover this network shape")
    if (a, b) != (u, v):
        raise ConfigError("closed-form engine expects the experiment pair in the "
                          "reactant -> product orientation")
    runs = [Trajectory(times, np.column_stack([np.broadcast_to(cols[i][k], times.shape)
                                               for i in sorted(cols)]),
                       s, f"from {net.names[s]}", net)
            for k, s in enumerate((a, b))]
    # every covered shape starts from one unit of conserved material
    return DualExperiment(*runs, a, b, conserved_total=1.0)


def _run_dual(net: ReactionNetwork, engine: str, a: int, b: int,
              times: np.ndarray, exp: ExperimentSpec) -> DualExperiment:
    if engine == "linear":
        return dual_experiment(net, a, b, times)
    if engine == "closed-form":
        return _closed_form_dual(net, a, b, times)
    return dual_experiment_nonlinear(net, a, b, exp.a0, exp.b0, times)


def _run_scenario(sc: Scenario) -> tuple:
    """Balance, pick the engine and the grid, and run the scenario's dual experiment.

    Returns ``(network as run, engine, times, dual)``; the dual carries the
    experiment pair's indices.
    """
    net = sc.network
    if sc.balance == "enforce" and net.order_kind == ORDER_FIRST:
        net = balance_network(net)
    engine = _resolve_engine(sc.engine, net)
    times = sc.grid.times() if sc.grid else _default_times(net)
    a = net.index_of(sc.experiment.a)
    b = net.index_of(sc.experiment.b)
    return net, engine, times, _run_dual(net, engine, a, b, times, sc.experiment)


def _cycle_report(net: ReactionNetwork):
    """Cycle conditions of a first-order network; None for any other."""
    return check_cycle_conditions(net) if net.order_kind == ORDER_FIRST else None


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_config(args, load):
    """``load(path)`` of the ``--config`` file, which every reading command needs."""
    if args.config is None:
        raise ConfigError("--config is required")
    return load(Path(args.config))


def _load_scenario(path: Path) -> Scenario:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from None
    return parse_scenario(data, path.parent)


def _prepare(args) -> tuple:
    sc = _load_config(args, _load_scenario)
    if args.grid is not None:
        sc = replace(sc, grid=_parse_grid_flag(args.grid))
    if args.engine:
        sc = replace(sc, engine=args.engine)
    if args.balance:
        sc = replace(sc, balance="enforce")
    return sc, Path(args.out)


def _parse_grid_flag(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--grid expects tmax,points,spacing")
    return GridSpec(float(parts[0]), int(parts[1]), parts[2])


def cmd_simulate(args) -> int:
    sc, out_dir = _prepare(args)
    cycle_report = _cycle_report(sc.network) if sc.balance != "off" else None
    net, engine, times, dual = _run_scenario(sc)
    # the reference run may refuse the network, so it runs before any file is written
    oracle = _oracle_check(net, engine, times, sc.experiment, dual) if args.oracle else None

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for tag, traj in (("from_" + _safe_name(sc.experiment.a), dual.from_a),
                      ("from_" + _safe_name(sc.experiment.b), dual.from_b)):
        path = out_dir / f"{tag}.csv"
        write_trajectory_csv(path, traj, net.names)
        files[tag] = path.name

    summary = {
        "engine": engine,
        "species": list(net.names),
        "experiment": {"a": sc.experiment.a, "b": sc.experiment.b},
        "grid": {"t_min": float(times[1]), "t_max": float(times[-1]),
                 "points": int(len(times))},
        "files": files,
    }
    if dual.conserved_total is not None:
        summary["conserved_total"] = dual.conserved_total
    if cycle_report is not None:
        summary["cycle_max_mismatch"] = cycle_report.max_mismatch
        summary["balance"] = sc.balance
        if sc.balance == "enforce":
            summary["cycle_max_mismatch_after"] = check_cycle_conditions(net).max_mismatch
    if oracle is not None:
        summary["oracle"] = oracle
    _write_json(out_dir / "summary.json", summary)
    print(f"wrote {', '.join(sorted(files.values()))} and summary.json "
          f"to {out_dir}")
    return EXIT_OK


def _oracle_check(net, engine, times, exp, dual) -> dict:
    """Re-run the experiment on an independent engine and report the gap."""
    if engine in ("linear", "closed-form"):
        other = "nonlinear"
    elif net.order_kind == ORDER_FIRST:
        other = "linear"
    else:
        other = "closed-form"
    ref = _run_dual(net, other, dual.species_a, dual.species_b, times, exp)
    diff = max(
        float(np.max(np.abs(dual.from_a.concentrations - ref.from_a.concentrations))),
        float(np.max(np.abs(dual.from_b.concentrations - ref.from_b.concentrations))),
    )
    return {"reference_engine": other, "max_abs_diff": diff}


def cmd_invariants(args) -> int:
    sc, out_dir = _prepare(args)
    if not sc.invariants:
        raise ConfigError("scenario defines no invariants")
    # every kind reads its pair's species from the runs primed with the
    # experiment pair, so any other pair is not the ratio it names
    primed = (sc.experiment.a, sc.experiment.b)
    for req in sc.invariants:
        if tuple(req.pair) != primed:
            raise ConfigError(f"invariant pair {list(req.pair)} is not the "
                              f"experiment pair {list(primed)}")

    tol = args.tol
    if tol is None:
        report = _cycle_report(sc.network) if sc.balance != "enforce" else None
        if report is not None and not report.satisfied:
            raise ConfigError(
                f"cycle conditions violated (max mismatch "
                f"{report.max_mismatch:.3e}); pass --tol explicitly or "
                "use --balance"
            )
        tol = DEFAULT_TOL
    net, engine, _, dual = _run_scenario(sc)

    reports = []
    for req in sc.invariants:
        pa = net.index_of(req.pair[0])
        pb = net.index_of(req.pair[1])
        if req.expected_K is not None:
            spec = InvariantSpec(req.kind, (pa, pb), req.expected_K,
                                 "user-supplied")
        else:
            spec = resolve_expected_K(net, req.kind, pa, pb)
        reports.append(evaluate_invariant(dual, spec, tol=tol))

    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"engine": engine, "tol": tol,
               "reports": [r.to_dict() for r in reports]}
    _write_json(out_dir / "invariants.json", payload)
    ok = all(r.verdict for r in reports)
    for r in reports:
        state = "pass" if r.verdict else "FAIL"
        print(f"{state} {r.spec.kind} {sc.experiment.a}->{sc.experiment.b} "
              f"pair={r.spec.pair} K={r.spec.expected_K:.12g} "
              f"max_dev={r.max_rel_deviation:.3e}")
    return EXIT_OK if ok else EXIT_FAILED


def cmd_prove(args) -> int:
    net = _load_config(args, load_network)
    if net.order_kind != ORDER_FIRST:
        raise ConfigError("proofs require an all-first-order network")
    if args.pair is None:
        raise ConfigError("--pair A,B is required")
    names = args.pair.split(",")
    if len(names) != 2:
        raise ConfigError("--pair expects two comma-separated species names")
    for name in names:
        if name not in net.names:
            raise ConfigError(f"species {name!r} is not in the network")
    a = net.index_of(names[0])
    b = net.index_of(names[1])

    M = build_rate_matrix(net)
    subject = exact_balance(M) if args.balance else M
    report = prove_fixed_proportion(subject, a, b)

    payload = report.to_dict()
    payload["pair"] = [names[0], names[1]]
    payload["balanced"] = bool(args.balance)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "proof.json", payload)
    if report.verified:
        print(f"verified: {names[0]}->{names[1]} fixed proportion "
              f"K = {report.K} (exact)")
        return EXIT_OK
    print(f"NOT verified: first differing coefficient at degree "
          f"{report.failing_coefficient}; "
          f"{len(report.cycle_violations)} cycle violation(s)")
    for v in report.cycle_violations:
        cyc = "->".join(net.names[i] for i in v.cycle)
        print(f"  cycle {cyc}: forward {v.forward_product}, "
              f"backward {v.backward_product}, mismatch {v.mismatch}")
    return EXIT_FAILED


def cmd_fig1(args) -> int:
    net = butene_cycle()
    if args.balance:
        net = balance_network(net)
    grid = _parse_grid_flag(args.grid) if args.grid else GridSpec(2.0, 400, "geometric")
    times = grid.times()
    dual = dual_experiment(net, 0, 1, times)
    mask = times > 0
    t = times[mask]
    a_a = dual.from_a.species(0)[mask]
    b_a = dual.from_a.species(1)[mask]
    a_b = dual.from_b.species(0)[mask]
    b_b = dual.from_b.species(1)[mask]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "fig1.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,BA_over_AA,BB_over_AB,BA_over_AB\n")
        for row in zip(t, b_a / a_a, b_b / a_b, b_a / a_b):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    scan = overshoot_scan(dual.from_a, 0, 1)
    print(f"wrote {path} ({len(t)} rows); overshoot "
          f"{'detected' if scan.crossed else 'absent'}"
          + (f" at t={scan.crossing_times[0]:.4g}" if scan.crossed else ""))
    return EXIT_OK


def cmd_balance(args) -> int:
    net = _load_config(args, load_network)
    before = check_cycle_conditions(net)
    balanced = balance_network(net)
    after = check_cycle_conditions(balanced)
    # a reaction that runs against its cycle's non-tree edge has k_forward rescaled
    changes = [
        abs(new / old - 1.0)
        for a, b in zip(net.reactions, balanced.reactions)
        for old, new in ((a.k_forward, b.k_forward), (a.k_backward, b.k_backward))
        if old > 0.0
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_network(balanced, out_dir / "balanced_network.json")
    _write_json(out_dir / "balance_report.json", {
        "max_mismatch_before": before.max_mismatch,
        "max_mismatch_after": after.max_mismatch,
        "max_relative_change": max(changes, default=0.0),
        "cycles": len(before.cycles),
    })
    print(f"cycle mismatch {before.max_mismatch:.3e} -> "
          f"{after.max_mismatch:.3e}; wrote balanced_network.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinvar",
        description="Dual-experiment kinetics: simulate reaction networks, "
                    "evaluate time-invariant ratios, and prove them exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario or network JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid", help="override grid as tmax,points,spacing")
        p.add_argument("--engine",
                       choices=["auto", "linear", "nonlinear", "closed-form"],
                       help="override the scenario engine")

    p_sim = sub.add_parser("simulate", help="write dual-experiment CSVs")
    common(p_sim)
    p_sim.add_argument("--balance", action="store_true",
                       help="balance cycle conditions before simulating")
    p_sim.add_argument("--oracle", action="store_true",
                       help="cross-check against an independent engine")
    p_sim.add_argument("--dump-config", action="store_true",
                       help="print the resolved scenario and exit")
    p_sim.set_defaults(func=cmd_simulate)

    p_inv = sub.add_parser("invariants", help="evaluate invariant ratios")
    common(p_inv)
    p_inv.add_argument("--tol", type=float,
                       help="verdict tolerance (required for unbalanced "
                            "networks)")
    p_inv.add_argument("--balance", action="store_true",
                       help="balance cycle conditions before evaluating")
    p_inv.add_argument("--dump-config", action="store_true",
                       help="print the resolved scenario and exit")
    p_inv.set_defaults(func=cmd_invariants)

    p_prove = sub.add_parser("prove", help="exact fixed-proportion proof")
    p_prove.add_argument("--config", help="network JSON file")
    p_prove.add_argument("--pair", help="species pair as a,b")
    p_prove.add_argument("--out", default=".", help="output directory")
    p_prove.add_argument("--balance", action="store_true",
                         help="exactly balance the network first (rational "
                              "arithmetic)")
    p_prove.set_defaults(func=cmd_prove)

    p_fig = sub.add_parser("fig1", help="butene ratio dataset "
                                        "(t, BA/AA, BB/AB, BA/AB)")
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--grid", help="override grid as tmax,points,spacing")
    p_fig.add_argument("--balance", action="store_true",
                       help="balance the rate constants first")
    p_fig.set_defaults(func=cmd_fig1)

    p_bal = sub.add_parser("balance", help="repair cycle conditions of a "
                                           "network file")
    p_bal.add_argument("--config", help="network JSON file")
    p_bal.add_argument("--out", default=".", help="output directory")
    p_bal.set_defaults(func=cmd_balance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "dump_config", False):
            # simulate and invariants: print the resolved scenario and stop
            print(json.dumps(scenario_to_dict(_prepare(args)[0]), indent=2,
                             sort_keys=True))
            return EXIT_OK
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
