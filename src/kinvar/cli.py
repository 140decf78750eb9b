"""Command-line front end.

Subcommands: ``simulate`` (dual-experiment trajectories to CSV), ``invariants``
(ratio reports with pass/fail exit code), ``prove`` (exact Laplace-domain
proportionality proof of one pair, or of every pair at once), ``fig1``
(built-in butene ratio dataset), ``balance`` (cycle-condition repair of a
network file). Scenario and network inputs are JSON; all outputs are UTF-8
with dot decimals, and reports are pretty-printed with sorted keys so
identical inputs give identical bytes.

Exit codes: 0 success/verified, 1 invariant or proof failure, 2 input error,
3 numerical failure.

``prove`` and ``balance`` run on the network and exact modules alone; the
scenario commands and ``fig1`` import the numeric modules, and numpy with
them, when they run.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

from .errors import (
    BalanceError,
    ConfigError,
    ConservationError,
    DegenerateExperimentError,
    IntegrationError,
    MultipleEquilibriaError,
    NetworkValidationError,
    NoReversiblePathError,
)
from .laplace import (exact_balance, exact_generator, exact_view, pair_constant,
                      prove_fixed_proportion)
from .network import (
    ORDER_FIRST,
    ReactionNetwork,
    balance_network,
    butene_cycle,
    check_cycle_conditions,
    first_order_view,
    load_network,
    merged_rates,
    save_network,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING")

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


def _cycle_report(net: ReactionNetwork):
    """Cycle conditions of a first-order network; None for any other."""
    return check_cycle_conditions(net) if net.order_kind == ORDER_FIRST else None


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_trajectory_csv(path: Path, traj, names) -> None:
    """:func:`kinvar.trajectory.write_trajectory_csv`, imported on first call.

    ``simulate`` writes its CSVs through this module attribute, so a caller
    can wrap it (``perfbench/tracing.py`` does); the trajectory module loads
    numpy, which ``prove`` and ``balance`` do without.
    """
    from .trajectory import write_trajectory_csv as write

    write(path, traj, names)


def _stats_json(stats) -> dict:
    """Integrator statistics as JSON: ``min_step`` is null when no step was accepted."""
    fields = asdict(stats)
    if math.isinf(fields["min_step"]):
        fields["min_step"] = None
    return fields


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_config(args, load):
    """``load(path)`` of the ``--config`` file, which every reading command needs."""
    if args.config is None:
        raise ConfigError("--config is required")
    return load(Path(args.config))


def _prepare(args) -> tuple:
    from .scenario import load_scenario, parse_grid_flag

    sc = _load_config(args, load_scenario)
    if args.grid is not None:
        sc = replace(sc, grid=parse_grid_flag(args.grid))
    if args.engine:
        sc = replace(sc, engine=args.engine)
    if args.balance:
        sc = replace(sc, balance="enforce")
    return sc, Path(args.out)


def cmd_simulate(args) -> int:
    from .scenario import oracle_check, run_scenario

    sc, out_dir = _prepare(args)
    cycle_report = _cycle_report(sc.network) if sc.balance != "off" else None
    net, engine, times, dual = run_scenario(sc)
    # the reference run may refuse the network, so it runs before any file is written
    oracle = oracle_check(net, engine, times, sc.experiment, dual) if args.oracle else None

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    integrator = {}
    for tag, traj in (("from_" + _safe_name(sc.experiment.a), dual.from_a),
                      ("from_" + _safe_name(sc.experiment.b), dual.from_b)):
        path = out_dir / f"{tag}.csv"
        write_trajectory_csv(path, traj, net.names)
        files[tag] = path.name
        if engine == "nonlinear":
            integrator[tag] = _stats_json(traj.stats)

    summary = {
        "engine": engine,
        "species": list(net.names),
        "experiment": {"a": sc.experiment.a, "b": sc.experiment.b},
        "grid": {"t_min": float(times[1]), "t_max": float(times[-1]),
                 "points": int(len(times))},
        "files": files,
    }
    if integrator:
        summary["integrator"] = integrator
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


def cmd_invariants(args) -> int:
    from .invariants import DEFAULT_TOL, InvariantSpec, evaluate_invariant, resolve_expected_K
    from .scenario import run_scenario

    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol!r}")
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
    net, engine, _, dual = run_scenario(sc)

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

    # whether the exact detailed-balance certificate holds, so that a float
    # verdict that contradicts the exact proof shows in the file and on stdout
    certificate = (first_order_view(net).certificate.failure is None
                   if net.order_kind == ORDER_FIRST else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"engine": engine, "tol": tol,
               "reports": [dict(r.to_dict(), certificate=certificate) for r in reports]}
    _write_json(out_dir / "invariants.json", payload)
    ok = all(r.verdict for r in reports)
    for r in reports:
        state = "pass" if r.verdict else "FAIL"
        print(f"{state} {r.spec.kind} {sc.experiment.a}->{sc.experiment.b} "
              f"pair={r.spec.pair} K={r.spec.expected_K:.12g} "
              f"max_dev={r.max_rel_deviation:.3e}")
        if certificate and not r.verdict:
            print(f"  the exact proof holds: detailed balance is certified, so "
                  f"{sc.experiment.a} and {sc.experiment.b} stay in fixed proportion")
    return EXIT_OK if ok else EXIT_FAILED


def cmd_prove(args) -> int:
    net = _load_config(args, load_network)
    if net.order_kind != ORDER_FIRST:
        raise ConfigError("proofs require an all-first-order network")
    if (args.pair is not None) == args.all_pairs:
        raise ConfigError("prove takes exactly one of --pair A,B and --all-pairs")
    if args.pair is not None:
        names = args.pair.split(",")
        if len(names) != 2:
            raise ConfigError("--pair expects two comma-separated species names")
        for name in names:
            if name not in net.names:
                raise ConfigError(f"species {name!r} is not in the network")

    # a summed rate that overflows a float exits 2 here as in simulate and
    # invariants; the proof itself reads the rates summed exactly
    first_order_view(net).entries
    subject = exact_generator(net.n, merged_rates(net, Fraction))
    if args.balance:
        subject = exact_balance(subject)
    out_dir = Path(args.out)
    if args.all_pairs:
        return _prove_all_pairs(net, subject, bool(args.balance), out_dir)

    report = prove_fixed_proportion(subject, net.index_of(names[0]), net.index_of(names[1]))
    payload = report.to_dict()
    payload["pair"] = [names[0], names[1]]
    payload["balanced"] = bool(args.balance)
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


def _prove_all_pairs(net: ReactionNetwork, subject, balanced: bool, out_dir: Path) -> int:
    """Every connected pair's K from the one exact detailed-balance certificate.

    Each pair ``a < b`` that reversible steps connect is oriented as in
    ``proof.json``, ``K = h_b / h_a``; no cofactor is expanded, so a failed
    certificate proves no pair.
    """
    view = exact_view(subject)
    certificate = view.certificate
    payload = {"balanced": balanced, "certificate": certificate.failure,
               "potentials": None, "pairs": []}
    if certificate.failure is None:
        payload["potentials"] = {name: [h.numerator, h.denominator] for name, h in
                                 zip(net.names, (Fraction(p, q) for p, q in certificate.h))}
        for a in range(net.n):
            for b in range(a + 1, net.n):
                K = pair_constant(certificate, net.n, view.rates, a, b)
                if K is not None:
                    payload["pairs"].append({"pair": [net.names[a], net.names[b]],
                                             "K_num": K.numerator, "K_den": K.denominator})
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "proofs.json", payload)
    if certificate.failure is not None:
        print(f"NOT verified: {certificate.failure}")
        return EXIT_FAILED
    print(f"verified: {len(payload['pairs'])} connected pair(s) in fixed proportion "
          "(exact detailed balance); wrote proofs.json")
    return EXIT_OK


def cmd_fig1(args) -> int:
    from .invariants import overshoot_scan
    from .linear import dual_experiment
    from .scenario import GridSpec, parse_grid_flag

    net = butene_cycle()
    if args.balance:
        net = balance_network(net)
    grid = parse_grid_flag(args.grid) if args.grid else GridSpec(2.0, 400, "geometric")
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
    parser.add_argument("--log-level", metavar="{" + ",".join(_LOG_LEVELS) + "}",
                        help="log kinvar's diagnostics at this level to stderr")
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
    p_prove.add_argument("--all-pairs", action="store_true",
                         help="every connected pair from one exact certificate "
                              "(proofs.json)")
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
    logger, handler = logging.getLogger("kinvar"), None
    if args.log_level is not None:
        if args.log_level not in _LOG_LEVELS:
            print(f"error: --log-level must be one of {', '.join(_LOG_LEVELS)}, "
                  f"got {args.log_level!r}", file=sys.stderr)
            return EXIT_INPUT
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(args.log_level)
    try:
        if getattr(args, "dump_config", False):
            # simulate and invariants: print the resolved scenario and stop
            from .scenario import scenario_to_dict

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
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())
