"""Scenario files: the JSON schema of a dual experiment and the engines that run it.

A scenario names a network (inline or as a file), the experiment pair and its
priming amounts, an optional time grid, the invariants to evaluate, the engine
and the balance mode. ``kinvar simulate`` and ``kinvar invariants`` parse and
run scenarios here; this module loads numpy and the numeric modules, which
``kinvar prove`` and ``kinvar balance`` never import. The closed forms and the
integrator are imported where their engines run, so a first-order run never
loads them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ConservationError
from .invariants import kind_reaction
from .linear import build_rate_matrix, default_time_grid, dual_experiment
from .network import (
    ORDER_FIRST,
    ReactionNetwork,
    balance_network,
    config_number,
    conservation_vector,
    load_network,
    network_from_dict,
    network_to_dict,
)
from .trajectory import DualExperiment, Trajectory, check_grid, geometric_grid

# largest grid a scenario or --grid may ask for; 250 times the default 400
# points, and a 200-species trajectory on it already takes 160 MB
MAX_GRID_POINTS = 100_000


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
    for key, amount in (("a0", a0), ("b0", b0)):
        if amount is not None and not math.isfinite(amount):
            raise ConfigError(f"experiment {key} must be finite, got {amount!r}")
    experiment = ExperimentSpec(exp["a"], exp["b"], a0, b0)
    if experiment.a0 is not None or experiment.b0 is not None:
        # mismatched amounts are a scenario error, caught before any run
        from .integrate import primed_amounts

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
        if "kind" not in item:
            raise ConfigError("invariant missing field 'kind'")
        kind = str(item["kind"])
        try:
            first_order = kind_reaction(kind) == (1, 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if first_order and net.order_kind != ORDER_FIRST:
            raise ConfigError(f"invariant kind {kind!r} needs an {ORDER_FIRST} "
                              f"network, not a {net.order_kind} one")
        pair = item.get("pair")
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or any(p not in net.names for p in pair)):
            raise ConfigError(f"invariant pair {pair!r} must name two network "
                              "species")
        K = item.get("expected_K")
        if K is not None:
            K = config_number(K, "invariant expected_K")
            # a subnormal K overflows the ratios divided by it
            if 0.0 < K < sys.float_info.min:
                raise ConfigError(f"invariant expected_K {K!r} is below the smallest "
                                  f"normal float {sys.float_info.min!r}")
        requests.append(InvariantRequest(kind, (pair[0], pair[1]), K))

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


def load_scenario(path: Path) -> Scenario:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from None
    return parse_scenario(data, path.parent)


def parse_grid_flag(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("--grid expects tmax,points,spacing")
    return GridSpec(config_number(parts[0], "--grid t_max"),
                    config_number(parts[1], "--grid points", int), parts[2])


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


def _closed_form_dual(net: ReactionNetwork, a: int, b: int,
                      times: np.ndarray) -> DualExperiment:
    """Dual experiment from an analytic solution, if one fits the network.

    The network must hold one reversible reaction ``u (cu) <=> v (cv)`` with
    one species a side. On two species and no other reaction, ``(cu, cv)``
    picks A <-> B, 2A <-> B or 2A <-> 2B; on three species joined by
    first-order steps, one more irreversible step ``v -> w`` gives the chain
    A <-> B -> C. The experiment pair must be ``(u, v)``, the reactant side of
    the formulas first.
    """
    from .closed_forms import (nonlinear_2A_B, nonlinear_2A_2B, single_reversible,
                               two_step_concentrations)

    times = check_grid(times)  # one copy, kept by both runs
    # closed form of a lone reaction u (cu) <=> v (cv) on two species, keyed by
    # the (cu, cv) = (νa, νb) of the invariant kind whose reaction it solves
    two_species_forms = {kind_reaction(kind): form for kind, form in (
        ("linear_ratio", single_reversible), ("nonlinear_2A_B", nonlinear_2A_B),
        ("nonlinear_2A_2B", nonlinear_2A_2B))}
    rev = [r for r in net.reactions if r.reversible]
    irr = [r for r in net.reactions if not r.reversible]
    cols = None
    if len(rev) == 1 and len(rev[0].reactants) == len(rev[0].products) == 1:
        (u, cu), = rev[0].reactants
        (v, cv), = rev[0].products
        kp, km = rev[0].k_forward, rev[0].k_backward
        form = two_species_forms.get((cu, cv))
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
    from .integrate import dual_experiment_nonlinear

    return dual_experiment_nonlinear(net, a, b, exp.a0, exp.b0, times)


def run_scenario(sc: Scenario) -> tuple:
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


def oracle_check(net, engine, times, exp, dual) -> dict:
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

