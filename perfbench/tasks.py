"""Seeded inputs, tasks and correctness oracles of the four benchmark workloads.

A *task* is one dual experiment plus its verdict checks, or one exact proof.
Every task carries an oracle whose answer is known by construction:

- balanced integer networks: the exact pair constant ``K = h_b / h_a``, where
  ``h`` are the integer potentials the generator drew;
- the closed forms of ``2A<=>B`` and ``2A<=>2B`` and the Poisson profile of
  the equal-rate irreversible chain;
- the conserved total and nonnegativity of every trajectory;
- an LSODA reference for the stiff network, computed by ``prepare`` in a
  child process after the timed set-up;
- the expected proof verdicts, and forest expansion equal to cofactors.

A miss is either *exact* (a tolerance-free fact is wrong: K, a proof verdict,
forest against cofactor, an exception) or *tolerance* (a float result is
further from its reference than the stated tolerance). Both count as failed
tasks; only exact misses make a run incorrect.

kinvar functions are looked up through their modules at call time, so the
tracer can wrap a module attribute and see both the benchmark's calls and the
program's internal calls to it.
"""

from __future__ import annotations

import hashlib
import importlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

NET = importlib.import_module("kinvar.network")
LIN = importlib.import_module("kinvar.linear")
INT = importlib.import_module("kinvar.integrate")
LAP = importlib.import_module("kinvar.laplace")
INV = importlib.import_module("kinvar.invariants")
CF = importlib.import_module("kinvar.closed_forms")

WORKLOADS = ("linear-verify", "mass-action", "stiff", "exact-proof")

# stated tolerances (see README.md for the reasoning behind each)
LINEAR_TOTAL_TOL = 1e-9                # |sum c - 1| for the float linear engine
LINEAR_NEG_FLOOR = -INV.DENOM_FLOOR    # the program's own "zero" concentration
BUTENE_K_TOL = 1e-12                   # float-balanced K against its own rate ratio
POISSON_TOL = 1e-10                    # expm path against the Poisson profile
CLOSED_FORM_TOL = 1e-9                 # integrator against the tanh closed forms
DRIFT_TOL = 1e-10                      # relative drift of w.c on integrated runs
STIFF_RTOL = 1e-6
STIFF_T_MIN = 1e-6
STIFF_HORIZON = 1.0
STIFF_GAP_TOL = 10 * STIFF_RTOL        # absolute, against a unit conserved total
TASK_TIMEOUT_S = 60.0                  # a task slower than this counts as failed

# the 40-species alternating chain of benchmarks/bench_integrate.py
CHAIN_SEED = 20240817
CHAIN_SPECIES = 40


@dataclass(frozen=True)
class Miss:
    check: str
    detail: str
    exact: bool


@dataclass
class Task:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]


@dataclass
class Workload:
    name: str
    tasks: list
    warmup: list
    cli: dict
    networks: list   # the seeded networks, for the smoke test
    # oracle-only work that must not count as set-up; run before the tasks
    prepare: Callable[[], None] = lambda: None


def checksum(*parts) -> str:
    """Short stable hash of the parts' representation."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _sig(x) -> str:
    """Value rounded to 9 significant digits, so the digest ignores roundoff."""
    return f"{float(x):.9g}"


# ---------------------------------------------------------------------------
# input generators


def balanced_integer_network(rng, n, extra_edges=2, h_max=6, g_max=9):
    """Reversible first-order network that satisfies detailed balance exactly.

    Species get integer potentials h and undirected edges integer
    conductances g; the rates k(u->v) = g h_v and k(v->u) = g h_u cancel every
    cycle product identically, and K_ab = h_b / h_a. A random spanning tree
    keeps every pair reversibly connected; extra edges add cycles.
    """
    h = [int(x) for x in rng.integers(1, h_max + 1, size=n)]
    order = [int(x) for x in rng.permutation(n)]
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[int(rng.integers(0, i))]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < n - 1 + extra_edges:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    names = [f"S{i}" for i in range(n)]
    spec = []
    for u, v in sorted(edges):
        g = int(rng.integers(1, g_max + 1))
        spec.append((names[u], names[v], float(g * h[v]), float(g * h[u])))
    return NET.first_order_network(names, spec), h


def all_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def sample_pairs(rng, n, count):
    """``count`` distinct unordered pairs, drawn uniformly from all of them.

    The generated networks are connected, so every pair is reversibly
    connected; distant pairs are drawn as often as neighbours.
    """
    pairs = all_pairs(n)
    idx = rng.choice(len(pairs), size=count, replace=False)
    return [pairs[int(i)] for i in idx]


def defective_chain(n=30):
    """Irreversible equal-rate chain S0 -> S1 -> ... : a defective generator."""
    names = [f"S{i}" for i in range(n)]
    return NET.first_order_network(
        names, [(names[i], names[i + 1], 1.0, 0.0) for i in range(n - 1)])


def alternating_chain():
    """The 40-species chain with alternating first- and second-order steps.

    Returns the network and its conservation weights, known by construction:
    a step ``o S_i <=> S_{i+1}`` forces ``w_{i+1} = o w_i``.
    """
    rng = np.random.default_rng(CHAIN_SEED)
    names = [f"S{i}" for i in range(CHAIN_SPECIES)]
    reactions = []
    w = [1.0]
    for i in range(CHAIN_SPECIES - 1):
        kf, kb = rng.uniform(0.5, 4.0, size=2)
        order = 2 if i % 3 == 0 else 1
        reactions.append(NET.Reaction(((i, order),), ((i + 1, 1),),
                                      float(kf), float(kb)))
        w.append(w[-1] * order)
    return NET.make_network(names, reactions), np.array(w)


def dimerization(kp, km, product_coeff):
    """``2A <=> B`` (product_coeff 1) or ``2A <=> 2B`` (product_coeff 2)."""
    return NET.make_network(
        ["A", "B"], [NET.Reaction(((0, 2),), ((1, product_coeff),), kp, km)])


def stiff_network():
    return NET.make_network(["A", "B", "C"], [
        NET.Reaction(((0, 2),), ((1, 1),), 1e4, 1e3),
        NET.Reaction(((1, 1),), ((2, 1),), 1e-2, 5e-3),
    ])


def geometric_times(t_min, t_max, points):
    return np.concatenate(([0.0], np.geomspace(t_min, t_max, points)))


def default_nonlinear_times(kp, km, points=400):
    """The CLI's default grid for a network whose slowest rate is min(kp, km)."""
    t_max = 10.0 / min(kp, km)
    return geometric_times(1e-3 * t_max, t_max, points)


def stiff_times(t_max=STIFF_HORIZON, points=200):
    return geometric_times(STIFF_T_MIN, t_max, points)


def stiff_reference(times):
    """LSODA solution of both primings with an analytic Jacobian, rows per time.

    Tolerances sit five orders below the workload's, so the reference error
    is negligible against ``STIFF_GAP_TOL``.
    """
    from scipy.integrate import solve_ivp

    kf1, kb1, kf2, kb2 = 1e4, 1e3, 1e-2, 5e-3

    def rhs(_t, c):
        a, b, cc = c
        r1 = kf1 * a * a - kb1 * b
        r2 = kf2 * b - kb2 * cc
        return [-2.0 * r1, r1 - r2, r2]

    def jac(_t, c):
        a = c[0]
        return [[-4.0 * kf1 * a, 2.0 * kb1, 0.0],
                [2.0 * kf1 * a, -kb1 - kf2, kb2],
                [0.0, kf2, -kb2]]

    out = []
    for c0 in ([1.0, 0.0, 0.0], [0.0, 0.5, 0.0]):
        sol = solve_ivp(rhs, (0.0, float(times[-1])), c0, method="LSODA",
                        t_eval=times, jac=jac, rtol=1e-11, atol=1e-15)
        if not sol.success:
            raise RuntimeError(f"stiff reference failed: {sol.message}")
        out.append(sol.y.T.copy())
    return out


# ---------------------------------------------------------------------------
# shared checks


def _check_linear_dual(dual, misses):
    for traj in (dual.from_a, dual.from_b):
        c = traj.concentrations
        drift = float(np.max(np.abs(c.sum(axis=1) - 1.0)))
        if not drift <= LINEAR_TOTAL_TOL:
            misses.append(Miss("conserved-total", f"{traj.label}: {drift:.2e}", False))
        low = float(c.min())
        if not low >= LINEAR_NEG_FLOOR:
            misses.append(Miss("nonnegative", f"{traj.label}: min {low:.2e}", False))


def _check_integrated_dual(dual, w, cfg_abs_tol, misses):
    total = float(w @ dual.from_a.concentrations[0])
    if not abs(total - dual.conserved_total) <= DRIFT_TOL * total:
        misses.append(Miss("conserved-total",
                           f"reported {dual.conserved_total!r}, expected {total!r}",
                           False))
    for traj in (dual.from_a, dual.from_b):
        c = traj.concentrations
        drift = float(np.max(np.abs(c @ w - total))) / total
        if not drift <= DRIFT_TOL:
            misses.append(Miss("conserved-total", f"{traj.label}: drift {drift:.2e}",
                               False))
        low = float(c.min())
        if not low >= -10.0 * cfg_abs_tol:
            misses.append(Miss("nonnegative", f"{traj.label}: min {low:.2e}", False))


def _check_verdict(report, misses):
    if not report.verdict:
        misses.append(Miss("verdict", f"FAIL at tol {report.tol:g}: max rel dev "
                                      f"{report.max_rel_deviation:.2e}", False))


def _digest_dual(dual):
    return checksum(*(_sig(x) for x in dual.from_a.concentrations[-1]),
                    *(_sig(x) for x in dual.from_b.concentrations[-1]))


# ---------------------------------------------------------------------------
# linear-verify


def _linear_task(name, kind, net, a, b, expected_K):
    """Dual experiment, constant resolution and verdict, as `kinvar invariants`."""

    def run():
        M = LIN.build_rate_matrix(net)
        times = LIN.default_time_grid(M)
        dual = LIN.dual_experiment(net, a, b, times)
        spec = INV.resolve_expected_K(net, "linear_ratio", a, b)
        return dual, spec, INV.evaluate_invariant(dual, spec)

    def check(out):
        dual, spec, report = out
        misses = []
        if spec.expected_K != float(expected_K):
            misses.append(Miss("K", f"{spec.expected_K!r} != {float(expected_K)!r}", True))
        _check_linear_dual(dual, misses)
        _check_verdict(report, misses)
        return misses

    def digest(out):
        dual, spec, report = out
        return checksum(_digest_dual(dual), spec.expected_K, report.verdict)

    return Task(name, kind, run, check, digest)


def _butene_task(a, b):
    """Float balancing of the butene cycle, then the linear verdict on it."""
    raw = NET.butene_cycle()

    def run():
        net = NET.balance_network(raw)
        cycles = NET.check_cycle_conditions(net)
        M = LIN.build_rate_matrix(net)
        times = LIN.default_time_grid(M)
        dual = LIN.dual_experiment(net, a, b, times)
        spec = INV.resolve_expected_K(net, "linear_ratio", a, b)
        return net, cycles, dual, spec, INV.evaluate_invariant(dual, spec)

    def check(out):
        net, cycles, dual, spec, report = out
        misses = []
        if not cycles.satisfied:
            misses.append(Miss("balanced", f"mismatch {cycles.max_mismatch:.2e}", False))
        # every butene pair is joined by one reaction; once the cycle is
        # balanced its own rate ratio is the pair constant
        ratios = {}
        for rxn in net.reactions:
            u, v = rxn.reactants[0][0], rxn.products[0][0]
            ratios[u, v] = rxn.k_forward / rxn.k_backward
            ratios[v, u] = rxn.k_backward / rxn.k_forward
        expected = ratios[a, b]
        if not abs(spec.expected_K / expected - 1.0) <= BUTENE_K_TOL:
            misses.append(Miss("K", f"{spec.expected_K!r} != {expected!r}", False))
        _check_linear_dual(dual, misses)
        _check_verdict(report, misses)
        return misses

    def digest(out):
        return checksum(_digest_dual(out[2]), _sig(out[3].expected_K), out[4].verdict)

    return Task(f"butene-balanced:{a},{b}", "butene", run, check, digest)


def _poisson_profile(n, times, shift):
    """Equal-rate irreversible chain primed with pure S_shift."""
    from math import lgamma

    out = np.zeros((len(times), n))
    t = np.asarray(times, dtype=float)
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    for k in range(n - 1 - shift):
        if k == 0:
            out[:, shift] = np.exp(-t)
        else:
            out[1:, shift + k] = np.exp(k * logt[1:] - t[1:] - lgamma(k + 1))
    out[:, n - 1] = 1.0 - out[:, :n - 1].sum(axis=1)
    return out


def _defective_task(net):
    n = net.n

    def run():
        M = LIN.build_rate_matrix(net)
        times = LIN.default_time_grid(M)
        return LIN.dual_experiment(net, 0, 1, times)

    def check(dual):
        misses = []
        for traj, shift in ((dual.from_a, 0), (dual.from_b, 1)):
            ref = _poisson_profile(n, dual.times, shift)
            gap = float(np.max(np.abs(traj.concentrations - ref)))
            if not gap <= POISSON_TOL:
                misses.append(Miss("reference", f"{traj.label}: Poisson gap {gap:.2e}",
                                   False))
        _check_linear_dual(dual, misses)
        return misses

    return Task(f"defective-chain-{n}:0,1", "defective", run, check, _digest_dual)


def linear_verify(seed):
    rng = np.random.default_rng(seed)
    tasks, networks = [], []
    cli = None
    # (label, species, extra edges, networks, pairs per network)
    plan = [("n10", 10, 2, 3, 4), ("n50", 50, 2, 3, 8), ("n200", 200, 2, 1, 5),
            ("cycles50", 50, 10, 1, 4)]
    for label, n, extra, count, per_net in plan:
        for j in range(count):
            net, h = balanced_integer_network(rng, n, extra_edges=extra)
            networks.append(net)
            for a, b in sample_pairs(rng, n, per_net):
                K = Fraction(h[b], h[a])
                tasks.append(_linear_task(f"{label}-{j}:{a},{b}", label, net, a, b, K))
                if cli is None and label == "n50":
                    cli = {"network": NET.network_to_dict(net), "pair": [a, b],
                           "expected_K": float(K)}
    for a, b in ((0, 1), (1, 2), (0, 2)):
        tasks.append(_butene_task(a, b))
    chain = defective_chain(30)
    tasks.append(_defective_task(chain))

    small, h = balanced_integer_network(np.random.default_rng(0), 3, extra_edges=1)
    warmup = [_linear_task("warmup", "warmup", small, 0, 2, Fraction(h[2], h[0])),
              _butene_task(0, 1), _defective_task(defective_chain(3))]
    return Workload("linear-verify", tasks, warmup, cli, networks)


# ---------------------------------------------------------------------------
# mass-action


def _chain_task(net, w, times, cfg):
    def run():
        return INT.dual_experiment_nonlinear(net, 0, net.n - 1, times=times, cfg=cfg)

    def check(dual):
        misses = []
        _check_integrated_dual(dual, w, cfg.abs_tol, misses)
        return misses

    return Task(f"chain-{net.n}:0,{net.n - 1}", "chain", run, check, _digest_dual)


def _dimer_task(name, kp, km, coeff, times):
    net = dimerization(kp, km, coeff)
    # the invariant kind and its closed form share a name
    kind = "nonlinear_2A_B" if coeff == 1 else "nonlinear_2A_2B"
    w = np.array([1.0, 2.0 / coeff])
    cfg = INT.IntegratorConfig()

    def run():
        dual = INT.dual_experiment_nonlinear(net, 0, 1, times=times)
        sol = getattr(CF, kind)(kp, km, times)
        spec = INV.resolve_expected_K(net, kind, 0, 1)
        return dual, sol, spec, INV.evaluate_invariant(dual, spec)

    def check(out):
        dual, sol, spec, report = out
        misses = []
        if spec.expected_K != kp / km:
            misses.append(Miss("K", f"{spec.expected_K!r} != {kp / km!r}", True))
        pairs = [(sol.a_from_a, dual.from_a.species(0)),
                 (sol.b_from_a, dual.from_a.species(1)),
                 (sol.a_from_b, dual.from_b.species(0))]
        if coeff == 2:
            pairs.append((sol.b_from_b, dual.from_b.species(1)))
        gap = max(float(np.max(np.abs(x - y))) for x, y in pairs)
        if not gap <= CLOSED_FORM_TOL:
            misses.append(Miss("reference", f"closed-form gap {gap:.2e}", False))
        _check_integrated_dual(dual, w, cfg.abs_tol, misses)
        _check_verdict(report, misses)
        return misses

    def digest(out):
        return checksum(_digest_dual(out[0]), out[2].expected_K, out[3].verdict)

    return Task(name, kind, run, check, digest)


def mass_action(seed):
    rng = np.random.default_rng(seed)
    chain, w = alternating_chain()
    chain_times = geometric_times(1e-3, 20.0, 200)
    chain_cfg = INT.IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
    tasks = [_chain_task(chain, w, chain_times, chain_cfg)]
    networks = []
    for coeff, label in ((1, "2A<=>B"), (2, "2A<=>2B")):
        for j in range(16):
            kp, km = (float(x) for x in rng.uniform(0.5, 4.0, size=2))
            tasks.append(_dimer_task(f"{label}-{j}", kp, km, coeff,
                                     default_nonlinear_times(kp, km)))
            networks.append(dimerization(kp, km, coeff))
    cli = {"network": NET.network_to_dict(networks[0])}
    warmup = [_dimer_task("warmup", 2.0, 1.0, 1, geometric_times(1e-3, 1.0, 20))]
    return Workload("mass-action", tasks, warmup, cli, networks)


# ---------------------------------------------------------------------------
# stiff


def _stiff_task(net, times, ref):
    """``ref`` is filled by the workload's ``prepare``; None checks no reference."""
    w = np.array([1.0, 2.0, 2.0])
    cfg = INT.IntegratorConfig(rel_tol=STIFF_RTOL)

    def run():
        return INT.dual_experiment_nonlinear(net, 0, 1, times=times, cfg=cfg)

    def check(dual):
        misses = []
        if ref is not None and len(ref) != 2:
            raise RuntimeError("the stiff reference is computed by prepare()")
        for traj, r in zip((dual.from_a, dual.from_b), ref or ()):
            gap = float(np.max(np.abs(traj.concentrations - r)))
            if not gap <= STIFF_GAP_TOL:
                misses.append(Miss("reference", f"{traj.label}: LSODA gap {gap:.2e}",
                                   False))
        _check_integrated_dual(dual, w, cfg.abs_tol, misses)
        return misses

    return Task(f"stiff-T{times[-1]:g}:A,B", "stiff", run, check, _digest_dual)


def stiff(seed):
    """The stiff network is fixed; the seed changes nothing in its inputs."""
    net = stiff_network()
    times = stiff_times()
    ref = []
    cli = {"network": NET.network_to_dict(net)}

    def prepare():
        # in a child process, so that scipy.integrate, which kinvar never
        # imports, stays out of the worker's peak memory
        with ProcessPoolExecutor(max_workers=1) as pool:
            ref[:] = pool.submit(stiff_reference, times).result()
        cli["final"] = {"A": ref[0][-1].tolist(), "B": ref[1][-1].tolist()}

    tasks = [_stiff_task(net, times, ref)]
    # warm-up results are not scored, so the warm-up needs no reference
    warmup = [_stiff_task(net, stiff_times(1e-4, 20), None)]
    return Workload("stiff", tasks, warmup, cli, [net], prepare)


# ---------------------------------------------------------------------------
# exact-proof


def _proof_task(name, kind, M, a, b, expect_verified, expected_K):
    def run():
        return LAP.prove_fixed_proportion(M, a, b)

    def check(report):
        misses = []
        if report.verified != expect_verified:
            misses.append(Miss("proof-verdict", f"verified={report.verified}", True))
        if expected_K is not None and report.K != expected_K:
            misses.append(Miss("K", f"{report.K} != {expected_K}", True))
        if not expect_verified and not report.cycle_violations:
            misses.append(Miss("proof-verdict", "no cycle violation reported", True))
        return misses

    def digest(report):
        return checksum(str(report.K), report.verified, report.failing_coefficient)

    return Task(name, kind, run, check, digest)


def _balanced_butene_task(M, a, b):
    def run():
        E = LAP.exact_balance(M)
        return E, LAP.prove_fixed_proportion(E, a, b)

    def check(out):
        E, report = out
        misses = []
        if not report.verified:
            misses.append(Miss("proof-verdict", "balanced butene not verified", True))
        # a and b share a reaction, so its exact rate ratio is the pair constant
        if report.K != Fraction(E[b][a]) / E[a][b]:
            misses.append(Miss("K", f"{report.K} != {E[b][a]}/{E[a][b]}", True))
        return misses

    def digest(out):
        return checksum(str(out[1].K), out[1].verified)

    return Task(f"butene-exact-balance:{a},{b}", "butene-balanced", run, check, digest)


def _forest_task(name, M):
    n = M.n

    def run():
        table = LAP.all_transfer_functions_forest(M)
        direct = {(s, t): LAP.transfer_function_cofactor(M, s, t)
                  for s in range(n) for t in range(n)}
        return table, direct

    def check(out):
        table, direct = out
        bad = [p for p, f in direct.items()
               if f.numerator != table[p].numerator
               or f.denominator != table[p].denominator]
        return [Miss("forest-cofactor", f"{len(bad)} pairs differ", True)] if bad else []

    def digest(out):
        table = out[0]
        return checksum(*(str(table[p].numerator) for p in sorted(table)))

    return Task(name, "forest", run, check, digest)


def exact_proof(seed):
    rng = np.random.default_rng(seed)
    tasks, networks = [], []
    for n in (4, 6, 8, 10, 12, 16):
        net, h = balanced_integer_network(rng, n)
        networks.append(net)
        M = LIN.build_rate_matrix(net)
        for a, b in all_pairs(n):
            tasks.append(_proof_task(f"n{n}:{a},{b}", f"prove-n{n}", M, a, b,
                                     True, Fraction(h[b], h[a])))
        if n <= 8:
            tasks.append(_forest_task(f"forest-n{n}", M))
    butene = LIN.build_rate_matrix(NET.butene_cycle())
    for a, b in all_pairs(3):
        tasks.append(_balanced_butene_task(butene, a, b))
        tasks.append(_proof_task(f"butene-raw:{a},{b}", "butene-raw", butene, a, b,
                                 False, None))
    small, h = balanced_integer_network(np.random.default_rng(0), 3, extra_edges=1)
    M_small = LIN.build_rate_matrix(small)
    warmup = [_proof_task("warmup", "warmup", M_small, 0, 2, True, Fraction(h[2], h[0])),
              _forest_task("warmup-forest", M_small),
              _balanced_butene_task(butene, 0, 1)]
    a, b = all_pairs(3)[int(rng.integers(0, 3))]
    E = LAP.exact_balance(butene)
    K = Fraction(E[b][a]) / E[a][b]
    cli = {"network": NET.network_to_dict(NET.butene_cycle()), "pair": [a, b],
           "expected_K": [K.numerator, K.denominator]}
    return Workload("exact-proof", tasks, warmup, cli, networks)


BUILDERS = {
    "linear-verify": linear_verify,
    "mass-action": mass_action,
    "stiff": stiff,
    "exact-proof": exact_proof,
}


def build(name, seed) -> Workload:
    return BUILDERS[name](seed)
