"""Shared test helpers: seeded RNGs, random network generators and the
printed three-cycle transforms."""

import importlib.util
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kinvar import Polynomial, RationalFunction, first_order_network


@pytest.fixture
def rng():
    return np.random.default_rng(185513)


def balanced_integer_network(rng, n, extra_edges=2, h_max=6, g_max=9):
    """Random reversible first-order network satisfying detailed balance exactly.

    Each species v gets an integer potential h_v and each undirected edge
    (u, v) an integer conductance g; the rates k(u->v) = g*h_v and
    k(v->u) = g*h_u make every cycle product cancel identically, and the
    equilibrium constant of any pair (a, b) is h_b/h_a.  All rates are small
    integers, so they are exact in float64 and the detailed balance holds
    without rounding error.

    Returns (network, potentials).
    """
    h = [int(x) for x in rng.integers(1, h_max + 1, size=n)]
    edges = set()
    order = [int(x) for x in rng.permutation(n)]
    for i in range(1, n):
        u = order[i]
        v = order[int(rng.integers(0, i))]
        edges.add((min(u, v), max(u, v)))
    for _ in range(extra_edges):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    names = [chr(ord("A") + i) for i in range(n)]
    spec = []
    for u, v in sorted(edges):
        g = int(rng.integers(1, g_max + 1))
        spec.append((names[u], names[v], float(g * h[v]), float(g * h[u])))
    net = first_order_network(names, spec)
    return net, h


def perturbed_network(rng, net):
    """Copy of ``net`` with every backward rate scaled by a random factor."""
    return first_order_network(
        list(net.names),
        [
            (net.names[r.reactants[0][0]], net.names[r.products[0][0]],
             r.k_forward, r.k_backward * float(rng.uniform(0.5, 2.0)))
            for r in net.reactions
        ],
    )


def benchmark_networks(seed, workload="exact-proof"):
    """The seeded networks of one benchmark workload, balanced ones for exact-proof."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tasks.py"
    spec = importlib.util.spec_from_file_location("perfbench_tasks", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module.build(workload, seed).networks


def parallel_path_network():
    """A <=> B <=> C <=> D <=> A with two reactions on each of A-B and B-C.

    The parallel rates are decimal floats, so their float sums round and
    differ from their exact sums; one of each pair runs against the other.
    """
    return first_order_network(list("ABCD"), [
        ("A", "B", 0.1, 0.3), ("B", "A", 0.7, 0.2),
        ("B", "C", 0.3, 0.1), ("C", "B", 0.6, 1.1),
        ("C", "D", 0.4, 0.9), ("D", "A", 0.5, 0.25),
    ])


def exact_pair_constant(h, a, b) -> Fraction:
    """Equilibrium constant h_b/h_a for a balanced-integer network pair."""
    return Fraction(h[b], h[a])


def reversibly_connected_pairs(net):
    """Unordered species pairs joined by a path of reversible reactions."""
    adj = {i: set() for i in range(net.n)}
    for rxn in net.reactions:
        if rxn.reversible and rxn.first_order:
            u = rxn.reactants[0][0]
            v = rxn.products[0][0]
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    pairs = []
    for start in range(net.n):
        if start in seen:
            continue
        comp = []
        stack = [start]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            comp.append(x)
            stack.extend(adj[x] - seen)
        comp.sort()
        for i, a in enumerate(comp):
            for b in comp[i + 1:]:
                pairs.append((a, b))
    return pairs


ThreeCycleLaplace = namedtuple(
    "ThreeCycleLaplace",
    ["sigma1", "sigma2", "delta", "L_a_from_a", "L_b_from_a", "L_a_from_b"],
)


def three_cycle_laplace(kp1, km1, kp2, km2, kp3, km3) -> ThreeCycleLaplace:
    """Hand-derived Laplace transforms for the reversible cycle A <-> B <-> C <-> A.

    Rates are taken at their exact rational values (floats by exact binary
    expansion), so the returned polynomials can be compared coefficient by
    coefficient against the resolvent-cofactor route.
    """
    kp1, km1, kp2, km2, kp3, km3 = (
        Fraction(k) for k in (kp1, km1, kp2, km2, kp3, km3)
    )
    sigma1 = kp1 + km1 + kp2 + km2 + kp3 + km3
    sigma2 = (
        kp1 * kp2 + kp2 * kp3 + kp3 * kp1
        + kp1 * km2 + kp2 * km3 + kp3 * km1
        + km1 * km3 + km2 * km1 + km3 * km2
    )
    delta = Polynomial([0, sigma2, sigma1, 1])
    num_aa = Polynomial(
        [km1 * kp3 + km1 * km2 + kp2 * kp3, km1 + kp3 + kp2 + km2, 1]
    )
    num_ba = Polynomial([kp1 * kp3 + kp1 * km2 + km2 * km3, kp1])
    num_ab = Polynomial([km1 * kp3 + km1 * km2 + kp2 * kp3, km1])
    return ThreeCycleLaplace(
        sigma1=sigma1,
        sigma2=sigma2,
        delta=delta,
        L_a_from_a=RationalFunction(num_aa, delta),
        L_b_from_a=RationalFunction(num_ba, delta),
        L_a_from_b=RationalFunction(num_ab, delta),
    )
