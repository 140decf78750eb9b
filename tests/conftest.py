"""Shared test helpers: seeded RNGs and random network generators."""

from fractions import Fraction

import numpy as np
import pytest

from kinvar import first_order_network


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
