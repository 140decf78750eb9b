"""Reaction networks with mass-action rate laws.

A network is a list of named species plus elementary reactions, each with a
forward and (possibly zero) backward rate constant.  Irreversible reactions
are ordinary reactions with ``k_backward == 0``.  The module also provides
the thermodynamic consistency machinery: cycle (Wegscheider) conditions on
the reversible subgraph, a deterministic rebalancing procedure, and positive
conservation vectors of the stoichiometry.  A network's
:func:`first_order_view` keeps its merged rates summed exactly
(``exact_rates``), from which every pair's path constant is read.
"""

from __future__ import annotations

import json
import logging
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import BalanceError, ConfigError, ConservationError, NetworkValidationError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

ORDER_FIRST = "all-first-order"
ORDER_GENERAL = "general-mass-action"


@dataclass(frozen=True)
class Species:
    """A chemical species; ``index`` is its position in concentration vectors."""

    index: int
    name: str


@dataclass(frozen=True)
class Reaction:
    """One elementary reaction.

    ``reactants`` and ``products`` are tuples of ``(species_index, coefficient)``
    with integer coefficients >= 1.  ``k_backward == 0`` marks an irreversible
    reaction.
    """

    reactants: tuple[tuple[int, int], ...]
    products: tuple[tuple[int, int], ...]
    k_forward: float
    k_backward: float = 0.0

    @property
    def reversible(self) -> bool:
        return self.k_backward > 0.0

    @property
    def first_order(self) -> bool:
        """Single reactant and single product, both with coefficient 1."""
        return (
            len(self.reactants) == 1
            and len(self.products) == 1
            and self.reactants[0][1] == 1
            and self.products[0][1] == 1
        )


@dataclass(frozen=True)
class ReactionNetwork:
    """Validated, immutable reaction network.

    Build instances through :func:`validate_network` (or the convenience
    constructors below), which sets ``order_kind``.
    """

    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]
    order_kind: str | None = None

    @property
    def n(self) -> int:
        return len(self.species)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    def index_of(self, name: str) -> int:
        for s in self.species:
            if s.name == name:
                return s.index
        raise KeyError(f"unknown species {name!r}")


@dataclass(frozen=True)
class CycleCondition:
    """One basis cycle of the reversible subgraph, in the arithmetic of the rates.

    ``cycle`` is the closed walk ``u -> v -> ... -> u``; ``forward_product``
    and ``backward_product`` are the :func:`path_products` along and against
    it. :func:`check_cycle_conditions` reports every basis cycle in floats,
    and the exact proof (``kinvar.laplace``) each unequal one in Fractions.
    """

    cycle: tuple[int, ...]
    forward_product: float | Fraction
    backward_product: float | Fraction

    @property
    def mismatch(self) -> float | Fraction:
        """The larger product over the smaller one."""
        hi = max(self.forward_product, self.backward_product)
        lo = min(self.forward_product, self.backward_product)
        return hi / lo

    def to_dict(self) -> dict:
        return {
            "cycle": list(self.cycle),
            "forward_product": str(self.forward_product),
            "backward_product": str(self.backward_product),
            "mismatch": str(self.mismatch),
        }


def _relative_mismatch(c: CycleCondition) -> float:
    hi = max(c.forward_product, c.backward_product)
    if hi == 0.0:
        return 0.0
    return abs(c.forward_product - c.backward_product) / hi


@dataclass(frozen=True)
class CycleConditionReport:
    cycles: tuple[CycleCondition, ...]
    tol: float

    @property
    def max_mismatch(self) -> float:
        """The largest relative mismatch ``|along - against| / max(along, against)``."""
        return max(map(_relative_mismatch, self.cycles), default=0.0)

    @property
    def satisfied(self) -> bool:
        return self.max_mismatch <= self.tol


def validate_network(net: ReactionNetwork) -> ReactionNetwork:
    """Check structural invariants and return the network with ``order_kind`` set.

    Raises :class:`NetworkValidationError` on duplicate species names, invalid
    indices, non-finite or negative rates, a zero forward rate, empty
    reactant/product lists, or a species on both sides of one reaction.
    """
    names = [s.name for s in net.species]
    for i, s in enumerate(net.species):
        if s.index != i:
            raise NetworkValidationError(f"species index {s.index} at position {i}")
        if not s.name:
            raise NetworkValidationError("empty species name")
    if len(set(names)) != len(names):
        raise NetworkValidationError("duplicate species name")

    n = len(net.species)
    for r, rxn in enumerate(net.reactions):
        if not rxn.reactants or not rxn.products:
            raise NetworkValidationError(f"reaction {r}: empty reactant or product list")
        for idx, coeff in rxn.reactants + rxn.products:
            if not 0 <= idx < n:
                raise NetworkValidationError(f"reaction {r}: invalid species index {idx}")
            if coeff < 1:
                raise NetworkValidationError(f"reaction {r}: coefficient {coeff} < 1")
        reac_set = {i for i, _ in rxn.reactants}
        prod_set = {i for i, _ in rxn.products}
        if reac_set & prod_set:
            raise NetworkValidationError(f"reaction {r}: species on both sides")
        if len(reac_set) != len(rxn.reactants) or len(prod_set) != len(rxn.products):
            raise NetworkValidationError(f"reaction {r}: repeated species in one side")
        if not (math.isfinite(rxn.k_forward) and math.isfinite(rxn.k_backward)):
            raise NetworkValidationError(f"reaction {r}: non-finite rate constant")
        if not rxn.k_forward > 0.0:
            raise NetworkValidationError(f"reaction {r}: nonpositive forward rate")
        if rxn.k_backward < 0.0:
            raise NetworkValidationError(f"reaction {r}: negative backward rate")

    kind = ORDER_FIRST if all(rxn.first_order for rxn in net.reactions) else ORDER_GENERAL
    return replace(net, order_kind=kind)


def make_network(names: list[str], reactions: list[Reaction]) -> ReactionNetwork:
    """Build and validate a network from species names and reactions."""
    species = tuple(Species(i, nm) for i, nm in enumerate(names))
    return validate_network(ReactionNetwork(species, tuple(reactions)))


def first_order_network(
    names: list[str], edges: list[tuple[str, str, float, float]]
) -> ReactionNetwork:
    """Build a network of unimolecular conversions.

    ``edges`` holds ``(reactant_name, product_name, k_forward, k_backward)``
    entries; ``k_backward = 0`` makes the step irreversible.
    """
    index = {nm: i for i, nm in enumerate(names)}
    rxns = [
        Reaction(((index[u], 1),), ((index[v], 1),), kf, kb) for u, v, kf, kb in edges
    ]
    return make_network(names, rxns)


def butene_cycle() -> ReactionNetwork:
    """Butene isomerization cycle (classic literature rate constants).

    cis-2-butene = 1-butene = trans-2-butene = cis-2-butene.  The literature
    constants satisfy the cycle condition only to about 1e-3; see
    :func:`balance_network`.
    """
    return first_order_network(
        ["cis-2-butene", "1-butene", "trans-2-butene"],
        [
            ("cis-2-butene", "1-butene", 4.623, 10.344),
            ("1-butene", "trans-2-butene", 3.724, 1.000),
            ("trans-2-butene", "cis-2-butene", 3.371, 5.616),
        ],
    )


def pack_network(net: ReactionNetwork) -> tuple:
    """Flatten a network into the tuple of terms the kernels consume.

    One term ``(k, factors, changes)`` per reaction direction with a positive
    rate constant, in reaction order; the backward direction swaps the roles
    of reactants and products. ``factors`` repeats each rate-law species by
    its coefficient, and ``changes`` pairs each species with its increment
    per unit rate (see :mod:`._kernels`).
    """
    terms = []
    for rxn in net.reactions:
        terms.append(_packed_term(rxn.k_forward, rxn.reactants, rxn.products))
        if rxn.reversible:
            terms.append(_packed_term(rxn.k_backward, rxn.products, rxn.reactants))
    return tuple(terms)


def _packed_term(k, sources, sinks) -> tuple:
    factors = []
    changes = []
    for i, nu in sources:
        factors += [i] * nu
        changes.append((i, -float(nu)))
    for j, nu in sinks:
        changes.append((j, float(nu)))
    return float(k), tuple(factors), tuple(changes)


# ---------------------------------------------------------------------------
# cycle conditions


def _require_first_order(net: ReactionNetwork, what: str) -> None:
    kind = net.order_kind or validate_network(net).order_kind
    if kind != ORDER_FIRST:
        raise NetworkValidationError(f"{what} requires an all-first-order network")


def _edge_endpoints(rxn: Reaction) -> tuple[int, int]:
    return rxn.reactants[0][0], rxn.products[0][0]


def merged_rates(net: ReactionNetwork, number=float) -> dict[tuple[int, int], object]:
    """Sparse merged rate map ``rates[(u, v)] = total k(u -> v)`` of a first-order network.

    Parallel reactions between one pair of species add up, so the map holds
    the rates the dynamics see.  Only positive rates get a key, and keys are
    inserted in reaction order.  ``number`` converts each rate constant, e.g.
    ``float`` or ``Fraction``.
    """
    rates: dict[tuple[int, int], object] = {}
    for rxn in net.reactions:
        if not rxn.first_order:
            raise ValueError("merged rates need an all-first-order network")
        u, v = _edge_endpoints(rxn)
        rates[(u, v)] = rates.get((u, v), 0) + number(rxn.k_forward)
        if rxn.reversible:
            rates[(v, u)] = rates.get((v, u), 0) + number(rxn.k_backward)
    return rates


def reversible_edges(rates) -> list[tuple[int, int]]:
    """Keys of a rate map whose reverse is also a key, in the map's order."""
    return [(u, v) for u, v in rates if (v, u) in rates]


def path_products(rates, walk) -> tuple:
    """Rate products along a vertex walk and against it, in the arithmetic of ``rates``.

    Floats share exact power-of-two rescalings, so long walks cannot
    overflow: a step whose larger product would leave ``[2^-500, 2^500]`` is
    taken again from running products scaled to put the larger one in
    ``[0.5, 1)``. When the two differ by more than the float range, the
    smaller one underflows towards 0.
    """
    along = against = 1
    for x, y in zip(walk, walk[1:]):
        forward, backward = along * rates[(x, y)], against * rates[(y, x)]
        if isinstance(forward, float) and not 2.0 ** -500 < max(forward, backward) < 2.0 ** 500:
            e = math.frexp(max(along, against))[1]
            forward = math.ldexp(along, -e) * rates[(x, y)]
            backward = math.ldexp(against, -e) * rates[(y, x)]
        along, against = forward, backward
    return along, against


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(nbrs) for nbrs in adj]


@dataclass(frozen=True)
class SpanningForest:
    """Depth-first spanning forest of an undirected graph on species ``0..n-1``.

    ``parent`` maps every vertex to its tree parent (``None`` for roots) and
    ``order`` lists the vertices as discovered, parents before children.
    ``non_tree`` holds each remaining edge once, in the order and orientation
    of its first appearance in the edge list the forest was built from.
    """

    parent: dict[int, int | None]
    order: tuple[int, ...]
    non_tree: tuple[tuple[int, int], ...]

    def tree_path(self, src: int, dst: int) -> list[int]:
        """Vertex list of the unique tree path from ``src`` to ``dst``."""
        up = [src]
        while self.parent[up[-1]] is not None:
            up.append(self.parent[up[-1]])
        position = {x: i for i, x in enumerate(up)}
        down = [dst]
        while down[-1] not in position:
            above = self.parent[down[-1]]
            if above is None:
                raise ValueError("vertices lie in different components")
            down.append(above)
        # up runs src -> common ancestor -> root, down runs dst -> common ancestor
        return up[: position[down[-1]] + 1] + down[-2::-1]

    def cycles(self) -> list[list[int]]:
        """Fundamental cycles as closed walks ``u -> v -> ... -> u``, one per non-tree edge."""
        return [[u] + self.tree_path(v, u) for u, v in self.non_tree]


def spanning_forest(n: int, edges) -> SpanningForest:
    """Spanning forest of the undirected graph of ``edges`` (pairs ``(u, v)``).

    Roots are taken in index order and neighbours in sorted order; a vertex
    is claimed by the first tree vertex that sees it.  Every basis cycle of
    the graph closes one non-tree edge.
    """
    edges = list(edges)
    adj = _adjacency(n, edges)
    parent: dict[int, int | None] = {}
    order: list[int] = []
    for root in range(n):
        if root in parent:
            continue
        parent[root] = None
        order.append(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    order.append(v)
                    stack.append(v)
    non_tree = []
    seen = set()
    for u, v in edges:
        pair = (min(u, v), max(u, v))
        if pair in seen:
            continue
        seen.add(pair)
        if parent[u] != v and parent[v] != u:
            non_tree.append((u, v))
    return SpanningForest(parent, tuple(order), tuple(non_tree))


def potentials(n: int, rates) -> list:
    """Potentials ``h`` along the spanning forest of the reversible edges of ``rates``.

    Each root gets ``h = 1`` and each child ``h_v = h_p * k(p -> v) / k(v -> p)``
    of its tree parent ``p``, in whatever arithmetic ``rates`` holds.  On a
    detailed-balanced rate map ``k(u -> v) h_u = k(v -> u) h_v`` then holds on
    every reversible edge, and ``h`` is proportional to the equilibrium of
    each reversibly connected component.
    """
    forest = spanning_forest(n, reversible_edges(rates))
    h: list = [1] * n
    for v in forest.order:
        p = forest.parent[v]
        if p is not None:
            h[v] = h[p] * rates[(p, v)] / rates[(v, p)]
    return h


def shortest_path(n: int, edges, a: int, b: int) -> list[int] | None:
    """Vertex list of a breadth-first shortest path ``a -> b`` over ``edges``, or None."""
    if a == b:
        return [a]
    adj = _adjacency(n, edges)
    prev: dict[int, int | None] = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in prev:
                prev[v] = u
                if v == b:
                    path = [b]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(v)
    return None


def cycle_products(n: int, rates) -> list[tuple]:
    """Basis cycles of the reversible edges of ``rates``, each with its :func:`path_products`."""
    cycles = spanning_forest(n, reversible_edges(rates)).cycles()
    return [(cycle, *path_products(rates, cycle)) for cycle in cycles]


def check_cycle_conditions(net: ReactionNetwork, tol: float = 1e-9) -> CycleConditionReport:
    """Wegscheider cycle conditions on the reversible subgraph of the merged rates.

    For every basis cycle the product of rates along the cycle is compared
    with the product against it; ``satisfied`` holds when the largest
    relative mismatch is within ``tol``.  Parallel reactions between one pair
    of species count as one edge carrying their summed rates.
    """
    _require_first_order(net, "check_cycle_conditions")
    cycles = [CycleCondition(tuple(cycle), fwd, bwd)
              for cycle, fwd, bwd in cycle_products(net.n, merged_rates(net))]
    return CycleConditionReport(tuple(cycles), tol)


def balanced_rates(n: int, rates, names=None) -> dict:
    """Copy of a rate map on which every reversible cycle condition holds.

    Each basis cycle ``u -> v -> ... -> u`` closes on its non-tree edge
    ``(u, v)``; ``k(v -> u)`` is multiplied by the cycle's product along over
    its product against.  The cycles share no non-tree edge, so one pass
    balances them all, in the arithmetic of ``rates``.

    Raises :class:`BalanceError` when some cycle of the full rate graph
    contains an irreversible step (its backward product is pinned at zero),
    or, naming the cycle by ``names`` (indices by default), when a rescaled
    float rate overflows or underflows to 0.
    """
    for cycle in spanning_forest(n, rates).cycles():
        if any((x, y) not in rates or (y, x) not in rates for x, y in zip(cycle, cycle[1:])):
            raise BalanceError("cycle contains an irreversible step; cannot balance")
    out = dict(rates)
    for cycle, along, against in cycle_products(n, rates):
        u, v = cycle[0], cycle[1]
        # a float product against that underflowed to 0 sends the rate past the range
        k = rates[(v, u)] * along / against if against else math.inf
        if not 0 < k < math.inf:
            label = names or range(n)
            raise BalanceError(
                f"balancing the cycle {' -> '.join(label[i] for i in cycle)} takes "
                f"k({label[v]} -> {label[u]}) = {rates[(v, u)]!r} to {k!r}, "
                f"outside the float range")
        out[(v, u)] = k
    return out


def balance_network(net: ReactionNetwork) -> ReactionNetwork:
    """Rescale one merged rate per basis cycle so every cycle condition holds.

    The merged rates are balanced by :func:`balanced_rates`, the rule that
    :func:`~kinvar.laplace.exact_balance` applies in rationals, and which
    raises :class:`BalanceError` for a cycle with an irreversible step or a
    rescaled rate outside the float range.  A rescaled merged rate
    ``k(x -> y)`` scales the ``k_forward`` of every reaction ``x -> y`` and
    the ``k_backward`` of every reaction ``y -> x`` by one factor.  A network
    whose cycle products agree exactly comes back unchanged.
    """
    _require_first_order(net, "balance_network")
    rates = merged_rates(net)
    k = balanced_rates(net.n, rates, net.names)

    def rescaled(pair, old: float) -> float:
        if old == 0.0 or k[pair] == rates[pair]:
            return old
        return k[pair] * (old / rates[pair])

    rxns = []
    for rxn in net.reactions:
        u, v = _edge_endpoints(rxn)
        rxns.append(replace(rxn, k_forward=rescaled((u, v), rxn.k_forward),
                            k_backward=rescaled((v, u), rxn.k_backward)))
    return validate_network(replace(net, reactions=tuple(rxns)))


# ---------------------------------------------------------------------------
# rate matrix


def rate_entries(net: ReactionNetwork) -> dict[tuple[int, int], float]:
    """Nonzero entries ``{(i, j): M[i, j]}`` of the rate matrix of a first-order network.

    ``dC/dt = M C``: a reaction ``u -> v`` adds its rate to ``M[v, u]`` and
    subtracts it from ``M[u, u]``, and a reversible one then does the same
    for ``v -> u``.  One pass over the reactions sums the off-diagonal
    entries, the :func:`merged_rates` in their key order, and each diagonal
    entry in reaction order, so parallel reactions round as they would in a
    dense accumulation.  :attr:`FirstOrderView.rate_matrix` fills an array
    from these entries and checks its signs and column sums.

    Raises :class:`NetworkValidationError` for a network that is not all
    first order, and ``ValueError``, naming the species, when an entry
    overflows the float range.
    """
    _require_first_order(net, "a rate matrix")
    # the off-diagonal entries first, keyed in merged_rates order
    entries: dict[tuple[int, int], float] = {}
    get = entries.get
    diag = [0.0] * net.n
    for rxn in net.reactions:
        u, v = _edge_endpoints(rxn)
        k = float(rxn.k_forward)
        entries[(v, u)] = get((v, u), 0.0) + k
        diag[u] -= k
        k = float(rxn.k_backward)
        if k > 0.0:  # reversible
            entries[(u, v)] = get((u, v), 0.0) + k
            diag[v] -= k
    entries.update(((i, i), x) for i, x in enumerate(diag) if x)
    if not all(map(math.isfinite, entries.values())):
        (i, j), x = next(item for item in entries.items() if not math.isfinite(item[1]))
        names = net.names
        what = (f"the total rate out of {names[j]!r}" if i == j
                else f"the rate {names[j]!r} -> {names[i]!r}")
        raise ValueError(f"{what} is not finite ({x})")
    return entries


# ---------------------------------------------------------------------------
# first-order view


def scaled_integers(values) -> tuple[int, list[int]]:
    """``(D, [D * x for x in values])``: exact numbers over the lcm ``D`` of
    their denominators, as integers.

    Floats count at their binary values, ints and Fractions as they are; for
    floats ``D`` is their largest power-of-two denominator. A rational with
    no ``as_integer_ratio``, such as a numpy integer, is read as a Fraction.
    """
    ratios = [(x if hasattr(x, "as_integer_ratio") else Fraction(x)).as_integer_ratio()
              for x in values]
    D = math.lcm(*{q for _, q in ratios})
    return D, [p * (D // q) for p, q in ratios]


@dataclass(frozen=True)
class BalanceCertificate:
    """Exact detailed-balance certificate of a first-order network.

    It holds (``failure`` is None) when every merged rate has its reverse
    and the rate products along and against every basis cycle agree
    exactly. Then ``k(u->v) h_u = k(v->u) h_v`` on every edge for the
    :func:`potentials` ``h``, here unreduced pairs ``h[v] = (p, q)`` with
    ``h_v = p / q``, and every reversible path ``a -> b`` has the
    rate-ratio product ``h_b / h_a``. Two species share a ``root`` exactly
    when reversible steps connect them. Otherwise ``failure`` says why.
    """

    h: tuple | None
    root: tuple | None
    failure: str | None

    def constant(self, a: int, b: int) -> Fraction | None:
        """``h_b / h_a``, or None when ``a`` and ``b`` have different roots."""
        if self.root[a] != self.root[b]:
            return None
        (pa, qa), (pb, qb) = self.h[a], self.h[b]
        return Fraction(pb * qa, qb * pa)


def balance_certificate(n: int, rates) -> BalanceCertificate:
    """The :class:`BalanceCertificate` of an exact rate map on species ``0..n-1``.

    ``rates`` holds integers or Fractions; a positive factor common to every
    rate cancels from every rate ratio and cycle product, so rates scaled to
    integers certify what the unscaled ones do. The potentials are pairs in
    the arithmetic of ``rates``.
    """
    for (u, v), k in rates.items():
        if (v, u) not in rates:
            return BalanceCertificate(None, None, f"edge {u} -> {v} has no reverse")
        if not k > 0:  # a network that was never validated
            return BalanceCertificate(None, None, f"edge {u} -> {v} has no positive rate")
    forest = spanning_forest(n, rates)
    for cycle in forest.cycles():
        along, against = path_products(rates, cycle)
        if along != against:
            walk = " -> ".join(map(str, cycle))
            return BalanceCertificate(None, None, f"rate products around {walk} differ")
    h = [(1, 1)] * n
    root = list(range(n))
    for v in forest.order:
        p = forest.parent[v]
        if p is not None:
            h[v] = (h[p][0] * rates[(p, v)], h[p][1] * rates[(v, p)])
            root[v] = root[p]
    return BalanceCertificate(tuple(h), tuple(root), None)


class FirstOrderView:
    """Rate data that every species pair of one network shares, each part
    computed on first use; on a network that is not all first order a part
    raises when read."""

    def __init__(self, net: ReactionNetwork):
        self.net = net

    @cached_property
    def entries(self) -> dict[tuple[int, int], float]:
        return rate_entries(self.net)

    @cached_property
    def rate_matrix(self):
        """``M`` as a read-only ``linear.RateMatrix`` (imports numpy)."""
        from .linear import dense_rate_matrix

        M = dense_rate_matrix(self.net.n, self.entries)
        M.entries.flags.writeable = False
        return M

    @cached_property
    def directions(self) -> tuple:
        """Per species, ``(k, source)`` of each reaction direction that changes it.

        In reaction order, forward before backward, each direction ``u -> v``
        of rate ``k`` appears under ``v`` as ``(k, u)`` and under ``u`` as
        ``(-k, u)``, so ``dc_s/dt`` sums ``k * c[source]`` over ``s``'s list:
        adding ``(-k) * c`` rounds exactly as subtracting ``k * c`` does.
        """
        out: list[list] = [[] for _ in self.net.species]
        for rxn in self.net.reactions:
            if not rxn.first_order:
                raise ValueError("reaction directions need an all-first-order network")
            u, v = _edge_endpoints(rxn)
            steps = ((rxn.k_forward, u, v), (rxn.k_backward, v, u))
            for k, src, dst in steps if rxn.reversible else steps[:1]:
                out[dst].append((k, src))
                if src != dst:
                    out[src].append((-k, src))
        return tuple(map(tuple, out))

    @cached_property
    def exact_rates(self) -> dict[tuple[int, int], int]:
        """The :func:`merged_rates` summed exactly, as Fractions would be, in integers.

        Every rate constant is taken over the :func:`scaled_integers`
        denominator of them all, the one form of exact rates that
        ``kinvar.laplace`` reads too; the factor cancels from every rate
        ratio, cycle product and path constant. Integer products cost a
        fraction of Fraction ones.
        """
        ks = [k for rxn in self.net.reactions for k in (rxn.k_forward, rxn.k_backward)]
        return merged_rates(self.net, dict(zip(ks, scaled_integers(ks)[1])).__getitem__)

    @cached_property
    def certificate(self) -> BalanceCertificate:
        """The :class:`BalanceCertificate` of the :attr:`exact_rates`."""
        return balance_certificate(self.net.n, self.exact_rates)


# one slot: callers take one network at a time through its pairs, and a slot
# per network seen would keep every network's data alive
_last_view: FirstOrderView | None = None


def first_order_view(net: ReactionNetwork) -> FirstOrderView:
    """The :class:`FirstOrderView` of ``net``, shared while consecutive calls pass equal networks.

    The key is the species and reactions tuples, compared in full, so a
    rebuilt but equal network hits and a changed rate misses.
    """
    global _last_view
    view = _last_view
    if view is not None and (view.net.species, view.net.reactions) == (net.species,
                                                                       net.reactions):
        state = "reused"
    else:
        _last_view = view = FirstOrderView(net)
        state = "computed"
    log.debug("first-order view of %d species: %s", net.n, state)
    return view


# ---------------------------------------------------------------------------
# stoichiometry


def stoichiometric_matrix(net: ReactionNetwork) -> np.ndarray:
    """Net stoichiometric matrix, species x reactions."""
    import numpy as np

    N = np.zeros((net.n, len(net.reactions)))
    for r, rxn in enumerate(net.reactions):
        for i, nu in rxn.reactants:
            N[i, r] -= nu
        for j, nu in rxn.products:
            N[j, r] += nu
    return N


def conservation_vector(net: ReactionNetwork) -> np.ndarray:
    """Strictly positive weights ``w`` with ``w . C(t)`` constant on trajectories.

    Of all such weights with ``w >= 1`` it returns the ones of least sum, so
    each connected component of the network has smallest weight 1.  When
    every reaction has one species a side they come exactly from the
    coefficient tree (:func:`_coefficient_tree_weights`); any other network
    solves the linear program of :func:`_lp_conservation_vector`.  Raises
    :class:`ConservationError` when no positive weights exist.
    """
    import numpy as np

    w = _coefficient_tree_weights(net)
    if w is None:
        log.debug("conservation weights: linear program (a reaction has several "
                  "species on one side, or one pair has two coefficient sets)")
        return _lp_conservation_vector(net)
    log.debug("conservation weights: coefficient tree")
    return np.array(w)


def _coefficient_tree_weights(net: ReactionNetwork) -> list[float] | None:
    """Least conservation weights of a network of reactions ``u (cu) <=> v (cv)``.

    Each reaction forces ``w_u cu = w_v cv``, so the map ``{(u, v): cu,
    (v, u): cv}`` is a rate map whose :func:`balance_certificate` holds
    exactly when positive weights exist, with the weights as potentials up to
    one factor per component root.  Each component is scaled to smallest
    weight 1, in exact arithmetic.  Returns None when a reaction has several
    species on one side or one pair of species carries two coefficient sets.
    """
    coeffs: dict[tuple[int, int], int] = {}
    for rxn in net.reactions:
        if len(rxn.reactants) != 1 or len(rxn.products) != 1:
            return None
        (u, cu), = rxn.reactants
        (v, cv), = rxn.products
        if coeffs.setdefault((u, v), cu) != cu or coeffs.setdefault((v, u), cv) != cv:
            return None
    certificate = balance_certificate(net.n, coeffs)
    if certificate.failure is not None:
        # every coefficient has its reverse, so a basis cycle failed
        cycle, along, against = next(c for c in cycle_products(net.n, coeffs) if c[1] != c[2])
        walk = " -> ".join(net.names[i] for i in cycle)
        raise ConservationError(
            f"no positive conservation vector found: the coefficients around "
            f"{walk} multiply to {along} one way and {against} the other")
    h = [Fraction(p, q) for p, q in certificate.h]
    low = {}
    for v, r in enumerate(certificate.root):
        low[r] = min(low.get(r, h[v]), h[v])
    return [float(h[v] / low[certificate.root[v]]) for v in range(net.n)]


def _lp_conservation_vector(net: ReactionNetwork) -> np.ndarray:
    """Conservation weights of least sum subject to ``w >= 1``, by a linear program."""
    import numpy as np
    from scipy.optimize import linprog

    N = stoichiometric_matrix(net)
    res = linprog(
        c=np.ones(net.n),
        A_eq=N.T,
        b_eq=np.zeros(N.shape[1]),
        bounds=[(1.0, None)] * net.n,
        method="highs",
    )
    if not res.success:
        raise ConservationError("no positive conservation vector found")
    w = np.asarray(res.x, dtype=float)
    return w / w.min()


# ---------------------------------------------------------------------------
# JSON network files

_NETWORK_KEYS = {"species", "reactions"}
_REACTION_KEYS = {"reactants", "products", "k_forward", "k_backward"}


def config_number(value, what: str, kind=float):
    """``kind(value)`` for a number read from JSON or a flag, or a ConfigError naming ``what``.

    An integer field refuses a bool, and a number or text with a fractional
    part, where ``int`` would truncate it; integral text that ``int`` does not
    read, such as ``"1e3"``, counts through its float.
    """
    if kind is int:
        if isinstance(value, bool):
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        if isinstance(value, (float, str)):
            try:
                number = float(value)
            except ValueError:
                number = math.nan  # not a number at all: int() below says so
            if math.isfinite(number):
                if not number.is_integer():
                    raise ConfigError(f"{what} must be an integer, got {number!r}")
                if isinstance(value, str) and not value.strip().isdecimal():
                    value = number  # int() reads digits, not "1e3"
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def network_from_dict(data: dict) -> ReactionNetwork:
    """Parse the documented network schema; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("network definition must be a JSON object")
    unknown = set(data) - _NETWORK_KEYS
    if unknown:
        raise ConfigError(f"unknown network fields: {sorted(unknown)}")
    try:
        names = data["species"]
        raw_rxns = data["reactions"]
    except KeyError as exc:
        raise ConfigError(f"network definition missing field {exc}") from None
    if not (isinstance(names, list) and all(isinstance(nm, str) for nm in names)):
        raise ConfigError("species must be a list of names")
    if not isinstance(raw_rxns, list):
        raise ConfigError("reactions must be a list")
    index = {nm: i for i, nm in enumerate(names)}

    def side(entries, what: str) -> tuple[tuple[int, int], ...]:
        if not isinstance(entries, (list, tuple)):
            raise ConfigError(f"{what} must be a list of [name, coefficient] pairs")
        out = []
        for e in entries:
            if not (isinstance(e, (list, tuple)) and len(e) == 2):
                raise ConfigError(f"{what} entries must be [name, coefficient] pairs")
            nm, coeff = e
            if nm not in index:
                raise ConfigError(f"unknown species {nm!r} in {what}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ConfigError(f"coefficient for {nm!r} must be an integer")
            out.append((index[nm], coeff))
        return tuple(out)

    rxns = []
    for k, raw in enumerate(raw_rxns):
        if not isinstance(raw, dict):
            raise ConfigError(f"reaction {k} must be an object")
        unknown = set(raw) - _REACTION_KEYS
        if unknown:
            raise ConfigError(f"reaction {k}: unknown fields {sorted(unknown)}")
        try:
            rxns.append(
                Reaction(
                    reactants=side(raw["reactants"], "reactants"),
                    products=side(raw["products"], "products"),
                    k_forward=config_number(raw["k_forward"], f"reaction {k}: k_forward"),
                    k_backward=config_number(raw.get("k_backward", 0.0),
                                             f"reaction {k}: k_backward"),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"reaction {k} missing field {exc}") from None
    try:
        return make_network(names, rxns)
    except NetworkValidationError as exc:
        raise ConfigError(str(exc)) from exc


def network_to_dict(net: ReactionNetwork) -> dict:
    names = net.names
    return {
        "species": list(names),
        "reactions": [
            {
                "reactants": [[names[i], nu] for i, nu in rxn.reactants],
                "products": [[names[j], nu] for j, nu in rxn.products],
                "k_forward": rxn.k_forward,
                "k_backward": rxn.k_backward,
            }
            for rxn in net.reactions
        ],
    }


def load_network(path) -> ReactionNetwork:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return network_from_dict(data)


def save_network(net: ReactionNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")
