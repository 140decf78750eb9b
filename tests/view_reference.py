"""The per-pair routines that ``kinvar.network.first_order_view`` replaced.

They are kept as the references that the view's answers must equal exactly:
``path_equilibrium_constant`` walked a breadth-first shortest reversible path
and multiplied Fraction rate ratios along it on every call, and
``initial_rate`` looped over every reaction of the network for each species.
"""

from __future__ import annotations

from fractions import Fraction

from kinvar.errors import NoReversiblePathError
from kinvar.network import merged_rates, path_products, reversible_edges, shortest_path


def path_equilibrium_constant(net, a: int, b: int) -> Fraction:
    """Product of forward/backward rate ratios along a shortest reversible path a -> b."""
    if not (0 <= a < net.n and 0 <= b < net.n):
        raise IndexError("species index out of range")
    if a == b:
        return Fraction(1)
    path = shortest_path(net.n, reversible_edges(merged_rates(net)), a, b)
    if path is None:
        raise NoReversiblePathError(
            f"species {net.names[a]!r} and {net.names[b]!r} are not connected "
            "by reversible steps"
        )
    return Fraction(*path_products(merged_rates(net, Fraction), path))


def initial_rate(net, c: list, s: int) -> float:
    """``dc_s/dt`` of a first-order network at concentrations ``c``, reaction by reaction."""
    rate = 0.0
    for rxn in net.reactions:
        if not rxn.first_order:
            raise ValueError("the t->0 limit needs an all-first-order network")
        (u, _), = rxn.reactants
        (v, _), = rxn.products
        steps = ((rxn.k_forward, u, v), (rxn.k_backward, v, u))
        for k, src, dst in steps if rxn.reversible else steps[:1]:
            if dst == s:
                rate += k * c[src]
            elif src == s:
                rate -= k * c[src]
    return rate
