"""The float rate matrix that ``kinvar prove`` proved before it read the
network's exact merged rates, and the per-call proof of it.

It is kept as the reference that ``proof.json`` and ``proofs.json`` must
equal on every network without parallel reactions: the command stored the
float entries of ``network.rate_entries`` as nested lists, whose diagonals
are rounded sums, and handed them, or their exactly balanced copy, to the
exact routines, which take every float at its binary value. The payloads are
built by ``exact_view_reference``, not by ``kinvar.laplace``.
"""

from __future__ import annotations

from fractions import Fraction

import exact_view_reference as ref
from kinvar.network import (
    balance_certificate,
    balanced_rates,
    path_products,
    rate_entries,
    reversible_edges,
    shortest_path,
)


def exact_balance(M) -> list:
    """The balanced copy: the float entries, rebalanced rates, and each
    diagonal rebuilt from its column."""
    entries = ref.exact_entries(M)
    n = len(entries)
    out = [row[:] for row in entries]
    for (u, v), k in balanced_rates(n, ref._rate_map(entries)).items():
        out[v][u] = k
    for j in range(n):
        out[j][j] = -sum(out[i][j] for i in range(n) if i != j)
    return out


def float_subject(net, balance: bool) -> list:
    """The nested-list float matrix of ``net``, or its exactly balanced copy."""
    M = [[0.0] * net.n for _ in range(net.n)]
    for (i, j), x in rate_entries(net).items():
        M[i][j] = x
    return exact_balance(M) if balance else M


def proof(net, names, balance: bool) -> tuple:
    """Exit code and ``proof.json`` payload of ``prove --pair``."""
    report = ref.prove_fixed_proportion(float_subject(net, balance),
                                        *map(net.index_of, names))
    payload = report.to_dict()
    payload["pair"] = list(names)
    payload["balanced"] = balance
    return 0 if report.verified else 1, payload


def proofs(net, balance: bool) -> tuple:
    """Exit code and ``proofs.json`` payload of ``prove --all-pairs``: every
    reversibly connected pair's shortest-path K when the certificate holds."""
    entries = ref.exact_entries(float_subject(net, balance))
    rates = ref._rate_map(entries)
    failure = ref.certificate_failure(entries, rates)
    payload = {"balanced": balance, "certificate": failure, "potentials": None, "pairs": []}
    if failure is not None:
        return 1, payload
    h = [Fraction(p, q) for p, q in balance_certificate(net.n, rates).h]
    payload["potentials"] = {name: [x.numerator, x.denominator]
                             for name, x in zip(net.names, h)}
    for a in range(net.n):
        for b in range(a + 1, net.n):
            path = shortest_path(net.n, reversible_edges(rates), a, b)
            if path is not None:
                K = Fraction(*path_products(rates, path))
                payload["pairs"].append({"pair": [net.names[a], net.names[b]],
                                         "K_num": K.numerator, "K_den": K.denominator})
    return 0, payload
