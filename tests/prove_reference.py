"""The float rate matrix that ``kinvar prove`` proved before it read the
network's exact merged rates.

It is kept as the reference that ``proof.json`` and ``proofs.json`` must
equal on every network without parallel reactions: the command stored the
float entries of ``network.rate_entries`` as nested lists, whose diagonals
are rounded sums, and handed them, or their exactly balanced copy, to the
exact routines, which take every float at its binary value.
"""

from __future__ import annotations

from kinvar.laplace import _rate_map, exact_entries
from kinvar.network import balanced_rates, rate_entries


def exact_balance(M) -> list:
    """The balanced copy: the float entries, rebalanced rates, and each
    diagonal rebuilt from its column."""
    entries = exact_entries(M)
    n = len(entries)
    out = [row[:] for row in entries]
    for (u, v), k in balanced_rates(n, _rate_map(entries)).items():
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
