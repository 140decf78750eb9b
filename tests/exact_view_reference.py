"""The per-call proof that ``kinvar.laplace.exact_view`` replaced.

It is kept as the reference that the view's reports must equal exactly:
``prove_fixed_proportion`` converted the entries, built the rate map, walked a
breadth-first shortest reversible path for ``K`` and checked detailed balance
edge by edge against freshly computed potentials on every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from kinvar.errors import NoReversiblePathError
from kinvar.laplace import (
    ProofReport,
    _rate_map,
    cofactor_numerator,
    exact_entries,
)
from kinvar.network import (
    CycleCondition,
    cycle_products,
    path_products,
    potentials,
    reversible_edges,
    shortest_path,
)


def _certificate_failure(entries, rates: dict) -> Optional[str]:
    """Why ``M diag(h)`` is not symmetric, or None when it is, exactly."""
    n = len(entries)
    if any(entries[i][j].numerator < 0 for i in range(n) for j in range(n) if i != j):
        return "an off-diagonal entry is negative"
    h = potentials(n, rates)
    for (u, v), k in rates.items():
        back = rates.get((v, u))
        if back is None:
            return f"edge {u} -> {v} has no reverse"
        if u < v and k * h[u] != back * h[v]:
            return f"flux mismatch on edge {u} -> {v}: {k * h[u]} != {back * h[v]}"
    return None


def prove_fixed_proportion(M, a: int, b: int) -> ProofReport:
    """Exact proof that b_from_a(t) / a_from_b(t) is constant in time, all of it per call."""
    entries = exact_entries(M)
    n = len(entries)
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError("species index out of range")
    if a == b:
        raise ValueError("fixed proportion needs two distinct species")
    rates = _rate_map(entries)
    path = shortest_path(n, reversible_edges(rates), a, b)
    if path is None:
        raise NoReversiblePathError(
            f"species {a} and {b} are not connected by reversible steps"
        )
    K = Fraction(*path_products(rates, path))
    why_not = _certificate_failure(entries, rates)
    if why_not is None:
        return ProofReport(pair=(a, b), K=K, verified=True, failing_coefficient=None,
                           cycle_violations=(), method="certificate",
                           certificate_failure=None, entries=entries)
    violations = tuple(CycleCondition(tuple(cycle), fwd, back)
                       for cycle, fwd, back in cycle_products(n, rates) if fwd != back)
    num_ba = cofactor_numerator(entries, a, b)
    num_ab = cofactor_numerator(entries, b, a)
    scaled = K * num_ab
    failing = None
    for k in range(max(num_ba.degree, scaled.degree) + 1):
        if num_ba.coefficient(k) != scaled.coefficient(k):
            failing = k
            break
    report = ProofReport(pair=(a, b), K=K, verified=failing is None,
                         failing_coefficient=failing, cycle_violations=violations,
                         method="cofactor", certificate_failure=why_not, entries=entries)
    vars(report).update(numerator_b_from_a=num_ba, numerator_a_from_b=num_ab)
    return report
