"""The per-call exact routines that ``kinvar.laplace.exact_view`` replaced.

They are kept as the reference that the view's outputs must equal exactly.
Every call converted the entries to Fractions, built the rate map, took the
lcm of the denominators for its own integer rows and expanded
``det(sI - M)`` again; ``prove_fixed_proportion`` also walked a breadth-first
shortest reversible path for ``K`` and built the detailed-balance certificate
of the Fraction rates. Only the unchanged polynomial types, the
integer determinant kernel and ``exact_generator`` come from ``kinvar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional

from kinvar.errors import NoReversiblePathError
from kinvar.laplace import Polynomial, RationalFunction, _scaled_det, exact_generator
from kinvar.network import (
    CycleCondition,
    balance_certificate,
    balanced_rates,
    cycle_products,
    path_products,
    reversible_edges,
    shortest_path,
)

_ZERO = Fraction(0)


def exact_entries(M) -> list:
    """Square matrix of Fractions from a RateMatrix or any nested sequence."""
    entries = getattr(M, "entries", M)
    if hasattr(entries, "tolist"):
        entries = entries.tolist()
    rows = [[Fraction(x) if x else _ZERO for x in row] for row in entries]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("rate matrix must be square")
    return rows


def _rate_map(entries) -> dict:
    """Sparse rate map ``rates[(u, v)] = M[v][u]`` of the positive off-diagonal entries."""
    n = len(entries)
    return {
        (u, v): entries[v][u]
        for u in range(n) for v in range(n)
        if u != v and entries[v][u].numerator > 0
    }


# ---------------------------------------------------------------------------
# cofactors and forests, per call


def _char_rows(entries) -> tuple:
    """``(D, rows)``: the integer coefficient lists of ``D (sI - M)``."""
    D = reduce(math.lcm, (x.denominator for row in entries for x in row), 1)
    rows = [[[-x.numerator * (D // x.denominator)] for x in row] for row in entries]
    for i, row in enumerate(rows):
        row[i].append(D)
    return D, rows


def _cofactor(D: int, rows: list, source: int, target: int) -> Polynomial:
    minor = [[p for j, p in enumerate(row) if j != target]
             for i, row in enumerate(rows) if i != source]
    num = _scaled_det(minor, D)
    return -num if (source + target) % 2 else num


def cofactor_numerator(entries, source: int, target: int) -> Polynomial:
    """Numerator polynomial of L[target <- source](s)."""
    return _cofactor(*_char_rows(entries), source, target)


def characteristic_polynomial(M) -> Polynomial:
    D, rows = _char_rows(exact_entries(M))
    return _scaled_det(rows, D)


def transfer_function_cofactor(M, source: int, target: int) -> RationalFunction:
    """L[target <- source](s), with the rows and ``det(sI - M)`` rebuilt on every call."""
    entries = exact_entries(M)
    n = len(entries)
    if not (0 <= source < n and 0 <= target < n):
        raise IndexError("species index out of range")
    D, rows = _char_rows(entries)
    return RationalFunction(_cofactor(D, rows, source, target), _scaled_det(rows, D))


def _forest_sweep(entries):
    """(den, nums) of every pair from one pass over all spanning in-forests,
    the arcs scaled by the lcm of their own denominators."""
    n = len(entries)
    for v in range(n):
        rates = [entries[w][v] for w in range(n) if w != v]
        if min(rates, default=0) < 0 or entries[v][v] != -sum(rates):
            raise ValueError(f"forest expansion needs a rate matrix: column {v} has a "
                             "negative rate or a diagonal other than minus its rates")
    adj = [[v for v in range(n) if v != u and entries[v][u].numerator > 0]
           for u in range(n)]
    D = reduce(math.lcm, (entries[w][v].denominator for v in range(n) for w in adj[v]), 1)
    arcs = [[(w, entries[w][v].numerator * (D // entries[w][v].denominator))
             for w in adj[v]] for v in range(n)]
    den = [0] * (n + 1)
    nums = [[[0] * n for _ in range(n)] for _ in range(n)]
    parent = [-1] * n

    def descend(v, weight, n_roots):
        if v == n:
            den[n_roots] += weight
            for x in range(n):
                root = x
                while parent[root] != -1:
                    root = parent[root]
                nums[x][root][n_roots - 1] += weight
            return
        descend(v + 1, weight, n_roots + 1)
        for w, k in arcs[v]:
            u = w
            while u != v and u != -1:
                u = parent[u]
            if u == v:
                continue
            parent[v] = w
            descend(v + 1, weight * k, n_roots)
            parent[v] = -1

    descend(0, 1, 0)
    scale = [D ** (n - r) for r in range(n + 1)]
    return (
        Polynomial([Fraction(c, scale[r]) for r, c in enumerate(den)]),
        {(s, t): Polynomial([Fraction(c, scale[r + 1]) for r, c in enumerate(nums[s][t])])
         for s in range(n) for t in range(n)},
    )


def all_transfer_functions_forest(M) -> dict:
    den, nums = _forest_sweep(exact_entries(M))
    return {pair: RationalFunction(num, den) for pair, num in nums.items()}


def exact_balance(M) -> list:
    entries = exact_entries(M)
    n = len(entries)
    return exact_generator(n, balanced_rates(n, _rate_map(entries)))


# ---------------------------------------------------------------------------
# the proof, per call


@dataclass(frozen=True)
class ProofReport:
    """The report of the per-call proof, with the Fraction entries it read."""

    pair: tuple
    K: Fraction
    verified: bool
    failing_coefficient: Optional[int]
    cycle_violations: tuple
    method: str
    certificate_failure: Optional[str]
    entries: list = field(repr=False, compare=False)

    @cached_property
    def numerator_b_from_a(self) -> Polynomial:
        a, b = self.pair
        return cofactor_numerator(self.entries, a, b)

    @cached_property
    def numerator_a_from_b(self) -> Polynomial:
        a, b = self.pair
        return cofactor_numerator(self.entries, b, a)

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "K_num": self.K.numerator,
            "K_den": self.K.denominator,
            "verified": self.verified,
            "method": self.method,
            "failing_coefficient": self.failing_coefficient,
            "cycle_violations": [v.to_dict() for v in self.cycle_violations],
            "certificate": self.certificate_failure,
        }


def certificate_failure(entries, rates: dict) -> Optional[str]:
    """Why the detailed-balance certificate fails, or None when it holds."""
    n = len(entries)
    if any(entries[i][j].numerator < 0 for i in range(n) for j in range(n) if i != j):
        return "an off-diagonal entry is negative"
    return balance_certificate(n, rates).failure


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
    why_not = certificate_failure(entries, rates)
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
