"""Exact Laplace-domain machinery for first-order networks.

Everything in this module is computed in rational arithmetic: polynomials in
the transform variable s carry `Fraction` coefficients, determinants are
evaluated by fraction-free elimination, and transfer functions come out as
uncancelled rational functions. Floating-point rate constants are taken at
their exact binary values, so statements proved here are statements about the
numbers actually stored, not about nearby reals.

Two independent routes to the transfer function L[target <- source](s) are
provided: resolvent cofactors of (sI - M), and the weighted spanning-forest
expansion of the same cofactors. They must agree coefficient by coefficient,
which the tests exploit as a cross-check. Fixed-proportion proofs try an
exact detailed-balance certificate first and expand cofactors only when it
fails.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional, Sequence

from .errors import NoReversiblePathError
from .network import (
    ReactionNetwork,
    balanced_rates,
    cycle_products,
    merged_rates,
    path_products,
    potentials,
    reversible_edges,
    shortest_path,
)

log = logging.getLogger(__name__)

_FOREST_LIMIT = 12


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# polynomials and rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Polynomial in s with exact rational coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        c = [_as_fraction(x) for x in self.coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, s) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * _as_fraction(s) + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = list(self.coeffs) + [Fraction(0)] * max(0, other.degree - self.degree)
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            k = _as_fraction(other)
            return Polynomial([k * c for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __str__(self):
        if self.is_zero:
            return "0"
        out = ""
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "s" if k == 1 else f"s^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not out:
                out = body if c > 0 else f"-{body}"
            else:
                out += f" {sign} {body}"
        return out


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two exact polynomials, stored without cancellation.

    Equality is coefficient equality of numerator and denominator as stored.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")

    def __call__(self, s) -> Fraction:
        return self.numerator(s) / self.denominator(s)

    def __str__(self):
        return f"({self.numerator}) / ({self.denominator})"


# ---------------------------------------------------------------------------
# fraction-free determinants
# ---------------------------------------------------------------------------
#
# Bareiss elimination over Z[s]: every division in the recurrence is exact in
# the ring, so integer coefficient lists stay integer and no rational gcd
# normalization happens in the inner loop. Fraction-coefficient input is
# scaled to integers first and the determinant rescaled at the end.

def _ipoly_strip(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p

def _ipoly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out

def _ipoly_sub(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _ipoly_strip(out)

def _ipoly_divexact(a: list, b: list) -> list:
    """Exact quotient in Z[s]; raises if the division leaves a remainder."""
    if not a:
        return []
    rem = list(a)
    blead = b[-1]
    bdeg = len(b) - 1
    quot = [0] * (len(a) - bdeg)
    while len(rem) - 1 >= bdeg:
        lead = rem[-1]
        if lead % blead != 0:
            raise ArithmeticError("non-exact division in fraction-free elimination")
        q = lead // blead
        quot[len(rem) - 1 - bdeg] = q
        shift = len(rem) - 1 - bdeg
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
        _ipoly_strip(rem)
        if not rem:
            break
    if rem:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return quot


def _int_bareiss(rows: list) -> list:
    """Determinant of a matrix of integer-coefficient polynomial lists."""
    n = len(rows)
    if n == 0:
        return [1]
    a = [[list(p) for p in row] for row in rows]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _ipoly_sub(_ipoly_mul(a[k][k], a[i][j]),
                                 _ipoly_mul(a[i][k], a[k][j]))
                a[i][j] = _ipoly_divexact(num, prev) if num else []
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return [sign * c for c in det]


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square matrix of polynomials."""
    n = len(rows)
    if n == 0:
        return Polynomial([1])
    dens = []
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
        for p in row:
            dens.extend(c.denominator for c in p.coeffs)
    scale = reduce(math.lcm, dens, 1)
    int_rows = [
        [[int(c * scale) for c in p.coeffs] for p in row]
        for row in rows
    ]
    det = _int_bareiss(int_rows)
    back = Fraction(1, scale) ** n
    return Polynomial([c * back for c in det])


# ---------------------------------------------------------------------------
# exact rate matrices and cofactor transfer functions
# ---------------------------------------------------------------------------

ExactEntries = Sequence[Sequence[Fraction]]


_ZERO = Fraction(0)


def exact_entries(M) -> list:
    """Square matrix of Fractions from a RateMatrix or any nested sequence.

    Floats are converted at their exact binary values; zeros share one
    ``Fraction(0)``.
    """
    entries = getattr(M, "entries", M)
    if hasattr(entries, "tolist"):
        entries = entries.tolist()
    rows = [[_as_fraction(x) if x else _ZERO for x in row] for row in entries]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("rate matrix must be square")
    return rows


def char_matrix(entries: ExactEntries) -> list:
    """(sI - M) as a matrix of polynomials."""
    n = len(entries)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            lin = [-entries[i][j], Fraction(1)] if i == j else [-entries[i][j]]
            row.append(Polynomial(lin))
        out.append(row)
    return out


def characteristic_polynomial(M) -> Polynomial:
    return poly_det(char_matrix(exact_entries(M)))


def _minor(rows: list, drop_row: int, drop_col: int) -> list:
    return [
        [p for j, p in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


def cofactor_numerator(entries: ExactEntries, source: int, target: int) -> Polynomial:
    """Numerator polynomial of L[target <- source](s).

    The resolvent entry (sI - M)^{-1}[target, source] equals
    (-1)^(source+target) det((sI - M) with row source and column target
    removed) over det(sI - M).
    """
    x = char_matrix(entries)
    num = poly_det(_minor(x, source, target))
    if (source + target) % 2:
        num = -num
    return num


def transfer_function_cofactor(M, source: int, target: int) -> RationalFunction:
    """L[target <- source](s) by exact cofactor expansion of (sI - M)."""
    entries = exact_entries(M)
    n = len(entries)
    if not (0 <= source < n and 0 <= target < n):
        raise IndexError("species index out of range")
    den = poly_det(char_matrix(entries))
    num = cofactor_numerator(entries, source, target)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# spanning-forest route
# ---------------------------------------------------------------------------

def _out_neighbors(entries: ExactEntries) -> list:
    """adjacency[u] = sorted list of v with an edge u -> v (rate M[v][u] > 0)."""
    n = len(entries)
    return [
        [v for v in range(n) if v != u and entries[v][u] > 0]
        for u in range(n)
    ]


def _forest_sweep(entries: ExactEntries):
    """One pass over all spanning in-forests of every root set.

    Returns (den, nums) where den is det(sI - M) assembled from the forest
    expansion (coefficient of s^r = total weight of r-rooted forests) and
    nums[(source, target)] is the numerator of L[target <- source]
    (coefficient of s^(r-1) = total weight of r-rooted forests in which
    target is a root and source sits in target's tree).
    """
    n = len(entries)
    if n > _FOREST_LIMIT:
        raise ValueError(f"forest enumeration is limited to {_FOREST_LIMIT} species")
    adj = _out_neighbors(entries)
    den = [Fraction(0)] * (n + 1)
    nums = {(s, t): [Fraction(0)] * n for s in range(n) for t in range(n)}
    parent = [None] * n

    def root_of(v):
        while parent[v] is not None:
            v = parent[v]
        return v

    def descend(v, weight, n_roots):
        if v == n:
            den[n_roots] += weight
            for x in range(n):
                nums[(x, root_of(x))][n_roots - 1] += weight
            return
        # v as a root of its own tree
        descend(v + 1, weight, n_roots + 1)
        # v attached to one of its out-neighbors
        for w in adj[v]:
            u = w
            cyc = False
            while u is not None:
                if u == v:
                    cyc = True
                    break
                u = parent[u]
            if cyc:
                continue
            parent[v] = w
            descend(v + 1, weight * entries[w][v], n_roots)
            parent[v] = None

    descend(0, Fraction(1), 0)
    return Polynomial(den), {k: Polynomial(v) for k, v in nums.items()}


def transfer_function_forest(M, source: int, target: int) -> RationalFunction:
    """L[target <- source](s) from the weighted spanning-forest expansion."""
    entries = exact_entries(M)
    n = len(entries)
    if not (0 <= source < n and 0 <= target < n):
        raise IndexError("species index out of range")
    den, nums = _forest_sweep(entries)
    return RationalFunction(nums[(source, target)], den)


def all_transfer_functions_forest(M) -> dict:
    """Every pair's transfer function from a single forest enumeration."""
    entries = exact_entries(M)
    den, nums = _forest_sweep(entries)
    return {pair: RationalFunction(num, den) for pair, num in nums.items()}


# ---------------------------------------------------------------------------
# reversible paths, cycle products, proportionality proof
# ---------------------------------------------------------------------------

def _rate_map(entries: ExactEntries) -> dict:
    """Sparse rate map ``rates[(u, v)] = M[v][u]`` of the positive off-diagonal entries."""
    n = len(entries)
    return {
        (u, v): entries[v][u]
        for u in range(n) for v in range(n)
        if u != v and entries[v][u] > 0
    }


def _reversible_path_constant(n: int, rates: dict, a: int, b: int) -> Optional[Fraction]:
    """Product of rate ratios along a shortest reversible path a -> b, or None."""
    path = shortest_path(n, reversible_edges(rates), a, b)
    if path is None:
        return None
    return Fraction(*path_products(rates, path))


@dataclass(frozen=True)
class CycleViolation:
    """A fundamental cycle whose forward and backward rate products differ."""

    cycle: tuple
    forward_product: Fraction
    backward_product: Fraction

    @property
    def mismatch(self) -> Fraction:
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


def exact_cycle_violations(M) -> list:
    """Fundamental-cycle balance failures of the merged reversible graph.

    A spanning forest of the reversible subgraph induces one cycle per
    remaining reversible edge; detailed balance holds on the subgraph iff
    every such cycle has equal forward and backward rate products (checked
    exactly).
    """
    entries = exact_entries(M)
    return _cycle_violations(len(entries), _rate_map(entries))


def _cycle_violations(n: int, rates: dict) -> list:
    return [CycleViolation(tuple(cycle), fwd, back)
            for cycle, fwd, back in cycle_products(n, rates) if fwd != back]


@dataclass(frozen=True)
class ProofReport:
    """Outcome of the exact fixed-proportion check for one species pair.

    ``K`` follows the b_from_a / a_from_b orientation: the claim verified is
    numerator(L[b <- a]) == K * numerator(L[a <- b]) coefficient by
    coefficient. ``method`` names what decided it: ``"certificate"`` (exact
    detailed balance on every edge) or ``"cofactor"`` (both numerators
    expanded and compared). The numerators are expanded from ``entries`` on
    first access when the certificate decided.
    """

    pair: tuple
    K: Fraction
    verified: bool
    failing_coefficient: Optional[int]
    cycle_violations: tuple
    method: str
    entries: ExactEntries = field(repr=False, compare=False)

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
        }


def _certificate_failure(entries: ExactEntries, rates: dict) -> Optional[str]:
    """Why ``M diag(h)`` is not symmetric, or None when it is, exactly.

    ``h`` are the potentials of ``rates``. Symmetry needs every off-diagonal
    entry to be a rate and ``k(u->v) h_u == k(v->u) h_v`` on every edge, so
    an edge without its reverse fails it.
    """
    n = len(entries)
    # a Fraction's sign is its numerator's, which is far cheaper to compare
    if any(entries[i][j].numerator < 0 for i in range(n) for j in range(n) if i != j):
        return "an off-diagonal entry is negative"
    h = potentials(n, rates)
    for (u, v), k in rates.items():
        back = rates.get((v, u))
        if back is None:
            return f"edge {u} -> {v} has no reverse"
        # (u, v) and (v, u) state the same equation
        if u < v and k * h[u] != back * h[v]:
            return f"flux mismatch on edge {u} -> {v}: {k * h[u]} != {back * h[v]}"
    return None


def prove_fixed_proportion(M, a: int, b: int) -> ProofReport:
    """Exact proof that b_from_a(t) / a_from_b(t) is constant in time.

    First the detailed-balance certificate: when ``k(u->v) h_u == k(v->u) h_v``
    holds exactly on every edge, ``M diag(h)`` is symmetric, so are the
    resolvent ``(sI - M)^{-1} diag(h)`` and ``exp(Mt) diag(h)``, and the ratio
    is ``h_b / h_a`` at every t. ``K``, the product of forward/backward rate
    ratios along a shortest reversible path a -> b, then equals ``h_b / h_a``.

    When the certificate fails (an irreversible step, a violated cycle), both
    numerator polynomials are computed by exact cofactor expansion and
    compared coefficient by coefficient against K. Linearity of the inverse
    transform carries exact Laplace-domain proportionality to every t.

    Raises :class:`NoReversiblePathError` when no reversible path connects
    the pair. Detailed-balance failures are not raised: they are reported in
    ``cycle_violations`` and normally surface as a failing coefficient.
    """
    entries = exact_entries(M)
    n = len(entries)
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError("species index out of range")
    if a == b:
        raise ValueError("fixed proportion needs two distinct species")
    rates = _rate_map(entries)
    K = _reversible_path_constant(n, rates, a, b)
    if K is None:
        raise NoReversiblePathError(
            f"species {a} and {b} are not connected by reversible steps"
        )
    why_not = _certificate_failure(entries, rates)
    if why_not is None:
        log.debug("proof certificate: detailed balance holds on every edge")
        return ProofReport(pair=(a, b), K=K, verified=True, failing_coefficient=None,
                           cycle_violations=(), method="certificate", entries=entries)
    log.debug("proof cofactor: %s", why_not)
    violations = tuple(_cycle_violations(n, rates))
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
                         method="cofactor", entries=entries)
    # fill the caches of the lazy numerators with the ones just expanded
    vars(report).update(numerator_b_from_a=num_ba, numerator_a_from_b=num_ab)
    return report


def path_equilibrium_constant(net: ReactionNetwork, a: int, b: int) -> Fraction:
    """Product of forward/backward rate ratios along a shortest reversible path a -> b.

    Parallel reactions between one pair are merged by summing their rates
    before ratios are formed. On a detailed-balanced network every reversible
    path gives this same product, K_ab = h_b/h_a; on an unbalanced one the
    shortest path's product is the sensible reading (for a directly connected
    pair, its own merged rate ratio).
    """
    if not (0 <= a < net.n and 0 <= b < net.n):
        raise IndexError("species index out of range")
    if a == b:
        return Fraction(1)
    K = _reversible_path_constant(net.n, merged_rates(net, Fraction), a, b)
    if K is None:
        raise NoReversiblePathError(
            f"species {net.names[a]!r} and {net.names[b]!r} are not connected "
            "by reversible steps"
        )
    return K


def exact_balance(M) -> list:
    """Exactly detailed-balanced copy of a merged rate matrix, in rationals.

    The rates are rebalanced by :func:`~kinvar.network.balanced_rates`, the
    rule ``balance_network`` applies in floats, and the diagonal is rebuilt
    from the column sums. The new rates are generally not floats.
    """
    entries = exact_entries(M)
    n = len(entries)
    out = [row[:] for row in entries]
    for (u, v), k in balanced_rates(n, _rate_map(entries)).items():
        out[v][u] = k
    for j in range(n):
        out[j][j] = -sum(out[i][j] for i in range(n) if i != j)
    return out
