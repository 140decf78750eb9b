"""Exact Laplace-domain machinery for first-order networks.

Everything in this module is exact: polynomials in the transform variable s
carry `Fraction` coefficients, and transfer functions come out as uncancelled
rational functions. Every routine reads a rate matrix in one form, its
:func:`exact_view`: the values over the lcm ``D`` of their denominators, as
Python integers. Floating-point rate constants are taken at their exact
binary values, so statements proved here are statements about the numbers
actually stored, not about nearby reals. On those integers a determinant over
Z[s] is one integer Bareiss elimination at s = 2**B (Kronecker substitution),
the spanning-forest weights are integer products, and the certificate, the
path constant and the cycle products are integer products in which ``D``
cancels or is divided out once, at the end.

Two independent routes to the transfer function L[target <- source](s) are
provided: resolvent cofactors of (sI - M), and the weighted spanning-forest
expansion of the same cofactors. They must agree coefficient by coefficient,
which the tests exploit as a cross-check; the cofactors read the matrix's own
diagonal, while the forest route reads only the rates, so it refuses a matrix
whose diagonal is not exactly minus its column's rates. Fixed-proportion
proofs try an exact detailed-balance certificate first and expand cofactors
only when it fails. The view keeps the integer matrix and rate map, the
certificate, the cofactor rows and det(sI - M) for every pair of one rate
matrix. :func:`pair_constant` is the one routine for a pair's constant K, from
the certificate or a shortest reversible path, on the view's integer rates
and a network view's ``exact_rates`` alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import NoReversiblePathError
from .network import (
    BalanceCertificate,
    CycleCondition,
    ReactionNetwork,
    balance_certificate,
    balanced_rates,
    cycle_products,
    first_order_view,
    path_products,
    reversible_edges,
    scaled_integers,
    shortest_path,
)

log = logging.getLogger(__name__)

_FOREST_LIMIT = 12

_ZERO = Fraction(0)


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
# Determinants over Z[s] are taken as one integer determinant. Evaluation at
# X = 2**B (Kronecker substitution) is a ring homomorphism Z[s] -> Z, so the
# fraction-free Bareiss recurrence (akk*aij - aik*akj) // prev stays exact on
# the evaluated entries. Every Bareiss intermediate is a minor, and the
# product of the row l1 norms bounds the l1 norm of every minor; with X above
# four times that bound a minor evaluates to 0 only when it is the zero
# polynomial, so pivots and sign are those of the polynomial elimination, and
# the balanced base-X digits of the result are its coefficients. The exact
# view's rows are D (sI - M), so the determinant is rescaled at the end.

def _kronecker_det(rows: list) -> list:
    """Determinant of a square matrix of integer coefficient lists (ascending).

    Returns the coefficient list of the determinant, without trailing zeros.
    """
    n = len(rows)
    if n == 0:
        return [1]
    bound = 1
    for row in rows:
        bound *= max(1, sum(abs(c) for p in row for c in p))
    B = bound.bit_length() + 2
    a = [[sum(c << (B * i) for i, c in enumerate(p)) for p in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return []
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (akk * ai[j] - aik * ak[j]) // prev
        prev = akk
    det = sign * a[n - 1][n - 1]
    mask, half = (1 << B) - 1, 1 << (B - 1)
    out = []
    while det:
        digit = det & mask
        if digit >= half:
            digit -= mask + 1
        out.append(digit)
        det = (det - digit) >> B
    return out


def _scaled_det(rows: list, scale: int) -> Polynomial:
    """det(rows) / scale**len(rows) for a matrix of integer coefficient lists."""
    den = scale ** len(rows)
    return Polynomial([Fraction(c, den) for c in _kronecker_det(rows)])


# ---------------------------------------------------------------------------
# the exact view of a rate matrix
# ---------------------------------------------------------------------------

class ExactView:
    """Exact data that every species pair of one rate matrix shares.

    ``matrix`` holds the matrix's values over the lcm ``D`` of their
    denominators (:func:`~kinvar.network.scaled_integers`) as read-only rows
    of integers, its own diagonal included. Every exact routine reads this
    one form; each further part is computed from it on first use. ``D``
    cancels from every rate ratio and is divided out of every polynomial and
    cycle product that leaves the view.
    """

    def __init__(self, key: tuple, rows):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("rate matrix must be square")
        self.key = key
        self.D, scaled = scaled_integers([x for row in rows for x in row])
        self.matrix = tuple(tuple(scaled[i * n:(i + 1) * n]) for i in range(n))

    @cached_property
    def rates(self) -> dict:
        """Integer rate map ``rates[(u, v)] = D M[v][u]`` of the positive
        off-diagonal entries, keyed by ``u``, then ``v``."""
        A = self.matrix
        n = len(A)
        return {(u, v): A[v][u] for u in range(n) for v in range(n) if u != v and A[v][u] > 0}

    @cached_property
    def rows(self) -> list:
        """The integer coefficient lists of ``D (sI - M)``: ``[-D M_ii, D]`` on
        the diagonal and ``[-D M_ij]`` off it."""
        rows = [[[-x] for x in row] for row in self.matrix]
        for i, row in enumerate(rows):
            row[i].append(self.D)
        return rows

    @cached_property
    def det(self) -> Polynomial:
        """``det(sI - M)``, the denominator of every transfer function."""
        return _scaled_det(self.rows, self.D)

    def cofactor(self, source: int, target: int) -> Polynomial:
        """Numerator polynomial of L[target <- source](s).

        The resolvent entry (sI - M)^{-1}[target, source] equals
        (-1)^(source+target) det((sI - M) with row source and column target
        removed) over det(sI - M).
        """
        minor = [[p for j, p in enumerate(row) if j != target]
                 for i, row in enumerate(self.rows) if i != source]
        num = _scaled_det(minor, self.D)
        return -num if (source + target) % 2 else num

    @cached_property
    def certificate(self) -> BalanceCertificate:
        """The :func:`~kinvar.network.balance_certificate` of the integer rates.

        A negative off-diagonal entry fails it first: the rate map leaves such
        an entry out, and ``M diag(h)`` cannot be symmetric with it.
        """
        A = self.matrix
        n = len(A)
        if any(A[i][j] < 0 for i in range(n) for j in range(n) if i != j):
            return BalanceCertificate(None, None, "an off-diagonal entry is negative")
        return balance_certificate(n, self.rates)

    @cached_property
    def cycle_violations(self) -> tuple:
        """The :class:`~kinvar.network.CycleCondition` of each unbalanced basis
        cycle, in unscaled Fractions; none when the certificate holds."""
        if self.certificate.failure is None:
            return ()
        out = []
        for cycle, fwd, back in cycle_products(len(self.matrix), self.rates):
            if fwd != back:
                scale = self.D ** (len(cycle) - 1)  # one rate per step
                out.append(CycleCondition(tuple(cycle), Fraction(fwd, scale),
                                          Fraction(back, scale)))
        return tuple(out)


# one slot: callers take one matrix at a time through its pairs, and a slot
# per matrix seen would keep every matrix's data alive
_last_exact_view: Optional[ExactView] = None


def exact_view(M) -> ExactView:
    """The :class:`ExactView` of ``M``, shared while consecutive calls pass equal values.

    ``M`` is a RateMatrix, an array or a square nested sequence of floats,
    ints or Fractions. The key is the shape, dtype and bytes of a RateMatrix's
    (or array's) entries, otherwise the nested values as tuples, so a rebuilt
    but equal matrix hits, and an edited one misses even when it is the same
    object. Nested floats and Fractions of equal value compare equal, and so
    share one view.
    """
    global _last_exact_view
    entries = getattr(M, "entries", M)
    if hasattr(entries, "tobytes"):
        key = ("array", entries.shape, entries.dtype.str, entries.tobytes())
        n = entries.shape[0] if entries.shape else 0
    else:
        key = ("rows", tuple(map(tuple, entries)))
        n = len(key[1])
    view = _last_exact_view
    if view is not None and view.key == key:
        state = "reused"
    else:
        rows = entries.tolist() if key[0] == "array" else key[1]
        _last_exact_view = view = ExactView(key, rows)
        state = "computed"
    log.debug("exact view of %d species: %s", n, state)
    return view


# ---------------------------------------------------------------------------
# cofactor transfer functions
# ---------------------------------------------------------------------------

def _checked_view(M, source: int, target: int) -> ExactView:
    view = exact_view(M)
    n = len(view.matrix)
    if not (0 <= source < n and 0 <= target < n):
        raise IndexError("species index out of range")
    return view


def characteristic_polynomial(M) -> Polynomial:
    """det(sI - M), exactly."""
    return exact_view(M).det


def transfer_function_cofactor(M, source: int, target: int) -> RationalFunction:
    """L[target <- source](s) by exact cofactor expansion of (sI - M)."""
    view = _checked_view(M, source, target)
    return RationalFunction(view.cofactor(source, target), view.det)


# ---------------------------------------------------------------------------
# spanning-forest route
# ---------------------------------------------------------------------------

def _forest_sweep(view: ExactView):
    """One pass over all spanning in-forests of every root set.

    Returns (den, nums) where den is det(sI - M) assembled from the forest
    expansion (coefficient of s^r = total weight of r-rooted forests) and
    nums[(source, target)] is the numerator of L[target <- source]
    (coefficient of s^(r-1) = total weight of r-rooted forests in which
    target is a root and source sits in target's tree).

    The arcs carry the view's integer rates, scaled by its ``D``; an
    r-rooted forest has n - r arcs, so its weight is rescaled by D**(n - r)
    once, at the end. The expansion reads only the off-diagonal rates, so it
    raises ``ValueError`` unless they are nonnegative and each diagonal entry
    is exactly minus its column's rates.
    """
    A, D = view.matrix, view.D
    n = len(A)
    if n > _FOREST_LIMIT:
        raise ValueError(f"forest enumeration is limited to {_FOREST_LIMIT} species")
    for v in range(n):
        rates = [A[w][v] for w in range(n) if w != v]
        if min(rates, default=0) < 0 or A[v][v] != -sum(rates):
            raise ValueError(f"forest expansion needs a rate matrix: column {v} has a "
                             "negative rate or a diagonal other than minus its rates")
    # arcs[v]: (w, rate) of each arc v -> w, in increasing w
    arcs = [[] for _ in range(n)]
    for (v, w), k in view.rates.items():
        arcs[v].append((w, k))
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
        # v as a root of its own tree
        descend(v + 1, weight, n_roots + 1)
        # v attached to one of its out-neighbors, unless that closes a cycle
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


def transfer_function_forest(M, source: int, target: int) -> RationalFunction:
    """L[target <- source](s) from the weighted spanning-forest expansion."""
    den, nums = _forest_sweep(_checked_view(M, source, target))
    return RationalFunction(nums[(source, target)], den)


def all_transfer_functions_forest(M) -> dict:
    """Every pair's transfer function from a single forest enumeration."""
    den, nums = _forest_sweep(exact_view(M))
    return {pair: RationalFunction(num, den) for pair, num in nums.items()}


# ---------------------------------------------------------------------------
# reversible paths, cycle products, proportionality proof
# ---------------------------------------------------------------------------

def pair_constant(certificate: BalanceCertificate, n: int, rates: dict,
                  a: int, b: int) -> Optional[Fraction]:
    """K of ``a <=> b`` on an exact rate map: the holding ``certificate``'s
    ``h_b / h_a``, which every reversible path's product of forward/backward
    rate ratios equals, else that product along a shortest reversible path;
    None when no reversible path joins the pair. A positive factor common to
    every rate cancels from both."""
    if certificate.failure is None:
        return certificate.constant(a, b)
    path = shortest_path(n, reversible_edges(rates), a, b)
    if path is None:
        return None
    return Fraction(*path_products(rates, path))


def exact_cycle_violations(M) -> list:
    """Fundamental-cycle balance failures of the merged reversible graph.

    A spanning forest of the reversible subgraph induces one cycle per
    remaining reversible edge; detailed balance holds on the subgraph iff
    every such cycle has equal forward and backward rate products (checked
    exactly).
    """
    return list(exact_view(M).cycle_violations)


@dataclass(frozen=True)
class ProofReport:
    """Outcome of the exact fixed-proportion check for one species pair.

    ``K`` follows the b_from_a / a_from_b orientation: the claim verified is
    numerator(L[b <- a]) == K * numerator(L[a <- b]) coefficient by
    coefficient. ``method`` names what decided it: ``"certificate"`` (exact
    detailed balance on every edge) or ``"cofactor"`` (both numerators
    expanded and compared); ``certificate_failure`` is None in the first case
    and says why the certificate failed in the second. The numerators are
    expanded from the :class:`ExactView` ``view`` on first access when the
    certificate decided.
    """

    pair: tuple
    K: Fraction
    verified: bool
    failing_coefficient: Optional[int]
    cycle_violations: tuple
    method: str
    certificate_failure: Optional[str]
    view: ExactView = field(repr=False, compare=False)

    @cached_property
    def numerator_b_from_a(self) -> Polynomial:
        a, b = self.pair
        return self.view.cofactor(a, b)

    @cached_property
    def numerator_a_from_b(self) -> Polynomial:
        a, b = self.pair
        return self.view.cofactor(b, a)

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


def prove_fixed_proportion(M, a: int, b: int) -> ProofReport:
    """Exact proof that b_from_a(t) / a_from_b(t) is constant in time.

    First the detailed-balance certificate: when ``k(u->v) h_u == k(v->u) h_v``
    holds exactly on every edge, ``M diag(h)`` is symmetric, so are the
    resolvent ``(sI - M)^{-1} diag(h)`` and ``exp(Mt) diag(h)``, and the ratio
    is ``h_b / h_a`` at every t. ``K`` is then the certificate's ``h_b / h_a``,
    which equals the product of forward/backward rate ratios along every
    reversible path a -> b.

    When the certificate fails (an irreversible step, a violated cycle), K is
    that product along a shortest reversible path, and both numerator
    polynomials are computed by exact cofactor expansion and compared
    coefficient by coefficient against K. Linearity of the inverse transform
    carries exact Laplace-domain proportionality to every t.

    The integer matrix, rates, certificate and cycle violations come from
    :func:`exact_view`, so the pairs of one matrix share them.

    Raises :class:`NoReversiblePathError` when no reversible path connects
    the pair. Detailed-balance failures are not raised: they are reported in
    ``cycle_violations`` and normally surface as a failing coefficient.
    """
    view = _checked_view(M, a, b)
    if a == b:
        raise ValueError("fixed proportion needs two distinct species")
    certificate = view.certificate
    K = pair_constant(certificate, len(view.matrix), view.rates, a, b)
    if K is None:
        raise NoReversiblePathError(
            f"species {a} and {b} are not connected by reversible steps"
        )
    if certificate.failure is None:
        log.debug("proof certificate: detailed balance holds on every edge")
        return ProofReport(pair=(a, b), K=K, verified=True, failing_coefficient=None,
                           cycle_violations=(), method="certificate",
                           certificate_failure=None, view=view)
    log.debug("proof cofactor: %s", certificate.failure)
    num_ba = view.cofactor(a, b)
    num_ab = view.cofactor(b, a)
    scaled = K * num_ab
    failing = None
    for k in range(max(num_ba.degree, scaled.degree) + 1):
        if num_ba.coefficient(k) != scaled.coefficient(k):
            failing = k
            break
    report = ProofReport(pair=(a, b), K=K, verified=failing is None,
                         failing_coefficient=failing, cycle_violations=view.cycle_violations,
                         method="cofactor", certificate_failure=certificate.failure,
                         view=view)
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

    K is the proof's :func:`pair_constant` on the network's
    :func:`~kinvar.network.first_order_view`: its certificate and its
    ``exact_rates``, whose scale cancels from every ratio.
    """
    if not (0 <= a < net.n and 0 <= b < net.n):
        raise IndexError("species index out of range")
    if a == b:
        return Fraction(1)
    view = first_order_view(net)
    K = pair_constant(view.certificate, net.n, view.exact_rates, a, b)
    if K is None:
        raise NoReversiblePathError(
            f"species {net.names[a]!r} and {net.names[b]!r} are not connected "
            "by reversible steps"
        )
    return K


def exact_generator(n: int, rates: dict) -> list:
    """Rate matrix of an exact rate map on species ``0..n-1``, as nested lists:
    ``M[v][u] = k(u -> v)``, and each diagonal entry is exactly minus its
    column's rates, so every column sums to 0."""
    M = [[_ZERO] * n for _ in range(n)]
    for (u, v), k in rates.items():
        M[v][u] = k
        M[u][u] -= k
    return M


def exact_balance(M) -> list:
    """Exactly detailed-balanced copy of a merged rate matrix, in rationals.

    The rates of the :func:`exact_view` are rebalanced by
    :func:`~kinvar.network.balanced_rates`, the rule ``balance_network``
    applies in floats, which raises :class:`~kinvar.errors.BalanceError` as it
    does there when a cycle has an irreversible step. The matrix is rebuilt
    from them by :func:`exact_generator`, so a negative off-diagonal entry,
    which is no rate, is dropped. The new rates are generally not floats.
    """
    view = exact_view(M)
    n = len(view.matrix)
    rates = {edge: Fraction(k, view.D) for edge, k in view.rates.items()}
    return exact_generator(n, balanced_rates(n, rates))
