"""First-order kinetics: rate matrix, matrix-exponential trajectories,
dual experiments, and equilibrium compositions.

The generator ``M`` satisfies ``dC/dt = M C`` with ``M[i, j]`` (i != j) the
total rate constant of the conversion j -> i and columns summing to zero.
Trajectories are evaluated exactly in time as ``exp(M t) c0``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import MultipleEquilibriaError
from .network import ReactionNetwork, first_order_view, potentials
from .trajectory import DualExperiment, Trajectory, check_grid, frozen_grid, geometric_grid

log = logging.getLogger(__name__)

# largest column sum of a rate matrix accepted as zero, relative to its
# largest entry magnitude (or to 1 when that is smaller)
COLUMN_SUM_TOL = 1e-9
# eigendecomposition is rejected in favor of scaling-and-squaring when the
# reconstruction residual exceeds this (relative to ||M||)
_EIG_RESIDUAL_TOL = 1e-8
# largest relative flux mismatch |M_vu h_u - M_uv h_v| / max(...) accepted as
# detailed balance; a margin over roundoff (balance_network leaves about
# 1e-15 on a cycle product)
_BALANCE_TOL = 1e-11
# growth factors e^{lambda t} with lambda t below this (e^-575, about 1e-250)
# are set to zero: late fast modes otherwise reach the matmul as subnormals,
# on which BLAS runs several times slower, and a term this small lies
# hundreds of orders below the eigen-sum's own roundoff
_GROWTH_FLOOR_EXPONENT = -575.0
# the fallback propagator halves each grid time s times until x = c t / 2^s
# is below 2^_SERIES_SCALE_EXPONENT = 8, then sums the Poisson series in x
# over j < _SERIES_TERMS. The dropped tail grows with x; at x = 8 it is
# sum_{j>=43} e^{-8} 8^j / j! <= e^{-8} 8^43 / 43! / (1 - 8/44) = 4.6e-18,
# under a twentieth of the unit roundoff 2^-53 = 1.1e-16
_SERIES_SCALE_EXPONENT = 3
_SERIES_TERMS = 43
_LOG_FACTORIALS = np.array([math.lgamma(j + 1) for j in range(_SERIES_TERMS)])


@dataclass(frozen=True)
class RateMatrix:
    """Generator of a first-order network."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("rate matrix must be square")
        off = m - np.diag(np.diag(m))
        if np.any(off < 0):
            raise ValueError("negative off-diagonal rate")
        colsums = m.sum(axis=0)
        if np.any(np.abs(colsums) > COLUMN_SUM_TOL * max(1.0, np.abs(m).max())):
            raise ValueError("columns of a rate matrix must sum to zero")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_rate_matrix(net: ReactionNetwork) -> RateMatrix:
    """``M`` of an all-first-order network, in a fresh writable array.

    The array copies the read-only ``rate_matrix`` of the network's
    :func:`~kinvar.network.first_order_view`, built from
    :func:`~kinvar.network.rate_entries`. That matrix passed every
    :class:`RateMatrix` check when it was built, and the copy is byte-equal,
    so the copy is not checked again.
    """
    M = object.__new__(RateMatrix)
    object.__setattr__(M, "entries", first_order_view(net).rate_matrix.entries.copy())
    return M


def dense_rate_matrix(n: int, entries: dict) -> RateMatrix:
    """``M`` of order ``n`` from its nonzero entries ``{(i, j): M[i, j]}``."""
    m = np.zeros((n, n))
    index = np.fromiter(chain.from_iterable(entries), np.intp, 2 * len(entries))
    m[index[0::2], index[1::2]] = np.fromiter(entries.values(), float, len(entries))
    return RateMatrix(m)


def _symmetric_form(m: np.ndarray):
    """``(S, sqrt(h), reason)`` for a detailed-balanced generator, else ``(None, None, reason)``.

    With potentials ``h`` (:func:`~kinvar.network.potentials`) and
    ``D = diag(h)``, a generator with ``M_vu h_u = M_uv h_v`` on every pair is
    similar to the symmetric ``S = D^{-1/2} M D^{1/2}``, whose off-diagonal
    entries are ``sqrt(M_uv M_vu)`` (Kelly, *Reversibility and Stochastic
    Networks*, 1979).  ``reason`` says why the form exists or not.
    """
    n = m.shape[0]
    off = m - np.diag(np.diag(m))
    vs, us = np.nonzero(off)
    rates = dict(zip(zip(us.tolist(), vs.tolist()), off[vs, us].tolist()))
    for u, v in rates:
        if (v, u) not in rates:
            return None, None, f"irreversible step {u}->{v}"
    h = np.array(potentials(n, rates), dtype=float)
    if not np.all(np.isfinite(h) & (h > 0)):
        return None, None, "potentials out of floating-point range"
    flux_fwd = off[vs, us] * h[us]
    flux_back = off[us, vs] * h[vs]
    mismatch = float(np.max(np.abs(flux_fwd - flux_back) / np.maximum(flux_fwd, flux_back),
                            initial=0.0))
    if not mismatch <= _BALANCE_TOL:
        return None, None, f"detailed balance off by {mismatch:.3e}"
    S = np.sqrt(off * off.T) + np.diag(np.diag(m))
    return S, np.sqrt(h), f"detailed balance holds to {mismatch:.3e}"


def _read_only(a):
    if a is not None:
        a.flags.writeable = False
    return a


class _Spectrum:
    """Spectral data of one generator, each part computed on first use and read-only.

    ``m`` views the key's bytes, so later edits to the caller's array cannot reach it.
    Besides ``m``, ``S`` and the ``eigh`` factors (three ``n x n`` arrays), it
    keeps the default grid of the last ``points`` asked for and the ``eigh``
    growth factors of the last grid, ``len(times) x n`` floats (0.64 MB at
    n = 200 on 401 points).
    """

    def __init__(self, key: tuple):
        self.key = key
        self.m = np.frombuffer(key[1]).reshape(key[0])
        self._grid = (None, None)    # ((type, points), read-only default grid)
        self._growth = (None, None)  # (bytes of times, read-only growth factors)

    @cached_property
    def form(self):
        S, root_h, why = _symmetric_form(self.m)
        return _read_only(S), _read_only(root_h), why

    @cached_property
    def grid_eigenvalues(self) -> np.ndarray:
        # eigvalsh, not the eigenvalues of eigh: LAPACK computes the two by
        # different routines, and the grid would move with their last bits
        S = self.form[0]
        return _read_only(np.linalg.eigvals(self.m) if S is None else np.linalg.eigvalsh(S))

    @cached_property
    def eigh(self) -> tuple:
        lam, Q = np.linalg.eigh(self.form[0])
        return _read_only(lam), _read_only(Q)

    def grid(self, points: int) -> np.ndarray:
        """The read-only :func:`default_time_grid` of ``points`` points."""
        # the type too: geomspace refuses a float count that equals an int one
        key = (type(points), points)
        if self._grid[0] != key:
            mags = np.abs(self.grid_eigenvalues)
            nonzero = mags[mags > 1e-12 * max(1.0, mags.max())]
            if len(nonzero) == 0:
                raise ValueError("rate matrix has no nonzero eigenvalue")
            tau = 1.0 / nonzero.min()
            self._grid = (key, _read_only(geometric_grid(1e-3 * tau, 10.0 * tau, points)))
        return self._grid[1]

    def eigh_growth(self, times: np.ndarray) -> np.ndarray:
        """Read-only ``e^{lambda t}`` of the ``eigh`` eigenvalues on ``times``."""
        key = times.tobytes()
        if self._growth[0] != key:
            # S is negative semidefinite; a roundoff-positive eigenvalue would
            # grow without bound over long horizons
            self._growth = (key, _read_only(_growth(times, np.minimum(self.eigh[0], 0.0))))
        return self._growth[1]


# one slot: callers run one generator at a time (the grid, then each dual
# experiment on it), and a slot per generator seen would keep every
# decomposition alive, about 1 MB each at n = 200, plus the growth factors of
# its last grid (0.64 MB at n = 200 on 401 points)
_last_spectrum: _Spectrum | None = None


def _spectrum(m: np.ndarray) -> _Spectrum:
    """Spectral data of ``m``, shared while consecutive calls pass equal generators.

    The key is the shape and all bytes of the entries, so an array edited in
    place misses and an equal one rebuilt elsewhere hits.
    """
    global _last_spectrum
    key = (m.shape, m.tobytes())
    if _last_spectrum is None or _last_spectrum.key != key:
        _last_spectrum = _Spectrum(key)
    return _last_spectrum


def _growth(times: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``e^{lambda t}`` for every grid time and eigenvalue, zero below the growth floor."""
    exponent = np.outer(times, lam)
    exponent[exponent.real < _GROWTH_FLOOR_EXPONENT] = -np.inf
    return np.exp(exponent)


def _eig_propagators(m: np.ndarray, times: np.ndarray, C0: np.ndarray):
    """``(propagators, None)`` by complex diagonalization, or ``(None, reason)``.

    The eigendecomposition is rejected when its residual is not finite or
    does not reproduce ``M``, or when its eigenvectors are too ill-conditioned
    to invert.
    """
    lam, V = np.linalg.eig(m)
    # rates near the float range (1e308 on a defective chain) overflow these
    # norms: a non-finite residual rejects the decomposition, and an infinite
    # scale accepts any finite residual, both without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(m @ V - V * lam)
        scale = max(1.0, np.linalg.norm(m))
    if not math.isfinite(residual):
        return None, "eigen residual is not finite"
    if residual > _EIG_RESIDUAL_TOL * scale:
        return None, f"eigen residual {residual:.3e} exceeds {_EIG_RESIDUAL_TOL:g} * {scale:.3e}"
    # a defective spectrum still satisfies the eigen-equation column by
    # column; what breaks is inverting V, so check its conditioning too
    sv = np.linalg.svd(V, compute_uv=False)
    if not sv[-1] > 1e-6 * sv[0]:
        return None, "eigenvector matrix is ill-conditioned (defective spectrum)"
    try:
        W = np.linalg.solve(V, C0.astype(complex))
    except np.linalg.LinAlgError:
        return None, "eigenvector matrix is singular"
    growth = _growth(times, lam)
    out = np.stack([(V @ (growth * w).T).T.real for w in W.T])
    return out, None


def _shifted_series_propagators(m: np.ndarray, times: np.ndarray,
                                C0: np.ndarray) -> np.ndarray:
    """``exp(M t) C0`` for each grid time by nonnegative scaling and squaring.

    With ``c = max(-M_ii)``, ``N = M + cI`` is nonnegative and
    ``exp(M t) = sum_j e^{-x} x^j / j! (N/c)^j`` with ``x = c t``: Poisson
    weights on the powers of the column-stochastic ``N/c`` (uniformization).
    Each grid time is halved ``s`` times until ``x < 8``; the
    first ``_SERIES_TERMS`` terms are summed and the sum is squared ``s``
    times. Every operand is nonnegative, so no sum cancels and rounding
    errors stay relative to each entry (Xue & Ye, Numer. Math. 2008;
    Higham, *Functions of Matrices*, 2008, ch. 10). The columns of ``M``
    sum to zero, so each column of ``exp(M t)`` sums to one; rescaling the
    columns to that sum before every squaring keeps their rounding from
    doubling with each squaring, which would otherwise cost slow modes
    ``c t`` units of roundoff on a stiff network.
    """
    n = m.shape[0]
    c = float(-np.diag(m).min())
    # c >= -M_ii and rounding is monotone, so no diagonal entry of N rounds
    # below zero; the off-diagonal entries are added to an exact 0
    P = (m + c * np.eye(n)) / c
    P /= P.sum(axis=0)  # the column sums of M round to about 0, not to 0
    powers = np.empty((_SERIES_TERMS, n, n))
    powers[0] = np.eye(n)
    for j in range(1, _SERIES_TERMS):
        powers[j] = powers[j - 1] @ P
    # one column at a time, so a dual run equals two single runs bit for bit
    krylov = np.stack([powers @ col for col in C0.T])
    powers = powers.reshape(_SERIES_TERMS, n * n)
    j = np.arange(_SERIES_TERMS)
    c_mantissa, c_exponent = math.frexp(c)
    out = np.empty((C0.shape[1], len(times), n))
    for k, t in enumerate(times):
        # c t = mantissa 2^e with 1/2 <= mantissa < 1, read off the factors'
        # exponents so that it cannot overflow
        t_mantissa, t_exponent = math.frexp(t)
        mantissa, e = math.frexp(c_mantissa * t_mantissa)
        e += c_exponent + t_exponent
        s = max(e - _SERIES_SCALE_EXPONENT, 0)
        x = math.ldexp(mantissa, e - s)  # c t / 2^s < 2^_SERIES_SCALE_EXPONENT
        if x == 0.0:  # exp(0) = I to working precision; log(0) is not needed
            out[:, k] = C0.T
            continue
        weights = np.exp(j * math.log(x) - x - _LOG_FACTORIALS)  # e^-x x^j / j!
        if s == 0:  # no squaring: sum the series on C0's columns alone
            out[:, k] = weights @ krylov
            continue
        step = (weights @ powers).reshape(n, n)
        for _ in range(s):
            step /= step.sum(axis=0)  # columns of exp(M t) sum to one
            step = step @ step
        for i, col in enumerate(C0.T):
            out[i, k] = step @ col
    return out


def _propagators(M: RateMatrix, times: np.ndarray, C0: np.ndarray) -> np.ndarray:
    """``out[k]`` holds the rows ``exp(M t) C0[:, k]`` for each grid time.

    A detailed-balanced ``M`` is propagated through the real symmetric
    eigendecomposition of its symmetric form; any other generator through
    complex diagonalization when its spectrum is well conditioned, otherwise
    by the nonnegative scaling-and-squaring of
    :func:`_shifted_series_propagators` per grid point, which also covers
    defective spectra (e.g. equal-rate irreversible chains) and needs no
    scipy.  The path taken and the reason are logged at DEBUG level; the
    last path keeps the label ``expm``.  The ``eigh`` path reads its
    decomposition, and its growth factors on the last grid, from
    :func:`_spectrum` and logs whether an earlier call on the same generator
    computed the decomposition.
    """
    m = M.entries
    spectrum = _spectrum(m)
    S, root_h, why = spectrum.form
    if S is not None:
        state = "reused" if "eigh" in vars(spectrum) else "computed"
        log.debug("propagator eigh: %s; decomposition %s", why, state)
        Q = spectrum.eigh[1]
        growth = spectrum.eigh_growth(times)
        # each column's growth-scaled modes, then one product over the stack
        out = np.empty((C0.shape[1],) + growth.shape)
        for k, c in enumerate(C0.T):
            np.multiply(growth, Q.T @ (c / root_h), out=out[k])
        out = np.matmul(out, Q.T)
        out *= root_h
        return out
    out, why_not = _eig_propagators(m, times, C0)
    if out is not None:
        log.debug("propagator eig: %s", why)
        return out
    log.debug("propagator expm: %s", why_not)
    return _shifted_series_propagators(m, times, C0)


def simulate_linear(
    M: RateMatrix,
    c0: np.ndarray,
    times: np.ndarray,
    label: str = "",
    network: ReactionNetwork | None = None,
) -> Trajectory:
    """Trajectory ``exp(M t) c0`` on a strictly increasing grid starting at 0."""
    c0 = np.asarray(c0, dtype=float)
    times = np.asarray(times, dtype=float)
    if c0.shape != (M.n,):
        raise ValueError(f"initial state has shape {c0.shape}, expected ({M.n},)")
    check_grid(times)
    conc = _propagators(M, times, c0[:, None])[0]
    conc[0] = c0  # exp(0) = I, exactly
    init = int(np.argmax(c0))
    return Trajectory(times, conc, init, label, network)


def dual_experiment(
    net: ReactionNetwork, a: int, b: int, times: np.ndarray
) -> DualExperiment:
    """Unit-priming runs from species ``a`` and from species ``b`` on one grid.

    Both runs share one propagator computation; each equals the
    :func:`simulate_linear` run from its unit vector. ``M`` is the read-only
    one of the network's :func:`~kinvar.network.first_order_view`.
    """
    if a == b:
        raise ValueError("dual experiment needs two distinct species")
    times = frozen_grid(times)  # one copy, kept by both runs
    check_grid(times)
    M = first_order_view(net).rate_matrix
    C0 = np.zeros((net.n, 2))
    C0[a, 0] = C0[b, 1] = 1.0
    conc = _propagators(M, times, C0)
    conc[:, 0] = C0.T  # exp(0) = I, exactly
    from_a, from_b = (Trajectory(times, conc[k], s, f"from {net.names[s]}", net)
                      for k, s in enumerate((a, b)))
    return DualExperiment(from_a, from_b, a, b, conserved_total=1.0)


def equilibrium_composition(M: RateMatrix) -> np.ndarray:
    """Normalized kernel vector of ``M`` (sums to 1).

    Raises :class:`MultipleEquilibriaError` when the kernel dimension exceeds
    one, which happens exactly for disconnected networks.
    """
    _, s, Vt = np.linalg.svd(M.entries)
    tol = max(1.0, s.max()) * 1e-12
    null_dim = int(np.sum(s <= tol)) + (M.n - len(s))
    if null_dim != 1:
        raise MultipleEquilibriaError(
            f"kernel dimension {null_dim}: network has multiple equilibria"
        )
    v = Vt[-1]
    if v.sum() < 0:
        v = -v
    return v / v.sum()


def default_time_grid(M: RateMatrix, points: int = 400) -> np.ndarray:
    """``{0}`` plus a geometric grid from ``1e-3 tau`` to ``10 tau``.

    ``tau`` is the slowest nonzero relaxation time ``1/|lambda_min|``; the
    span resolves the fast transient and the approach to equilibrium. A
    scenario's geometric grid (``scenario.GridSpec``) runs from ``1e-3 t_max`` to
    the ``t_max`` it names instead; both start three decades below their
    scale. The grid is kept with the generator's spectral data, and each call
    returns a fresh writable copy of it.
    """
    return _spectrum(M.entries).grid(points).copy()
