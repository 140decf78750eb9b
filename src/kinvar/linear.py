"""First-order kinetics: rate matrix, matrix-exponential trajectories,
dual experiments, and equilibrium compositions.

The generator ``M`` satisfies ``dC/dt = M C`` with ``M[i, j]`` (i != j) the
total rate constant of the conversion j -> i and columns summing to zero.
Trajectories are evaluated exactly in time as ``exp(M t) c0``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import MultipleEquilibriaError, NetworkValidationError
from .network import ORDER_FIRST, ReactionNetwork, potentials, validate_network
from .trajectory import DualExperiment, Trajectory, check_grid, geometric_grid

log = logging.getLogger(__name__)

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
        if np.any(np.abs(colsums) > 1e-9 * max(1.0, np.abs(m).max())):
            raise ValueError("columns of a rate matrix must sum to zero")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_rate_matrix(net: ReactionNetwork) -> RateMatrix:
    """Assemble ``M`` from an all-first-order network; parallel edges are summed."""
    kind = net.order_kind or validate_network(net).order_kind
    if kind != ORDER_FIRST:
        raise NetworkValidationError("build_rate_matrix requires an all-first-order network")
    m = np.zeros((net.n, net.n))
    for rxn in net.reactions:
        u = rxn.reactants[0][0]
        v = rxn.products[0][0]
        m[v, u] += rxn.k_forward
        m[u, u] -= rxn.k_forward
        if rxn.reversible:
            m[u, v] += rxn.k_backward
            m[v, v] -= rxn.k_backward
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


def _growth(times: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``e^{lambda t}`` for every grid time and eigenvalue, zero below the growth floor."""
    exponent = np.outer(times, lam)
    exponent[exponent.real < _GROWTH_FLOOR_EXPONENT] = -np.inf
    return np.exp(exponent)


def _eig_propagators(m: np.ndarray, times: np.ndarray, C0: np.ndarray):
    """``(propagators, None)`` by complex diagonalization, or ``(None, reason)``.

    The eigendecomposition is rejected when it does not reproduce ``M`` or
    its eigenvectors are too ill-conditioned to invert.
    """
    lam, V = np.linalg.eig(m)
    residual = np.linalg.norm(m @ V - V * lam)
    scale = max(1.0, np.linalg.norm(m))
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


def _propagators(M: RateMatrix, times: np.ndarray, C0: np.ndarray) -> np.ndarray:
    """``out[k]`` holds the rows ``exp(M t) C0[:, k]`` for each grid time.

    A detailed-balanced ``M`` is propagated through the real symmetric
    eigendecomposition of its symmetric form; any other generator through
    complex diagonalization when its spectrum is well conditioned, otherwise
    by scaling-and-squaring (`scipy.linalg.expm`) per grid point, which also
    covers defective spectra (e.g. equal-rate irreversible chains).  The path
    taken and the reason are logged at DEBUG level.
    """
    m = M.entries
    S, root_h, why = _symmetric_form(m)
    if S is not None:
        log.debug("propagator eigh: %s", why)
        lam, Q = np.linalg.eigh(S)
        # S is negative semidefinite; a roundoff-positive eigenvalue would
        # grow without bound over long horizons
        growth = _growth(times, np.minimum(lam, 0.0))
        W = [Q.T @ (c / root_h) for c in C0.T]
        return np.stack([(growth * w) @ Q.T * root_h for w in W])
    out, why_not = _eig_propagators(m, times, C0)
    if out is not None:
        log.debug("propagator eig: %s", why)
        return out
    log.debug("propagator expm: %s", why_not)

    from scipy.linalg import expm

    out = np.empty((C0.shape[1], len(times), M.n))
    for k, t in enumerate(times):
        step = expm(m * t)
        for j, c in enumerate(C0.T):
            out[j, k] = step @ c
    return out


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
    :func:`simulate_linear` run from its unit vector.
    """
    if a == b:
        raise ValueError("dual experiment needs two distinct species")
    times = np.asarray(times, dtype=float)
    check_grid(times)
    M = build_rate_matrix(net)
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
    scenario's geometric grid (``cli.GridSpec``) runs from ``1e-3 t_max`` to
    the ``t_max`` it names instead; both start three decades below their
    scale.
    """
    S, _, _ = _symmetric_form(M.entries)
    lam = np.linalg.eigvals(M.entries) if S is None else np.linalg.eigvalsh(S)
    mags = np.abs(lam)
    nonzero = mags[mags > 1e-12 * max(1.0, mags.max())]
    if len(nonzero) == 0:
        raise ValueError("rate matrix has no nonzero eigenvalue")
    tau = 1.0 / nonzero.min()
    return geometric_grid(1e-3 * tau, 10.0 * tau, points)
