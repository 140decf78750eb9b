"""Adaptive integration of general mass-action networks.

Wraps the packed Dormand-Prince kernels in :mod:`._kernels` behind the
network/trajectory types, and builds paired initial conditions for dual
experiments whose conservation totals must match.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConservationError, IntegrationError
from .network import ReactionNetwork, conservation_vector, pack_network, validate_network
from .trajectory import DualExperiment, IntegratorStats, Trajectory, check_grid

log = logging.getLogger(__name__)

_TOTAL_TOL = 1e-12


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the embedded 5(4) pair."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.rel_tol >= 1e-14:
            raise ValueError("rel_tol must be at least 1e-14")
        if not self.abs_tol >= 1e-16:
            raise ValueError("abs_tol must be at least 1e-16")


def integrate(
    net: ReactionNetwork,
    c0,
    times,
    cfg: IntegratorConfig | None = None,
    label: str = "",
) -> Trajectory:
    """Trajectory of the mass-action system from c0 over the given grid.

    The grid must be strictly increasing and start at 0; values are produced
    at exactly the requested times via the continuous extension of the
    integrator.
    """
    if net.order_kind is None:
        net = validate_network(net)
    cfg = cfg or IntegratorConfig()
    c0 = np.asarray(c0, dtype=float)
    times = np.asarray(times, dtype=float)
    if c0.shape != (net.n,):
        raise ValueError(f"initial state has shape {c0.shape}, expected ({net.n},)")
    if not np.all(np.isfinite(c0)):
        raise ValueError("initial concentrations must be finite")
    if np.any(c0 < 0):
        raise ValueError("initial concentrations must be nonnegative")
    times = check_grid(times)
    status, t_stop, values, counts = _kernels.integrate_dp54(
        pack_network(net), c0, times, cfg.rel_tol, cfg.abs_tol)
    stats = IntegratorStats(*counts)
    log.debug("integrate %s: %s", label or "run", stats)
    if status == _kernels.STATUS_STEP_UNDERFLOW:
        raise IntegrationError("step size underflow", t=t_stop)
    if status == _kernels.STATUS_NAN_ERROR:
        raise IntegrationError("the error estimate is NaN", t=t_stop)
    if status == _kernels.STATUS_OVERFLOW:
        raise IntegrationError("the step-size control overflows the float range", t=t_stop)
    if status == _kernels.STATUS_NEGATIVE:
        raise IntegrationError(
            f"concentration fell below -10*abs_tol = {-10 * cfg.abs_tol:g}",
            t=t_stop,
        )
    init = int(np.argmax(c0))
    return Trajectory(times, values, init, label, net, stats)


def primed_amounts(
    net: ReactionNetwork,
    w: np.ndarray,
    a: int,
    b: int,
    a0: float | None = None,
    b0: float | None = None,
) -> tuple[float, float, float]:
    """Priming amounts ``(a0, b0)`` of a dual experiment and their conserved total.

    Omitted amounts default to a0 = 1 and b0 = w_a a0 / w_b, so both runs
    carry the same conserved total ``w.c``; explicit amounts must agree on it,
    else :class:`ConservationError` names both totals.
    """
    w_a, w_b = float(w[a]), float(w[b])  # Python floats: inf - inf is NaN, unwarned
    if a0 is None:
        a0 = 1.0
    if b0 is None:
        b0 = w_a * a0 / w_b
    total_a = w_a * a0
    total_b = w_b * b0
    if not abs(total_a - total_b) <= _TOTAL_TOL:  # a NaN difference fails too
        raise ConservationError(
            f"conserved totals differ: w.c = {total_a:g} from "
            f"{net.names[a]!r} but {total_b:g} from {net.names[b]!r}"
        )
    return a0, b0, total_a


def dual_experiment_nonlinear(
    net: ReactionNetwork,
    a: int,
    b: int,
    a0: float | None = None,
    b0: float | None = None,
    times=None,
    cfg: IntegratorConfig | None = None,
) -> DualExperiment:
    """Integrate the two pure-priming experiments on a common grid.

    The amounts come from :func:`primed_amounts` with the positive
    conservation vector of the network, so both runs approach the same
    equilibrium.
    """
    if a == b:
        raise ValueError("dual experiment needs two distinct species")
    if times is None:
        raise ValueError("a time grid is required")
    a0, b0, total = primed_amounts(net, conservation_vector(net), a, b, a0, b0)
    c0a = np.zeros(net.n)
    c0a[a] = a0
    c0b = np.zeros(net.n)
    c0b[b] = b0
    from_a = integrate(net, c0a, times, cfg, f"from {net.names[a]}")
    from_b = integrate(net, c0b, from_a.times, cfg, f"from {net.names[b]}")
    return DualExperiment(from_a, from_b, a, b, conserved_total=total)
