"""Analytic dual-experiment solutions for the small benchmark systems.

These are the hand-derived formulas the numerical engines are tested against:
the single reversible conversion A <-> B, the chain A <-> B -> C, and the two
second-order systems 2A <-> B and 2A <-> 2B. Every function is vectorized
over t and returns a named tuple whose fields follow the x_from_y reading
(concentration of x in the experiment primed with pure y).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# beyond this tanh argument the formulas are replaced by their t -> inf
# algebraic limits; tanh is 1 to machine precision long before 20 anyway
_TANH_SATURATION = 20.0

SingleReversible = namedtuple(
    "SingleReversible", ["a_from_a", "b_from_a", "a_from_b", "b_from_b"]
)
TwoStepConcentrations = namedtuple(
    "TwoStepConcentrations",
    ["a_from_a", "b_from_a", "c_from_a", "a_from_b", "b_from_b", "c_from_b"],
)
Nonlinear2AB = namedtuple("Nonlinear2AB", ["a_from_a", "b_from_a", "a_from_b"])
Nonlinear2A2B = namedtuple(
    "Nonlinear2A2B", ["a_from_a", "b_from_a", "a_from_b", "b_from_b"]
)


def _check_rates(*rates):
    if any(k <= 0 for k in rates):
        raise ValueError("rate constants must be positive")


def single_reversible(kp: float, km: float, t) -> SingleReversible:
    """A <-> B primed with pure A and with pure B, unit total amount."""
    _check_rates(kp, km)
    t = np.asarray(t, dtype=float)
    s = kp + km
    e = np.exp(-s * t)
    return SingleReversible(
        a_from_a=(km + kp * e) / s,
        b_from_a=kp * (1.0 - e) / s,
        a_from_b=km * (1.0 - e) / s,
        b_from_b=(kp + km * e) / s,
    )


@dataclass(frozen=True)
class TwoStepEigenvalues:
    """Decay rates of A <-> B -> C, larger first.

    Both rates interlace the forward constants: lambda1 > kp2 > lambda2 > 0
    and lambda1 > kp1 > lambda2 > 0 whenever km1 > 0, since the quadratic
    lambda^2 - (kp1+km1+kp2) lambda + kp1 kp2 is negative at kp1 and kp2.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (self.lambda1 > self.lambda2 > 0.0):
            raise ValueError("expected lambda1 > lambda2 > 0")


def two_step_eigenvalues(kp1: float, km1: float, kp2: float) -> TwoStepEigenvalues:
    """Roots of lambda^2 - (kp1+km1+kp2) lambda + kp1 kp2, larger first."""
    _check_rates(kp1, km1, kp2)
    trace = kp1 + km1 + kp2
    disc = trace * trace - 4.0 * kp1 * kp2
    assert disc > 0.0, "discriminant is provably positive for positive rates"
    root = math.sqrt(disc)
    return TwoStepEigenvalues((trace + root) / 2.0, (trace - root) / 2.0)


def two_step_concentrations(
    kp1: float, km1: float, kp2: float, t
) -> TwoStepConcentrations:
    """A <-> B -> C primed with pure A and with pure B."""
    _check_rates(kp1, km1, kp2)
    t = np.asarray(t, dtype=float)
    lam = two_step_eigenvalues(kp1, km1, kp2)
    l1, l2 = lam.lambda1, lam.lambda2
    gap = l1 - l2
    e1 = np.exp(-l1 * t)
    e2 = np.exp(-l2 * t)
    return TwoStepConcentrations(
        a_from_a=(l1 * (kp2 - l2) * e2 + l2 * (l1 - kp2) * e1) / (kp2 * gap),
        b_from_a=kp1 * (e2 - e1) / gap,
        c_from_a=1.0 - (l1 * e2 - l2 * e1) / gap,
        a_from_b=km1 * (e2 - e1) / gap,
        b_from_b=(l2 * (l1 - kp2) * e2 + l1 * (kp2 - l2) * e1) / (kp2 * gap),
        c_from_b=1.0 - ((l1 - kp2) * e2 + (kp2 - l2) * e1) / gap,
    )


def nonlinear_2A_B(kp: float, km: float, t) -> Nonlinear2AB:
    """2A <-> B primed from (A, B) = (1, 0) and from (0, 1/2).

    Both starts carry the same conserved total A + 2B = 1, so the two
    experiments share their equilibrium. The solution of
    dA/dt = -2 kp A^2 + km (1 - A) is a tanh front whose time scale is set by
    the backward constant: theta = tanh(t km gamma / 2) with
    gamma = sqrt(8 kp/km + 1).
    """
    _check_rates(kp, km)
    t = np.asarray(t, dtype=float)
    kappa = kp / km
    gamma = math.sqrt(8.0 * kappa + 1.0)
    arg = 0.5 * t * km * gamma
    theta = np.tanh(np.minimum(arg, _TANH_SATURATION))
    saturated = arg > _TANH_SATURATION
    a_from_a = np.where(
        saturated,
        (gamma + 1.0) / (gamma + 4.0 * kappa + 1.0),
        (gamma + theta) / (gamma + (4.0 * kappa + 1.0) * theta),
    )
    b_from_a = np.where(
        saturated,
        2.0 * kappa / (gamma + 4.0 * kappa + 1.0),
        2.0 * kappa * theta / (gamma + (4.0 * kappa + 1.0) * theta),
    )
    a_from_b = np.where(
        saturated,
        2.0 / (gamma + 1.0),
        2.0 * theta / (gamma + theta),
    )
    return Nonlinear2AB(a_from_a, b_from_a, a_from_b)


def nonlinear_2A_2B(kp: float, km: float, t) -> Nonlinear2A2B:
    """2A <-> 2B primed from (A, B) = (1, 0) and from (0, 1).

    Solution of dA/dt = -2 kp A^2 + 2 km (1 - A)^2 through
    phi = tanh(2 t sqrt(kp km)).
    """
    _check_rates(kp, km)
    t = np.asarray(t, dtype=float)
    r = math.sqrt(kp / km)
    arg = 2.0 * t * math.sqrt(kp * km)
    phi = np.tanh(np.minimum(arg, _TANH_SATURATION))
    sat = arg > _TANH_SATURATION
    a_from_a = np.where(sat, 1.0 / (1.0 + r), 1.0 / (1.0 + r * phi))
    b_from_a = np.where(sat, r / (1.0 + r), r * phi / (1.0 + r * phi))
    a_from_b = np.where(sat, 1.0 / (1.0 + r), (phi / r) / (1.0 + phi / r))
    b_from_b = np.where(sat, r / (1.0 + r), 1.0 / (1.0 + phi / r))
    return Nonlinear2A2B(a_from_a, b_from_a, a_from_b, b_from_b)
