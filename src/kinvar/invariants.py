"""Time-invariant ratio evaluation for dual experiments.

Given the two pure-priming trajectories, the cross-experiment combinations

- ``linear_ratio``      b_from_a / a_from_b
- ``nonlinear_2A_B``    b_from_a / (a_from_a * a_from_b)
- ``nonlinear_2A_2B``   (b_from_a * b_from_b) / (a_from_a * a_from_b)
- ``path_product``      b_from_a / a_from_b against the product of step
  equilibrium constants along a reversible path

are constant for t > 0 and equal to the corresponding equilibrium constant.
This module turns that statement into measured deviation reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateExperimentError
from .laplace import path_equilibrium_constant
from .linear import build_rate_matrix, equilibrium_composition
from .network import ReactionNetwork, first_order_view
from .trajectory import DualExperiment, Trajectory

KINDS = ("linear_ratio", "nonlinear_2A_B", "nonlinear_2A_2B", "path_product")
FIRST_ORDER_KINDS = ("linear_ratio", "path_product")
PROVENANCES = ("from-rates", "from-path-product", "user-supplied")

DENOM_FLOOR = 1e-12
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class InvariantSpec:
    """Which combination to evaluate, for which pair, against which constant."""

    kind: str
    pair: tuple
    expected_K: float
    provenance: str = "user-supplied"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown invariant kind {self.kind!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.expected_K > 0:
            raise ValueError("expected_K must be positive")
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two distinct species")


def resolve_expected_K(net: ReactionNetwork, kind: str, a: int, b: int) -> InvariantSpec:
    """Build a spec with the constant the network itself implies.

    First-order kinds take the exact product of forward/backward ratios along
    a shortest reversible path; the two second-order kinds take
    k_forward/k_backward of the reversible reaction whose stoichiometry
    matches the kind (2a -> b or 2a -> 2b, in either orientation). On
    networks that violate detailed balance the path product is ambiguous, and
    the shortest path's product is the one used (for a directly connected
    pair that is just its own rate ratio).
    """
    if kind in FIRST_ORDER_KINDS:
        try:
            K = float(path_equilibrium_constant(net, a, b))
        except OverflowError:
            raise ValueError(f"equilibrium constant of {net.names[a]!r} -> "
                             f"{net.names[b]!r} overflows a float") from None
        return InvariantSpec(kind, (a, b), K, "from-path-product")
    product_coeff = 1 if kind == "nonlinear_2A_B" else 2
    for rxn in net.reactions:
        if not rxn.reversible:
            continue
        if rxn.reactants == ((a, 2),) and rxn.products == ((b, product_coeff),):
            K = rxn.k_forward / rxn.k_backward
        elif rxn.products == ((a, 2),) and rxn.reactants == ((b, product_coeff),):
            K = rxn.k_backward / rxn.k_forward
        else:
            continue
        return InvariantSpec(kind, (a, b), K, "from-rates")
    raise ValueError(
        f"no reversible {kind} reaction joins species "
        f"{net.names[a]!r} and {net.names[b]!r}"
    )


@dataclass(frozen=True)
class InvariantReport:
    """Measured ratio series and its worst relative deviation from expected_K."""

    spec: InvariantSpec
    t_min: float
    times: np.ndarray
    ratios: np.ndarray
    max_rel_deviation: float
    limit_at_zero: Optional[float]
    excluded_points: int
    tol: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "spec": {
                "kind": self.spec.kind,
                "pair": list(self.spec.pair),
                "provenance": self.spec.provenance,
            },
            "expected_K": self.spec.expected_K,
            "t_min": self.t_min,
            "max_rel_deviation": self.max_rel_deviation,
            "limit_at_zero": self.limit_at_zero,
            "excluded_points": self.excluded_points,
            "tol": self.tol,
            "verdict": bool(self.verdict),
            "series": [[float(t), float(r)] for t, r in zip(self.times, self.ratios)],
        }


def evaluate_invariant(
    dual: DualExperiment,
    spec: InvariantSpec,
    tol: float = DEFAULT_TOL,
    denom_floor: float = DENOM_FLOOR,
) -> InvariantReport:
    """Evaluate one invariant combination over every usable grid time.

    Times with t <= 0 or with a denominator below ``denom_floor`` are
    excluded and counted, never silently dropped; if nothing remains the
    experiment cannot support the ratio and a
    :class:`DegenerateExperimentError` is raised.
    """
    a, b = spec.pair
    times = dual.times
    a_a = dual.from_a.species(a)
    b_a = dual.from_a.species(b)
    a_b = dual.from_b.species(a)
    b_b = dual.from_b.species(b)

    if spec.kind in FIRST_ORDER_KINDS:
        num, den = b_a, a_b
    elif spec.kind == "nonlinear_2A_B":
        num, den = b_a, a_a * a_b
    else:  # nonlinear_2A_2B
        num, den = b_a * b_b, a_a * a_b

    usable = (times > 0.0) & (den >= denom_floor)
    excluded = int(np.sum(~usable))
    if not np.any(usable):
        raise DegenerateExperimentError(
            f"all {len(times)} grid points excluded for {spec.kind} on pair "
            f"({a}, {b})"
        )
    t_used = times[usable]
    ratios = num[usable] / den[usable]
    max_dev = float(np.max(np.abs(ratios / spec.expected_K - 1.0)))

    limit = None
    if spec.kind in FIRST_ORDER_KINDS and dual.network is not None:
        try:
            limit = ratio_limit_at_zero(dual, spec)
        except (ValueError, ZeroDivisionError):
            limit = None

    return InvariantReport(
        spec=spec,
        t_min=float(t_used[0]),
        times=t_used,
        ratios=ratios,
        max_rel_deviation=max_dev,
        limit_at_zero=limit,
        excluded_points=excluded,
        tol=tol,
        verdict=max_dev <= tol,
    )


def ratio_limit_at_zero(dual: DualExperiment, spec: InvariantSpec) -> float:
    """The t -> 0 limit of b_from_a/a_from_b as a quotient of initial rates.

    At t = 0 the ratio itself is 0/0; one l'Hopital step replaces it with the
    production rate of b in the a-primed run over the production rate of a in
    the b-primed run, both from the initial concentrations.
    """
    if spec.kind not in FIRST_ORDER_KINDS:
        raise ValueError("the t->0 limit applies to first-order ratio kinds")
    net = dual.network
    if net is None:
        raise ValueError("dual experiment carries no network reference")
    a, b = spec.pair
    rate_b = _initial_rate(net, dual.from_a.concentrations[0].tolist(), b)
    rate_a = _initial_rate(net, dual.from_b.concentrations[0].tolist(), a)
    if rate_a == 0.0:
        raise ZeroDivisionError(
            "zero initial production rate in the denominator experiment"
        )
    return rate_b / rate_a


def _initial_rate(net: ReactionNetwork, c: list, s: int) -> float:
    """``dc_s/dt`` of a first-order network at concentrations ``c``.

    Each reaction direction that feeds or drains ``s`` adds or subtracts its
    flux ``k c_source``, from ``0.0`` in reaction order, the sum the
    mass-action right-hand side forms for ``s``. The directions come from the
    network's :func:`~kinvar.network.first_order_view`.
    """
    rate = 0.0
    for k, src in first_order_view(net).directions[s]:
        rate += k * c[src]
    return rate


@dataclass(frozen=True)
class OvershootReport:
    """Crossings of a single-run ratio b(t)/a(t) through its equilibrium value."""

    pair: tuple
    equilibrium_ratio: float
    crossing_times: tuple
    magnitude: float

    @property
    def crossed(self) -> bool:
        return bool(self.crossing_times)

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "equilibrium_ratio": self.equilibrium_ratio,
            "crossing_times": list(self.crossing_times),
            "magnitude": self.magnitude,
            "crossed": self.crossed,
        }


def overshoot_scan(
    traj: Trajectory, a: int, b: int, band: float = 1e-9
) -> OvershootReport:
    """Detect b(t)/a(t) crossing its equilibrium value before settling.

    The ratio is compared against pi_b/pi_a from the stationary composition of
    the (first-order) network; sign changes of the difference between
    consecutive grid points mark crossings, with the times located by linear
    interpolation. Points within ``band`` (relative) of equilibrium carry no
    sign, which keeps roundoff jitter around a settled ratio from reporting
    spurious crossings. The magnitude is the largest relative excursion
    beyond equilibrium after the first crossing.
    """
    if traj.network is None:
        raise ValueError("trajectory carries no network reference")
    M = build_rate_matrix(traj.network)
    pi = equilibrium_composition(M)
    if pi[a] <= 0:
        raise ValueError("equilibrium composition vanishes for the denominator")
    r_eq = pi[b] / pi[a]

    av = traj.species(a)
    bv = traj.species(b)
    if np.any(av <= 0):
        raise ValueError("denominator concentration vanishes on the grid")
    ratio = bv / av
    delta = ratio / r_eq - 1.0
    sign = np.where(np.abs(delta) <= band, 0, np.sign(delta)).astype(int)

    crossings = []
    last = 0
    last_idx = 0
    for i, s in enumerate(sign):
        if s == 0:
            continue
        if last != 0 and s != last:
            t0, t1 = traj.times[last_idx], traj.times[i]
            d0, d1 = delta[last_idx], delta[i]
            crossings.append(float(t0 + (t1 - t0) * d0 / (d0 - d1)))
        last = s
        last_idx = i

    magnitude = 0.0
    if crossings:
        after = traj.times >= crossings[0]
        magnitude = float(np.max(np.abs(delta[after])))
    return OvershootReport(
        pair=(a, b),
        equilibrium_ratio=float(r_eq),
        crossing_times=tuple(crossings),
        magnitude=magnitude,
    )
