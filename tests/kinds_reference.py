"""The per-kind branches that ``kinvar.invariants.KINDS`` replaced.

They are kept as the references that the table's answers must equal exactly:
``evaluate_invariant`` chose each kind's ratio in three branches, and
``resolve_expected_K`` searched for ``2a <=> b`` or ``2a <=> 2b`` by guessing
the product coefficient from the kind's name.
"""

from __future__ import annotations

import numpy as np

from kinvar.errors import DegenerateExperimentError
from kinvar.invariants import (
    DEFAULT_TOL,
    DENOM_FLOOR,
    InvariantReport,
    InvariantSpec,
    _initial_rate,
    path_equilibrium_constant,
)

FIRST_ORDER_KINDS = ("linear_ratio", "path_product")


def resolve_expected_K(net, kind: str, a: int, b: int) -> InvariantSpec:
    """Build a spec with the constant the network itself implies."""
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


def evaluate_invariant(dual, spec: InvariantSpec, tol: float = DEFAULT_TOL,
                       denom_floor: float = DENOM_FLOOR) -> InvariantReport:
    """Evaluate one invariant combination over every usable grid time."""
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


def ratio_limit_at_zero(dual, spec: InvariantSpec) -> float:
    """The t -> 0 limit of b_from_a/a_from_b as a quotient of initial rates."""
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
