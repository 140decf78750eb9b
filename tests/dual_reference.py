"""The dual experiment, run checks and invariant evaluation as they were
before each grid was checked only once.

They are kept as the references that the program's answers must equal bit
for bit: ``dual_experiment`` froze the grid and then checked it, each run
checked the grid's strict increase again, the dual compared the two runs'
grids with ``array_equal``, and ``evaluate_invariant`` masked, counted and
reduced in separate numpy passes. The t -> 0 limit is the reaction loop of
``kinds_reference``; the propagation itself is the program's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kinds_reference import ratio_limit_at_zero
from kinvar.errors import DegenerateExperimentError
from kinvar.invariants import KINDS, InvariantReport
from kinvar.linear import _propagators
from kinvar.network import first_order_view


def check_grid(times: np.ndarray) -> None:
    if times.ndim != 1 or times.size < 1 or times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")


def frozen_grid(times) -> np.ndarray:
    if (isinstance(times, np.ndarray) and times.dtype == float
            and times.flags.owndata and not times.flags.writeable):
        return times
    grid = np.array(times, dtype=float)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    concentrations: np.ndarray
    initial_species: int
    label: str
    network: object = None

    def __post_init__(self):
        t = frozen_grid(self.times)
        c = np.asarray(self.concentrations, dtype=float)
        if c.shape[0] != t.shape[0]:
            raise ValueError("times and concentration rows disagree")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "concentrations", c)

    def species(self, index: int) -> np.ndarray:
        return self.concentrations[:, index]


@dataclass(frozen=True)
class DualExperiment:
    from_a: Trajectory
    from_b: Trajectory
    species_a: int
    species_b: int
    conserved_total: float | None = None

    def __post_init__(self):
        if not np.array_equal(self.from_a.times, self.from_b.times):
            raise ValueError("dual trajectories must share the time grid")

    @property
    def times(self) -> np.ndarray:
        return self.from_a.times

    @property
    def network(self):
        return self.from_a.network


def dual_experiment(net, a: int, b: int, times) -> DualExperiment:
    if a == b:
        raise ValueError("dual experiment needs two distinct species")
    times = frozen_grid(times)
    check_grid(times)
    M = first_order_view(net).rate_matrix
    C0 = np.zeros((net.n, 2))
    C0[a, 0] = C0[b, 1] = 1.0
    conc = _propagators(M, times, C0)
    conc[:, 0] = C0.T
    from_a, from_b = (Trajectory(times, conc[k], s, f"from {net.names[s]}", net)
                      for k, s in enumerate((a, b)))
    return DualExperiment(from_a, from_b, a, b, conserved_total=1.0)


def evaluate_invariant(dual, spec, tol: float = 1e-6,
                       denom_floor: float = 1e-12) -> InvariantReport:
    a, b = spec.pair
    times = dual.times
    nu_a, nu_b = KINDS[spec.kind]
    b_a, a_b = dual.from_a.species(b), dual.from_b.species(a)
    num = b_a * dual.from_b.species(b) if nu_b == 2 else b_a
    den = dual.from_a.species(a) * a_b if nu_a == 2 else a_b

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
