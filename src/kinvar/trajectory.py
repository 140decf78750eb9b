"""Trajectories of dual reactor experiments and their CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import ReactionNetwork


def check_grid(times) -> np.ndarray:
    """``times`` as :func:`frozen_grid` keeps it, if 1-D, finite, from 0 and strictly increasing.

    The engines call this before any work, so a bad grid fails fast.
    """
    times = frozen_grid(times)
    if times.ndim != 1 or times.size < 1 or times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not np.isfinite(times).all():  # a NaN passes both tests above
        raise ValueError("time grid must be finite")
    return times


def frozen_grid(times) -> np.ndarray:
    """A read-only float copy of ``times``, or ``times`` itself if it is one.

    A trajectory keeps its grid this way, so later edits to the caller's
    array cannot reach it; the two runs of a dual experiment pass one such
    copy and share it.
    """
    if (isinstance(times, np.ndarray) and times.dtype == float
            and times.flags.owndata and not times.flags.writeable):
        return times
    grid = np.array(times, dtype=float)
    grid.flags.writeable = False
    return grid


def geometric_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``{0}`` plus ``points`` geometrically spaced times from ``lo`` to ``hi``."""
    return np.concatenate(([0.0], np.geomspace(lo, hi, points)))


@dataclass(frozen=True)
class IntegratorStats:
    """Work done by the adaptive integrator for one trajectory.

    ``min_step`` and ``max_step`` range over the accepted steps; they are
    ``inf`` and ``0.0`` when no step was accepted.
    """

    accepted_steps: int
    rejected_steps: int
    rhs_evals: int
    min_step: float
    max_step: float


@dataclass(frozen=True)
class Trajectory:
    """Concentrations on a time grid for one initial condition.

    ``initial_species`` is the primed substance; ``label`` is a display tag
    such as ``"from A"``.  ``network``, when a network simulation made the
    trajectory, lets reports resolve species names and equilibria.  ``times``
    is a read-only copy (:func:`frozen_grid`), checked unless frozen already.
    ``stats`` holds the adaptive integrator's step counts when it made the
    trajectory; it takes no part in comparisons.
    """

    times: np.ndarray
    concentrations: np.ndarray
    initial_species: int
    label: str
    network: ReactionNetwork | None = None
    stats: IntegratorStats | None = field(default=None, compare=False)

    def __post_init__(self):
        t = frozen_grid(self.times)
        c = np.asarray(self.concentrations, dtype=float)
        if c.shape[0] != t.shape[0]:
            raise ValueError("times and concentration rows disagree")
        if t is not self.times and np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "concentrations", c)

    @property
    def n(self) -> int:
        return self.concentrations.shape[1]

    def species(self, index: int) -> np.ndarray:
        """Concentration series of one species."""
        return self.concentrations[:, index]


@dataclass(frozen=True)
class DualExperiment:
    """The paired runs primed with pure ``species_a`` and pure ``species_b``."""

    from_a: Trajectory
    from_b: Trajectory
    species_a: int
    species_b: int
    conserved_total: float | None = None

    def __post_init__(self):
        a, b = self.from_a.times, self.from_b.times
        if a is not b and not np.array_equal(a, b):
            raise ValueError("dual trajectories must share the time grid")

    @property
    def times(self) -> np.ndarray:
        return self.from_a.times

    @property
    def network(self) -> ReactionNetwork | None:
        return self.from_a.network


def write_trajectory_csv(path, traj: Trajectory, names=None) -> None:
    """CSV with header ``t,<species names...>`` at full double precision."""
    if names is None:
        names = traj.network.names if traj.network else [f"c{i}" for i in range(traj.n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(names) + "\n")
        for t, row in zip(traj.times, traj.concentrations):
            fh.write(f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row) + "\n")
