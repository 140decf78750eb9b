"""The host's speed at the moment, read from fixed reference work.

The shared VM this benchmark runs on changes speed by itself, by up to about
1.5x over seconds to minutes, and a set of runs that straddles such a change
spreads by as much. So every timed stretch of kinvar work is accompanied by a
*reference* that calls nothing of kinvar, and times are reported scaled to a
host on which the reference takes a fixed time:

    scaled = measured * REF / (reference time around the measurement)

A change to kinvar moves the measured time and leaves the reference alone, so
it moves the scaled time by the same share. There are two references, because
the two kinds of measurement slow down differently (README.md has the
figures):

- In-process work (the tasks) is accompanied by ``reference()``: a fixed mix
  of the kinds of work kinvar does (an interpreted float loop, ``Fraction``
  sums, small-array numpy calls, a small dense eigensolve). ``Meter`` runs it
  between tasks for a fixed share of their time. The *mean* of the reference
  times is used, not their median: a long task averages over the host's fast
  and slow moments, and so does a mean of many short references taking a
  fixed share of the same stretch of time.
- Fresh-process work (set-up, CLI runs) is accompanied by ``BASE_CMD``, a
  fresh interpreter that imports numpy, run just before and just after it.
  Process start-up and imports track that far better than ``reference()``.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import numpy as np

# mean reference time on the 2-vCPU x86_64 VM the benchmark was built on;
# only a scale, so that scaled times read as ordinary times there
REF_MS = 1.5
# references take this share of the time they accompany
SHARE = 0.2

# the fresh-process reference and its typical wall time on the same VM
BASE_CMD = [sys.executable, "-c", "import numpy"]
BASE_MS = 190.0

_EIG = np.random.default_rng(0).random((24, 24))
_VEC = np.random.default_rng(1).random(8)


def reference() -> float:
    """Run the fixed reference work once; returns its duration in seconds."""
    start = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += (i * 0.5) ** 0.5
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i)
    y = _VEC
    for _ in range(80):
        y = np.minimum(np.abs(y * 0.999 + 0.001), 1.0)
    np.linalg.eig(_EIG)
    return time.perf_counter() - start


class Meter:
    """Runs references between stretches of measured work and keeps them."""

    def __init__(self):
        self.samples = []   # reference durations in seconds, in order
        self._debt = 0.0

    def pay(self, busy_s: float) -> None:
        """Run references until they have taken ``SHARE`` of ``busy_s``.

        Whatever a short stretch leaves unpaid is carried to the next, so
        many short tasks get one reference now and then.
        """
        self._debt += busy_s * SHARE
        while self._debt > 0.0:
            took = reference()
            self.samples.append(took)
            self._debt -= took


def scale(samples) -> float:
    """Factor from measured to scaled time for the given reference samples."""
    return REF_MS * 1e-3 * len(samples) / sum(samples)


def base_scale(before_s: float, after_s: float) -> float:
    """Factor for a fresh-process time between two ``BASE_CMD`` runs."""
    return BASE_MS * 1e-3 * 2.0 / (before_s + after_s)
