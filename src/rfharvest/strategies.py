"""Baseline and online transmission policies.

Besides the offline optimum, one parking rule under two predictors, and
the conventional string:

* the parking rule ``_park`` sheds the store, before each arrival, to
  a target: the harvest-maximizing residual of the incoming packet.  The
  maximal-energy-harvesting policy (:func:`max_harvest_schedule`) applies
  it to the true next packet, with every packet's target computed once,
  when the policy is built, from the scenario's charge maps; the online
  policy applies it to a packet predicted from the running means of past
  packet lengths and inter-arrival intervals, whose target it computes
  in each epoch.  Both are queried through
  ``power(now, stored, count, total, deadline, circuit)``, where
  :func:`~rfharvest.simulator.replay` passes the number of packets seen
  and the running sum of their charge durations, so each epoch costs O(1);
* the conventional fixed-tunnel baseline, the taut string through the
  classic energy tunnel that ignores the feedback of consumption on
  harvesting.  The scenario draw (``simulator._attempt``) builds each
  run's tunnel and pulls the string through it with ``_taut_string``
  to invert the charge curve, and hands that string out as the draw's
  second value; ``evaluate_strategy("tight_string")`` replays it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charge import ChargeCircuit, optimal_residual
from .scheduling import EnergyScenario

__all__ = [
    "OnlinePredictivePolicy",
    "max_harvest_schedule",
]

# The conventional model treats the battery as "full" at this fraction
# of e_max, since the asymptotic charge curve never actually reaches it;
# the classic tunnel of the scenario draw caps its increments here.
FULL_BATTERY_FRACTION = 0.99


def _park(stored: float, target: float, arrival: float, now: float,
          deadline: float) -> float:
    """The power that sheds ``stored`` to ``target``, the optimal residual of
    the packet expected at ``arrival``, by that arrival (nothing when the store
    is at or below it), or drains the store when the arrival misses the deadline.
    """
    if arrival >= deadline:
        return stored / (deadline - now)
    if stored <= target:
        return 0.0
    return (stored - target) / (arrival - now)


@dataclass(frozen=True)
class _GreedyPolicy:
    """The parking rule on the true next packet of a scenario, whose optimal
    residual is ``targets[count]``."""

    packets: tuple
    targets: tuple

    def power(self, now, stored, count, total, deadline, circuit) -> float:
        if count < len(self.targets):
            return _park(stored, self.targets[count], self.packets[count][0], now, deadline)
        return _park(stored, 0.0, deadline, now, deadline)


def max_harvest_schedule(scenario: EnergyScenario, circuit: ChargeCircuit) -> _GreedyPolicy:
    """Greedy policy that maximizes the energy captured from each packet.

    In every epoch it sheds exactly enough energy to arrive at the
    incoming packet's optimal residual (transmitting nothing when the
    store is already at or below the target), and drains whatever is
    left in the final epoch.  The policy reads its scenario's packet
    ahead of each epoch as :func:`~rfharvest.simulator.replay` walks it;
    each packet's target, e_max (s / (1 + s))^2 of its charge map, is
    computed here, once, for ``circuit``.
    """
    if scenario.initial_energy > circuit.e_max:
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    e_max = circuit.e_max
    return _GreedyPolicy(scenario.packets, tuple([e_max * (s / (1.0 + s)) ** 2
                                                  for _, s in scenario._maps(circuit.tau)]))


def _taut_string(xs, los, his):
    """Vertices of the shortest path through vertical gates.

    ``xs`` are strictly increasing abscissae; the path must pass through
    [los[k], his[k]] at xs[k].  First and last gates are pinned points
    (lo == hi).  Runs the funnel (string-pulling) scan: keep the wedge
    of slopes that can still see every gate straight from the current
    apex; when a gate empties the wedge, the string bends at the bound
    that blocked it.  Ties (exact touches) do not bend, which breaks
    them toward the lower bound on the following segment.
    """
    n = len(xs)
    vertices = [(xs[0], los[0])]
    apex = 0
    apex_y = los[0]
    while apex < n - 1:
        max_lo = -np.inf   # steepest slope forced by a floor
        min_hi = np.inf    # shallowest slope allowed by a ceiling
        lo_idx = hi_idx = apex
        bent = False
        for j in range(apex + 1, n):
            dx = xs[j] - xs[apex]
            s_hi = (his[j] - apex_y) / dx
            s_lo = (los[j] - apex_y) / dx
            if s_hi < max_lo:
                # Ceiling at j dips below the floor tangent: bend down
                # at the floor touch point.
                apex, apex_y = lo_idx, los[lo_idx]
                vertices.append((xs[apex], apex_y))
                bent = True
                break
            if s_lo > min_hi:
                # Floor at j rises above the ceiling tangent: bend up at
                # the ceiling touch point (causality binds there).
                apex, apex_y = hi_idx, his[hi_idx]
                vertices.append((xs[apex], apex_y))
                bent = True
                break
            if s_hi < min_hi:
                min_hi, hi_idx = s_hi, j
            if s_lo > max_lo:
                max_lo, lo_idx = s_lo, j
        if not bent:
            vertices.append((xs[n - 1], los[n - 1]))
            break
    return vertices


@dataclass(frozen=True)
class OnlinePredictivePolicy:
    """Re-plans at every arrival using the moving-average predictor.

    ``prior_length`` and ``prior_gap`` seed the first prediction before
    any packet has been observed.  After ``count`` packets whose charge
    durations sum to ``total``, the predicted charge duration is their
    mean, ``total / count``, and the predicted arrival is ``now`` plus
    the mean interval between past arrivals, with t = 0 as the
    reference for the first one.  Epochs start at arrivals, so ``now``
    is the last arrival t_k, and those k intervals telescope exactly to
    it: the mean is ``now / count``, rounded once.

    ``_park`` sheds the excess above the predicted packet's optimal
    residual over the predicted horizon, and transmits nothing when the
    store is at or below that target.  When the predicted arrival falls
    at or beyond the transmission deadline, no further packet is
    expected in time, so it drains the store by the deadline instead of
    parking at a residual it would never use.
    """

    prior_length: float
    prior_gap: float

    def __post_init__(self):
        if not 0 < self.prior_gap < math.inf:
            raise ValueError("prior_gap must be a finite, positive number of seconds")
        # an infinite charge duration is a full charge, as in a scenario
        if not self.prior_length >= 0:
            raise ValueError("prior_length must be >= 0")

    def power(self, now: float, stored: float, count: int, total: float,
              deadline: float, circuit: ChargeCircuit) -> float:
        if stored < 0:
            raise ValueError(f"stored energy must be >= 0, got {stored}")
        if count:
            length, arrival = total / count, now + now / count
        else:
            length, arrival = self.prior_length, now + self.prior_gap
        if arrival <= now:
            raise ValueError("predicted arrival must lie in the future")
        return _park(stored, optimal_residual(length, circuit), arrival, now, deadline)
