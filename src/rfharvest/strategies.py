"""Baseline and online transmission policies.

Three policies besides the offline optimum:

* the maximal-energy-harvesting policy, which before every arrival tries
  to park the stored energy exactly at the harvest-maximizing residual
  for the incoming packet;
* the conventional fixed-tunnel baseline, which schedules the taut
  string through the classic energy tunnel that ignores the feedback of
  consumption on harvesting;
* an online policy that predicts the next packet from the running means
  of past packet lengths and inter-arrival intervals and applies the
  same residual-parking rule to the prediction.  It is queried through
  ``power(now, stored, count, total, deadline, circuit)``, where
  :func:`~rfharvest.simulator.replay` passes the number of packets seen
  and the running sum of their charge durations, so each epoch's
  prediction costs O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charge import ChargeCircuit, optimal_residual
from .scheduling import EnergyScenario, TransmissionSchedule

__all__ = [
    "ClassicTunnel",
    "OnlinePredictivePolicy",
    "classic_tunnel",
    "max_harvest_schedule",
    "tight_string_schedule",
]

# The conventional model treats the battery as "full" at this fraction
# of e_max, since the asymptotic charge curve never actually reaches it.
FULL_BATTERY_FRACTION = 0.99


@dataclass(frozen=True)
class ClassicTunnel:
    """Fixed energy tunnel of the conventional (no-feedback) model.

    At each arrival instant the cumulative consumption must stay below
    the energy that has arrived so far (``upper``, evaluated before the
    arrival's jump) and above the level at which the battery would
    overflow (``lower``, evaluated after the jump, with the capacity
    capped at ``FULL_BATTERY_FRACTION`` of e_max).
    """

    times: tuple          # arrival instants, seconds
    upper: tuple          # joules, cumulative arrivals before each jump
    lower: tuple          # joules, overflow floor after each jump
    deadline: float       # seconds
    total_energy: float   # joules available by the deadline

    def __post_init__(self):
        if self.deadline <= 0:
            raise ValueError("tunnel deadline must be > 0")
        if len(self.times) != len(self.upper) or len(self.times) != len(self.lower):
            raise ValueError("times, upper and lower must have equal length")
        upper = np.asarray(self.upper, dtype=float)
        if (np.asarray(self.lower, dtype=float) > upper).any():
            raise ValueError("tunnel is empty: lower bound exceeds upper bound")
        if (np.diff(upper) < 0).any():
            raise ValueError("upper bound must be non-decreasing")


def classic_tunnel(initial_energy: float, arrivals: Sequence[float],
                   harvests: Sequence[float], deadline: float,
                   circuit: ChargeCircuit) -> ClassicTunnel:
    """Build the fixed tunnel from a classic arrival sequence."""
    arrivals = list(arrivals)
    harvests = list(harvests)
    if len(arrivals) != len(harvests):
        raise ValueError("arrivals and harvests must have equal length")
    if arrivals and (arrivals[-1] >= deadline or min(arrivals) <= 0):
        raise ValueError("arrivals must lie strictly inside (0, deadline)")
    cap = FULL_BATTERY_FRACTION * circuit.e_max
    if initial_energy > cap or any(h > cap for h in harvests):
        raise ValueError("an energy increment exceeds the usable battery capacity")
    upper, lower = [], []
    cumulative = initial_energy
    for h in harvests:
        upper.append(cumulative)          # before the jump at this arrival
        cumulative += h
        lower.append(max(0.0, cumulative - cap))
    return ClassicTunnel(
        times=tuple(arrivals),
        upper=tuple(upper),
        lower=tuple(lower),
        deadline=deadline,
        total_energy=cumulative,
    )


def max_harvest_schedule(scenario: EnergyScenario,
                         circuit: ChargeCircuit) -> TransmissionSchedule:
    """Greedy policy that maximizes the energy captured from each packet.

    In every epoch it sheds exactly enough energy to arrive at the
    incoming packet's optimal residual (transmitting nothing when the
    store is already at or below the target), and drains whatever is
    left in the final epoch.  Each target is :func:`optimal_residual`
    of the packet's own charge map, and the walk takes it and the
    harvest inline, with no call per arrival.
    """
    if scenario.initial_energy > circuit.e_max:
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    tau, e_max = circuit.tau, circuit.e_max
    root_e_max = math.sqrt(e_max)
    sqrt, expm1, exp = math.sqrt, math.expm1, math.exp
    stored, start = scenario.initial_energy, 0.0
    powers, bounds = [], [0.0]
    for arrival, duration in scenario.packets:
        length = arrival - start
        x = -duration / tau
        q, s = -expm1(x), exp(x)
        target = e_max * (s / (1.0 + s)) ** 2      # optimal_residual
        power = (stored - target) / length
        if not power > 0.0:
            power = 0.0
        # a target below one ulp of the store (over ~18 tau) rounds past it
        residual = stored - power * length
        if not residual > 0.0:
            residual = 0.0
        # the harvest at the residual, as harvested_energy takes it
        u = sqrt(residual)
        harvest = q * (root_e_max - u) * (root_e_max * q + (1.0 + s) * u)
        full = q * (e_max - residual)
        stored = residual + (full if full < harvest else harvest)
        powers.append(power)
        bounds.append(arrival)
        start = arrival
    bounds.append(scenario.deadline)
    powers.append(stored / (scenario.deadline - start))
    return TransmissionSchedule(powers=powers, epoch_bounds=bounds)


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


def tight_string_schedule(tunnel: ClassicTunnel) -> TransmissionSchedule:
    """Taut string through the classic tunnel, as per-epoch powers.

    The string runs from (0, 0) to (deadline, total_energy); consuming
    everything by the deadline maximizes the classic-model objective
    because the rate grows with power.  Slopes change only at arrival
    instants where the string touches a bound.
    """
    xs = [0.0, *tunnel.times, tunnel.deadline]
    los = [0.0, *tunnel.lower, tunnel.total_energy]
    his = [0.0, *tunnel.upper, tunnel.total_energy]
    vertices = _taut_string(xs, los, his)
    vx = [v[0] for v in vertices]
    vy = [v[1] for v in vertices]
    cumulative = np.interp(xs, vx, vy)
    powers = np.diff(cumulative) / np.diff(np.asarray(xs))
    return TransmissionSchedule(powers=tuple(powers), epoch_bounds=tuple(xs))


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

    The policy sheds the excess above the predicted packet's optimal
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
        if arrival >= deadline:
            return stored / (deadline - now)
        if arrival <= now:
            raise ValueError("predicted arrival must lie in the future")
        target = optimal_residual(length, circuit)
        if stored <= target:
            return 0.0
        return (stored - target) / (arrival - now)
