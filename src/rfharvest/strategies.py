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
  same residual-parking rule to the prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .charge import ChargeCircuit, _charge_maps, _harvest_step, optimal_residual
from .scheduling import EnergyScenario, TransmissionSchedule

__all__ = [
    "ClassicTunnel",
    "PacketPrediction",
    "OnlinePredictivePolicy",
    "classic_tunnel",
    "max_harvest_schedule",
    "tight_string_schedule",
    "predict_next",
    "online_step",
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
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("tunnel is empty: lower bound exceeds upper bound")
        if any(np.diff(self.upper) < 0):
            raise ValueError("upper bound must be non-decreasing")


def classic_tunnel(initial_energy: float, arrivals: Sequence[float],
                   harvests: Sequence[float], deadline: float,
                   circuit: ChargeCircuit,
                   full_fraction: float = FULL_BATTERY_FRACTION) -> ClassicTunnel:
    """Build the fixed tunnel from a classic arrival sequence."""
    arrivals = list(arrivals)
    harvests = list(harvests)
    if len(arrivals) != len(harvests):
        raise ValueError("arrivals and harvests must have equal length")
    if arrivals and (arrivals[-1] >= deadline or min(arrivals) <= 0):
        raise ValueError("arrivals must lie strictly inside (0, deadline)")
    cap = full_fraction * circuit.e_max
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


@dataclass(frozen=True)
class PacketPrediction:
    """Predicted charge duration and arrival time of the next packet."""

    predicted_length: float   # seconds
    predicted_arrival: float  # seconds, absolute time

    def __post_init__(self):
        if self.predicted_length < 0:
            raise ValueError("predicted_length must be >= 0")


def max_harvest_schedule(scenario: EnergyScenario,
                         circuit: ChargeCircuit) -> TransmissionSchedule:
    """Greedy policy that maximizes the energy captured from each packet.

    In every epoch it sheds exactly enough energy to arrive at the
    incoming packet's optimal residual (transmitting nothing when the
    store is already at or below the target), and drains whatever is
    left in the final epoch.
    """
    lengths = scenario.epoch_lengths.tolist()
    durations = scenario.packet_lengths.tolist()
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    stored = scenario.initial_energy
    powers = []
    maps = _charge_maps(durations, circuit)
    for length, duration, charge_map in zip(lengths, durations, maps):
        target = optimal_residual(duration, circuit)
        power = max(0.0, (stored - target) / length)
        # a target below one ulp of the store (over ~18 tau) rounds past it
        residual = max(0.0, stored - power * length)
        stored = residual + _harvest_step(charge_map, e_max, root_e_max, residual)
        powers.append(power)
    powers.append(stored / lengths[-1])
    return TransmissionSchedule(powers=tuple(powers),
                                epoch_bounds=tuple(scenario.epoch_bounds))


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


def predict_next(history, now: float,
                 prior_length: float = 0.0,
                 prior_gap: Optional[float] = None) -> PacketPrediction:
    """Predict the next packet from running means of the past ones.

    ``history`` holds the (arrival_time, charge_duration) rows of the
    packets seen so far: a (k, 2) array, such as the read-only view
    :func:`~rfharvest.simulator.replay` passes, or any sequence of
    pairs.  The predicted charge duration is the mean of past durations;
    the predicted arrival is ``now`` plus the mean interval between past
    arrivals, where the stream origin t = 0 counts as the reference for
    the first interval.  Those k intervals telescope exactly to the last
    arrival t_k, so the mean is ``t_k / k``, rounded once, at O(1) cost.
    With an empty history the configured priors are used directly.
    """
    if prior_gap is None or prior_gap <= 0:
        raise ValueError("prior_gap must be a positive number of seconds")
    count = len(history)
    if count == 0:
        return PacketPrediction(predicted_length=prior_length,
                                predicted_arrival=now + prior_gap)
    rows = np.asarray(history, dtype=float)
    # np.add.reduce(x) / count is what np.mean computes, without its
    # dispatch overhead
    return PacketPrediction(
        predicted_length=float(np.add.reduce(rows[:, 1]) / count),
        predicted_arrival=now + float(rows[-1, 0]) / count,
    )


def online_step(stored: float, prediction: PacketPrediction, now: float,
                circuit: ChargeCircuit) -> float:
    """Power to transmit until the predicted arrival.

    Sheds the excess above the predicted packet's optimal residual over
    the predicted horizon; transmits nothing when the store is at or
    below the target.
    """
    if stored < 0:
        raise ValueError(f"stored energy must be >= 0, got {stored}")
    if prediction.predicted_arrival <= now:
        raise ValueError("predicted arrival must lie in the future")
    target = optimal_residual(prediction.predicted_length, circuit)
    if stored <= target:
        return 0.0
    return (stored - target) / (prediction.predicted_arrival - now)


@dataclass(frozen=True)
class OnlinePredictivePolicy:
    """Re-plans at every arrival using the moving-average predictor.

    ``prior_length`` and ``prior_gap`` seed the first prediction before
    any packet has been observed.  ``history`` in :meth:`power` is the
    read-only (i, 2) array of (arrival, charge duration) rows that
    :func:`~rfharvest.simulator.replay` passes in epoch i.  When the
    predicted arrival falls at or beyond the transmission deadline, no
    further packet is expected in time, so the policy drains the store
    by the deadline instead of parking at a residual it would never use.
    """

    prior_length: float
    prior_gap: float

    def power(self, now: float, stored: float, history: np.ndarray,
              deadline: float, circuit: ChargeCircuit) -> float:
        prediction = predict_next(history, now,
                                  prior_length=self.prior_length,
                                  prior_gap=self.prior_gap)
        if prediction.predicted_arrival >= deadline:
            return stored / (deadline - now)
        return online_step(stored, prediction, now, circuit)
