"""Brute-force schedule search for validating the recursive solver.

Enumerates per-epoch powers on a uniform grid and replays every causal
tuple under the feedback harvest model, keeping the one with the highest
objective.  Only the first N powers are gridded: whatever energy is left
at the last arrival is drained linearly over the final epoch, which is
always optimal because the rate grows with power.  The grid is walked one
epoch at a time over causal power prefixes only, so a prefix is dropped
at the epoch where it first overspends; ties go to the lexicographically
smallest tuple, the search shares nothing with the KKT recursion, and it
is intentionally limited to tiny instances.

One walk scores a batch of scenarios that share a packet count
(:func:`_brute_force_batch`; ``oracle-check`` scores all its instances
together).  Each member's prefixes are a contiguous run of the walk's
arrays, and every step but the search for a prefix's causal powers is
one numpy operation over all members, so each member gets exactly what
it gets alone.  :func:`brute_force_optimize` is a batch of one.  The walk
takes ``GROUP_SIZE`` members at a time, so its peak memory does not grow
with the batch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .charge import ChargeCircuit, _harvest_value
from .exceptions import BudgetError
from .scheduling import EnergyScenario, TransmissionSchedule

__all__ = ["GridSpec", "OracleResult", "brute_force_optimize"]


@dataclass(frozen=True)
class GridSpec:
    """Resolution and limits of the brute-force search."""

    resolution: int = 60          # grid points per gridded epoch
    power_bound: float = 0.0      # W; 0 means derive from the scenario
    epoch_limit: int = 3          # largest packet count accepted
    eval_budget: int = 60 ** 3    # largest number of tuples enumerated

    def __post_init__(self):
        for name in ("resolution", "epoch_limit", "eval_budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if not 0 <= self.power_bound < math.inf:
            raise ValueError(f"power_bound must be finite and >= 0, got {self.power_bound!r}")


@dataclass(frozen=True)
class OracleResult:
    schedule: TransmissionSchedule
    throughput: float        # bits at the link gain searched with
    error_bound: float       # conservative optimality gap of the grid
    evaluated: int           # grid tuples searched
    feasible: int            # causal tuples scored


GROUP_SIZE = 64   # scenarios walked at once, so peak memory does not grow with the batch


def _auto_power_bounds(scenarios, maps, lengths, circuit: ChargeCircuit) -> np.ndarray:
    """Per scenario, twice the most energy that could be spent (E0 plus
    each packet's harvest at its optimal residual e_max (s / (1 + s))^2)
    over the shortest epoch.  Raises ValueError where that is not finite
    (an epoch so short that the quotient overflows), before any grid is
    built on it."""
    e_max = circuit.e_max
    optimal = np.array([[e_max * (s / (1.0 + s)) ** 2 for _, s in row] for row in maps])
    harvests = _harvest_value((maps[..., 0], maps[..., 1]), e_max, math.sqrt(e_max), optimal)
    total = harvests[:, 0]
    for column in harvests.T[1:]:   # summed in packet order
        total = total + column
    initial = np.array([scenario.initial_energy for scenario in scenarios])
    shortest = np.min(lengths, axis=1)
    with np.errstate(over="ignore"):
        bounds = 2.0 * (initial + total) / shortest
    for bound, epoch in zip(bounds.tolist(), shortest.tolist()):
        if not bound < math.inf:
            raise ValueError(f"the derived power bound {bound!r} W is not finite: the "
                             f"shortest epoch, {epoch!r} s, is too short; set "
                             f"GridSpec.power_bound")
    return bounds


def _grid_axes(bounds: np.ndarray, resolution: int) -> np.ndarray:
    """One row per bound: ``np.linspace(0.0, bound, resolution)``, bit for
    bit, including its branch for a step that rounds to zero."""
    div = resolution - 1
    step = (bounds / div)[:, None]
    ramp = np.arange(resolution, dtype=float)
    axes = np.where(step == 0, ramp / div * bounds[:, None], ramp * step)
    axes[:, -1] = bounds
    return axes


def brute_force_optimize(scenario: EnergyScenario, circuit: ChargeCircuit,
                         grid: GridSpec = GridSpec(),
                         gain: float = 1.0) -> OracleResult:
    """Best schedule on the power grid under the feedback harvest model.

    The objective is sum_i (l_i / 2) * log2(1 + g * p_i) with the link
    gain g (SNR per watt; 1 in normalized units), each epoch scored as
    l_i / (2 ln 2) * log1p(g p_i), as :func:`~rfharvest.scheduling.solve`
    scores it, so a low SNR keeps its relative precision.  A power prefix
    that consumes energy before it is stored is dropped (never clamped) at
    the epoch where it first overspends; every causal tuple is scored,
    each epoch once per causal prefix, and ties go to the
    lexicographically smallest tuple.  The error bound is the largest objective loss that
    rounding each optimal power down to the grid could cost, from the
    grid pitch and the slope bound l_i * g / (2 ln 2) of each epoch's rate term.
    This is :func:`_brute_force_batch` on a batch of one.

    Raises:
        ValueError: unless 0 < gain < inf, or if the scenario has more
            packets than the grid allows, its initial energy exceeds the
            battery capacity e_max, or the derived power bound is not
            finite.
        BudgetError: if enumeration would exceed the evaluation budget.
    """
    result, = _brute_force_batch([scenario], circuit, grid, gain)
    return result


def _brute_force_batch(scenarios, circuit: ChargeCircuit, grid: GridSpec = GridSpec(),
                       gain: float = 1.0) -> list:
    """:func:`brute_force_optimize` on scenarios with the same number of
    packets, in one grid walk per ``GROUP_SIZE`` of them.

    Returns one OracleResult per scenario, equal to what the scenario
    gets alone.  Raises as :func:`brute_force_optimize` does, and
    ValueError if the packet counts differ.
    """
    if not 0.0 < gain < math.inf:
        raise ValueError(f"gain must be finite and > 0, got {gain}")
    if any(scenario.initial_energy > circuit.e_max for scenario in scenarios):
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    counts = {scenario.n_packets for scenario in scenarios}
    if len(counts) > 1:
        raise ValueError(f"a batch needs one packet count, got {sorted(counts)}")
    n = counts.pop() if counts else 0
    if n > grid.epoch_limit:
        raise ValueError(f"oracle accepts at most {grid.epoch_limit} packets, got {n}")
    count = grid.resolution ** n
    if count > grid.eval_budget:
        raise BudgetError(f"{count} grid tuples exceed the budget of {grid.eval_budget}")
    if n == 0:
        return [_drain(scenario, gain) for scenario in scenarios]
    return [result for start in range(0, len(scenarios), GROUP_SIZE)
            for result in _walk(scenarios[start:start + GROUP_SIZE], circuit, grid, gain)]


def _drain(scenario: EnergyScenario, gain: float) -> OracleResult:
    """With no packets, the initial energy is spent evenly up to the deadline."""
    power = scenario.initial_energy / scenario.deadline
    schedule = TransmissionSchedule(powers=(power,), epoch_bounds=(0.0, scenario.deadline))
    bits = 0.5 * scenario.deadline / math.log(2.0) * math.log1p(gain * power)
    return OracleResult(schedule=schedule, throughput=bits, error_bound=0.0,
                        evaluated=1, feasible=1)


def _walk(scenarios, circuit: ChargeCircuit, grid: GridSpec, gain: float) -> list:
    """The causal grid walk over a group of scenarios with N >= 1 packets.

    Each member's causal prefixes are a contiguous run of the walk's
    arrays, in C order; only the search for each prefix's causal powers
    runs once per member.
    """
    size, n, res = len(scenarios), scenarios[0].n_packets, grid.resolution
    bounds = np.array([(0.0, *(t for t, _ in scenario.packets), scenario.deadline)
                       for scenario in scenarios])
    lengths = bounds[:, 1:] - bounds[:, :-1]   # np.diff's bits
    maps = np.array([scenario._maps(circuit.tau) for scenario in scenarios])
    p_ub = (np.full(size, float(grid.power_bound)) if grid.power_bound
            else _auto_power_bounds(scenarios, maps, lengths, circuit))
    axes = _grid_axes(p_ub, res)
    # Per gridded epoch, each member's spend and bits at every grid power,
    # flat; and each member's charge map as a row of q and a row of s.
    spends = (lengths.T[:n, :, None] * axes).reshape(n, -1)
    rates = (0.5 * lengths.T[:n, :, None] / math.log(2.0) * np.log1p(gain * axes)).reshape(n, -1)
    charges = maps.transpose(1, 2, 0)

    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    # Per causal power prefix, members in turn and each in C order: bits
    # and store.  Member m's prefixes are edges[m]:edges[m + 1]; prefix k
    # has counts[k] causal children, the last at ends[k] - 1, and child j's
    # power is axes.flat[j + shift[k]].
    offsets = np.arange(0, size * res, res)
    bits = np.zeros(size)
    stored = np.array([scenario.initial_energy for scenario in scenarios])
    edges, sizes = np.arange(size + 1), np.ones(size, dtype=np.intp)
    walked = []     # (ends, shift) per epoch, to trace each member's best back
    for i in range(n):
        # A prefix's causal powers are a leading run of the ascending axis.
        limit = stored + 1e-12 * e_max
        counts = np.concatenate([
            row.searchsorted(limit[lo:hi], side="right")
            for row, (lo, hi) in zip(spends[i].reshape(size, res), pairwise(edges.tolist()))])
        ends = counts.cumsum()
        shift = offsets.repeat(sizes) - ends + counts
        walked.append((ends, shift))
        cell = shift.repeat(counts)
        cell += np.arange(cell.size)
        residual = np.clip(stored.repeat(counts) - spends[i][cell], 0.0, None)
        bits = bits.repeat(counts) + rates[i][cell]
        edges = np.concatenate(([0], ends))[edges]
        sizes = edges[1:] - edges[:-1]
        stored = residual + _harvest_value(charges[i].repeat(sizes, axis=1),
                                           e_max, root_e_max, residual)
    final_power = stored / lengths[:, -1].repeat(sizes)
    bits = bits + (0.5 * lengths[:, -1] / math.log(2.0)).repeat(sizes) * np.log1p(
        gain * final_power)
    if not sizes.all():  # impossible: the all-zero tuple is always causal
        raise AssertionError("grid search found no feasible tuple")

    # First argmax in C order: ties go to the lexicographically smallest tuple.
    best = np.array([lo + int(np.argmax(bits[lo:hi])) for lo, hi in pairwise(edges.tolist())])
    powers, child = [final_power[best]], best
    for ends, shift in reversed(walked):
        parent = np.searchsorted(ends, child, side="right")
        powers.append(axes.ravel()[child + shift[parent]])
        child = parent
    pitch = p_ub / (res - 1)
    error_bounds = pitch * gain * np.sum(lengths[:, :-1], axis=1) / (2.0 * math.log(2.0))
    return [OracleResult(
                schedule=TransmissionSchedule(powers=row[::-1], epoch_bounds=epoch_bounds),
                throughput=throughput, error_bound=error_bound,
                evaluated=res ** n, feasible=feasible)
            for row, epoch_bounds, throughput, error_bound, feasible in zip(
                np.array(powers).T.tolist(), bounds.tolist(), bits[best].tolist(),
                error_bounds.tolist(), sizes.tolist())]
