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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if self.power_bound < 0:
            raise ValueError("power_bound must be >= 0")


@dataclass(frozen=True)
class OracleResult:
    schedule: TransmissionSchedule
    throughput: float        # bits at the link gain searched with
    error_bound: float       # conservative optimality gap of the grid
    evaluated: int           # grid tuples searched
    feasible: int            # causal tuples scored


def _auto_power_bound(scenario: EnergyScenario, circuit: ChargeCircuit) -> float:
    e_max = circuit.e_max
    # each packet's harvest at its optimal residual e_max (s / (1 + s))^2
    harvests = (_harvest_value((q, s), e_max, math.sqrt(e_max), e_max * (s / (1.0 + s)) ** 2)
                for q, s in scenario._maps(circuit.tau))
    total = scenario.initial_energy + sum(harvests)
    return float(2.0 * total / float(np.min(scenario.epoch_lengths)))


def brute_force_optimize(scenario: EnergyScenario, circuit: ChargeCircuit,
                         grid: GridSpec = GridSpec(),
                         gain: float = 1.0) -> OracleResult:
    """Best schedule on the power grid under the feedback harvest model.

    The objective is sum_i (l_i / 2) * log2(1 + g * p_i) with the link
    gain g (SNR per watt; 1 in normalized units), as in
    :func:`~rfharvest.scheduling.solve`.  A power prefix that consumes
    energy before it is stored is dropped (never clamped) at the epoch
    where it first overspends; every causal tuple is scored, each epoch
    once per causal prefix, and ties go to the lexicographically
    smallest tuple.  The error bound is the largest objective loss that
    rounding each optimal power down to the grid could cost, from the
    grid pitch and the slope bound l_i * g / (2 ln 2) of each epoch's rate term.

    Raises:
        ValueError: unless 0 < gain < inf, or if the scenario has more
            packets than the grid allows, or its initial energy exceeds the
            battery capacity e_max.
        BudgetError: if enumeration would exceed the evaluation budget.
    """
    if not 0.0 < gain < math.inf:
        raise ValueError(f"gain must be finite and > 0, got {gain}")
    if scenario.initial_energy > circuit.e_max:
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    n = scenario.n_packets
    if n > grid.epoch_limit:
        raise ValueError(f"oracle accepts at most {grid.epoch_limit} packets, got {n}")
    count = grid.resolution ** n
    if count > grid.eval_budget:
        raise BudgetError(f"{count} grid tuples exceed the budget of {grid.eval_budget}")

    lengths = scenario.epoch_lengths
    bounds_grid = scenario.epoch_bounds
    if n == 0:
        power = scenario.initial_energy / lengths[0]
        schedule = TransmissionSchedule(powers=(power,), epoch_bounds=tuple(bounds_grid))
        bits = 0.5 * lengths[0] * math.log2(1.0 + gain * power)
        return OracleResult(schedule=schedule, throughput=bits, error_bound=0.0,
                            evaluated=1, feasible=1)

    p_ub = grid.power_bound or _auto_power_bound(scenario, circuit)
    axis = np.linspace(0.0, p_ub, grid.resolution)

    maps = scenario._maps(circuit.tau)
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    # Per causal power prefix, in C order: flat grid index, bits, store.
    index, bits = np.zeros(1, dtype=np.intp), np.zeros(1)
    stored = np.full(1, scenario.initial_energy)
    for i in range(n):
        # A prefix's causal powers are a leading run of the ascending axis.
        spend = axis * lengths[i]
        counts = np.searchsorted(spend, stored + 1e-12 * e_max, side="right")
        parent = np.repeat(np.arange(counts.size), counts)
        level = np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
        index = index[parent] * grid.resolution + level
        residual = np.clip(stored[parent] - spend[level], 0.0, None)
        bits = bits[parent] + (0.5 * lengths[i] * np.log2(1.0 + gain * axis))[level]
        stored = residual + _harvest_value(maps[i], e_max, root_e_max, residual)
    if bits.size == 0:  # impossible: the all-zero tuple is always causal
        raise AssertionError("grid search found no feasible tuple")
    final_power = stored / lengths[-1]
    bits = bits + 0.5 * lengths[-1] * np.log2(1.0 + gain * final_power)

    # First argmax in C order: ties go to the lexicographically smallest tuple.
    best = int(np.argmax(bits))
    cell = np.unravel_index(index[best], (grid.resolution,) * n)
    best_powers = tuple(axis[list(cell)]) + (float(final_power[best]),)
    schedule = TransmissionSchedule(powers=best_powers, epoch_bounds=tuple(bounds_grid))
    pitch = p_ub / (grid.resolution - 1)
    error_bound = pitch * gain * float(np.sum(lengths[:-1])) / (2.0 * math.log(2.0))
    return OracleResult(
        schedule=schedule,
        throughput=float(bits[best]),
        error_bound=error_bound,
        evaluated=count,
        feasible=bits.size,
    )
