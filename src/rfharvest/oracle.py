"""Brute-force schedule search for validating the recursive solver.

Enumerates per-epoch powers on a uniform grid and replays every tuple
under the feedback harvest model, keeping the feasible tuple with the
highest objective.  Only the first N powers are gridded: whatever energy
is left at the last arrival is drained linearly over the final epoch,
which is always optimal because the rate grows with power.  The grid is
walked one epoch at a time, each epoch evaluated once per distinct power
prefix; the search stays exhaustive over its grid, ties go to the
lexicographically smallest tuple, it shares nothing with the KKT
recursion, and it is intentionally limited to tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charge import (
    ChargeCircuit,
    _charge_maps,
    _harvest_value,
    harvested_energy,
    optimal_residual,
)
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
    evaluated: int           # tuples enumerated
    feasible: int            # tuples surviving the causality check


def _auto_power_bound(scenario: EnergyScenario, circuit: ChargeCircuit) -> float:
    best_harvest = sum(
        harvested_energy(optimal_residual(d, circuit), d, circuit)
        for d in scenario.packet_lengths
    )
    total = scenario.initial_energy + best_harvest
    return 2.0 * total / float(np.min(scenario.epoch_lengths))


def brute_force_optimize(scenario: EnergyScenario, circuit: ChargeCircuit,
                         grid: GridSpec = GridSpec(),
                         gain: float = 1.0) -> OracleResult:
    """Best schedule on the power grid under the feedback harvest model.

    The objective is sum_i (l_i / 2) * log2(1 + g * p_i) with the link
    gain g (SNR per watt; 1 in normalized units), as in
    :func:`~rfharvest.scheduling.solve`.  Tuples that would consume
    energy before it is stored are discarded outright (never clamped).
    Every grid tuple is scored, each epoch once per power prefix; ties
    go to the lexicographically smallest tuple.  The error bound is
    the largest objective loss that rounding each optimal power down to
    the grid could cost, from the grid pitch and the slope bound
    l_i * g / (2 ln 2) of each epoch's rate term.

    Raises:
        ValueError: if the scenario has more packets than the grid allows.
        BudgetError: if enumeration would exceed the evaluation budget.
    """
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

    maps = _charge_maps(scenario.packet_lengths, circuit)
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    stored, ok, bits = scenario.initial_energy, True, 0.0
    for i in range(n):
        # Epoch i's power varies along axis i: one state per power prefix.
        power = axis.reshape((-1,) + (1,) * (n - i - 1))
        spend = power * lengths[i]
        ok = ok & (spend <= stored + 1e-12 * e_max)
        residual = np.clip(stored - spend, 0.0, None)
        bits = bits + 0.5 * lengths[i] * np.log2(1.0 + gain * power)
        stored = residual + _harvest_value(maps[i], e_max, root_e_max, residual)
    final_power = stored / lengths[-1]
    bits = bits + 0.5 * lengths[-1] * np.log2(1.0 + gain * final_power)
    bits[~ok] = -np.inf

    # C-order argmax: ties go to the lexicographically smallest tuple.
    best = np.unravel_index(int(np.argmax(bits)), bits.shape)
    if not ok[best]:
        # Only possible if every tuple violates causality, which the
        # all-zero tuple never does.
        raise AssertionError("grid search found no feasible tuple")
    best_powers = tuple(axis[list(best)]) + (float(final_power[best]),)
    schedule = TransmissionSchedule(powers=best_powers, epoch_bounds=tuple(bounds_grid))
    pitch = p_ub / (grid.resolution - 1)
    error_bound = pitch * gain * float(np.sum(lengths[:-1])) / (2.0 * math.log(2.0))
    return OracleResult(
        schedule=schedule,
        throughput=float(bits[best]),
        error_bound=error_bound,
        evaluated=count,
        feasible=int(np.count_nonzero(ok)),
    )
