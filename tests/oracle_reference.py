"""The brute-force oracle in its original whole-grid form, as a reference.

``brute_force_optimize`` used to build every power tuple of the grid as
one R^N x N array (``np.meshgrid`` + ``np.stack``) and replay each tuple
from epoch 1.  The library now walks the grid one epoch at a time on
broadcast arrays, so each epoch is evaluated once per distinct power
prefix; the tests require identical results.
"""

import math

import numpy as np

from rfharvest.charge import _charge_maps, _harvest_value
from rfharvest.oracle import GridSpec, OracleResult, _auto_power_bound
from rfharvest.scheduling import TransmissionSchedule


def brute_force_optimize(scenario, circuit, grid=GridSpec(), gain=1.0):
    n = scenario.n_packets
    count = grid.resolution ** n
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
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    powers = np.stack([m.reshape(-1) for m in mesh], axis=1)

    maps = _charge_maps(scenario.packet_lengths, circuit)
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    stored = np.full(count, scenario.initial_energy)
    ok = np.ones(count, dtype=bool)
    bits = np.zeros(count)
    for i in range(n):
        spend = powers[:, i] * lengths[i]
        ok &= spend <= stored + 1e-12 * e_max
        residual = np.clip(stored - spend, 0.0, None)
        bits += 0.5 * lengths[i] * np.log2(1.0 + gain * powers[:, i])
        stored = residual + _harvest_value(maps[i], e_max, root_e_max, residual)
    final_power = stored / lengths[-1]
    bits += 0.5 * lengths[-1] * np.log2(1.0 + gain * final_power)
    bits[~ok] = -np.inf

    best = int(np.argmax(bits))
    best_powers = tuple(powers[best]) + (float(final_power[best]),)
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
