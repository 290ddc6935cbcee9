"""The brute-force oracle in its original whole-grid form, as a reference.

``brute_force_optimize`` used to build every power tuple of the grid as
one R^N x N array (``np.meshgrid`` + ``np.stack``) and replay each tuple
from epoch 1.  The library now walks the grid one epoch at a time over
the causal power prefixes only, dropping a prefix at the epoch where it
first overspends, so each epoch is evaluated once per causal prefix; the
tests require identical results.  The derived power bound is computed
here too, from the public ``harvested_energy`` and ``optimal_residual``.
Both score an epoch's bits as l / (2 ln 2) log1p(g p).
"""

import math

import numpy as np

from rfharvest.charge import _charge_map, _harvest_value, harvested_energy, optimal_residual
from rfharvest.oracle import GridSpec, OracleResult
from rfharvest.scheduling import TransmissionSchedule


def auto_power_bound(scenario, circuit):
    """Twice the most energy that could be spent, E0 plus every packet's
    largest harvest, over the shortest epoch."""
    total = scenario.initial_energy + sum(
        harvested_energy(optimal_residual(d, circuit), d, circuit)
        for d in scenario.packet_lengths)
    return float(2.0 * total / float(np.min(scenario.epoch_lengths)))


def brute_force_optimize(scenario, circuit, grid=GridSpec(), gain=1.0):
    n = scenario.n_packets
    count = grid.resolution ** n
    lengths = scenario.epoch_lengths
    bounds_grid = scenario.epoch_bounds
    if n == 0:
        power = scenario.initial_energy / lengths[0]
        schedule = TransmissionSchedule(powers=(power,), epoch_bounds=tuple(bounds_grid))
        bits = float(0.5 * lengths[0] / math.log(2.0) * math.log1p(gain * power))
        return OracleResult(schedule=schedule, throughput=bits, error_bound=0.0,
                            evaluated=1, feasible=1)

    p_ub = grid.power_bound or auto_power_bound(scenario, circuit)
    axis = np.linspace(0.0, p_ub, grid.resolution)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    powers = np.stack([m.reshape(-1) for m in mesh], axis=1)

    maps = [_charge_map(d, circuit.tau) for d in scenario.packet_lengths]
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    stored = np.full(count, scenario.initial_energy)
    ok = np.ones(count, dtype=bool)
    bits = np.zeros(count)
    for i in range(n):
        spend = powers[:, i] * lengths[i]
        ok &= spend <= stored + 1e-12 * e_max
        residual = np.clip(stored - spend, 0.0, None)
        bits += 0.5 * lengths[i] / math.log(2.0) * np.log1p(gain * powers[:, i])
        stored = residual + _harvest_value(maps[i], e_max, root_e_max, residual)
    final_power = stored / lengths[-1]
    bits += 0.5 * lengths[-1] / math.log(2.0) * np.log1p(gain * final_power)
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
