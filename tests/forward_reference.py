"""The forward loops in their original per-epoch form, as a reference.

Here ``replay``, ``max_harvest_schedule`` and ``generate_scenario`` index
the scenario's numpy arrays and call the public ``harvested_energy`` at
every arrival, and ``replay`` hands online policies a fresh tuple of
(arrival, duration) pairs each epoch, which the policy below takes apart
and sums again; every charge map and parking target is computed where it
is used, in each epoch.  The library reads each scenario once as Python
floats, computes its charge maps once per tau and keeps them in the
scenario (the draw seeds them from its inversion), takes every harvest
inline from them, computes the greedy policy's parking targets once, when
the policy is built, and hands an online policy the packet count and a
running duration sum; the tests require identical results.  Both sum the bits as 0.5 l log1p(g p) and divide the
total by ln 2 once.

The draw builds its classic tunnel one run at a time, with the tests and
texts of the library's (runs, N) arrays, and turns the taut string
through it into powers on its own; only the funnel scan ``_taut_string``
is the library's, checked against SLSQP in ``test_strategies``.  It
returns the library's pair, (scenario, tight-string schedule), and
``draw`` also the classic harvests and the tunnel.

The library's deliberate departures are not copied: ``replay`` caps a
carried store that rounds above e_max, and ``max_harvest_schedule``
floors a parked residual that rounds below 0; here both raise.  The
predicted arrival is ``now + t_k / k``, the mean of the k intervals from
t = 0, which telescope to the last arrival t_k.
"""

import math
from dataclasses import dataclass

import numpy as np

import rfharvest.strategies as strategies
from rfharvest.charge import harvested_energy, optimal_residual, packet_length_for
from rfharvest.exceptions import GenerationError, InfeasibleError
from rfharvest.scheduling import EnergyScenario, HarvestTrace, TransmissionSchedule
from rfharvest.simulator import (
    GENERATION_RETRIES,
    _clamp_slack,
    _snr_gain,
    _uniform_about,
)


def replay(policy, scenario, circuit, rate_model="normalized", link=None):
    bounds = scenario.epoch_bounds
    lengths = scenario.epoch_lengths
    durations = scenario.packet_lengths
    n = scenario.n_packets
    fixed_powers = policy.powers if isinstance(policy, TransmissionSchedule) else None
    if fixed_powers is not None and len(fixed_powers) != n + 1:
        raise ValueError("schedule has a different number of epochs than the scenario")

    gain = _snr_gain(rate_model, link)
    slack = _clamp_slack(circuit)
    stored = scenario.initial_energy
    history = []
    residuals, harvested, consumed, clamped, nats = [], [], [], [], 0.0
    for i in range(n + 1):
        if fixed_powers is not None:
            power = fixed_powers[i]
        else:
            power = policy.power(bounds[i], stored, tuple(history),
                                 scenario.deadline, circuit)
        if power < 0:
            raise ValueError(f"policy produced a negative power in epoch {i + 1}")
        spend = power * lengths[i]
        if spend > stored + slack:
            clamped.append(True)
            spend = max(stored, 0.0)
            power = spend / lengths[i]
        else:
            clamped.append(False)
        residual = stored - spend
        consumed.append(spend)
        residuals.append(residual)
        nats += 0.5 * lengths[i] * math.log1p(power * gain)
        if i < n:
            harvest = harvested_energy(max(residual, 0.0), durations[i], circuit)
            harvested.append(harvest)
            stored = max(residual, 0.0) + harvest
            history.append((bounds[i + 1], durations[i]))
    trace = HarvestTrace(
        residuals=tuple(residuals),
        harvested=tuple(harvested),
        consumed=tuple(consumed),
        clamped=tuple(clamped),
    )
    return trace, float(nats / math.log(2.0))


def max_harvest_schedule(scenario, circuit):
    lengths = scenario.epoch_lengths
    durations = scenario.packet_lengths
    stored = scenario.initial_energy
    powers = []
    for i in range(scenario.n_packets):
        target = optimal_residual(durations[i], circuit)
        power = max(0.0, (stored - target) / lengths[i])
        residual = stored - power * lengths[i]
        stored = residual + harvested_energy(residual, durations[i], circuit)
        powers.append(power)
    powers.append(stored / lengths[-1])
    return TransmissionSchedule(powers=tuple(powers),
                                epoch_bounds=tuple(scenario.epoch_bounds))


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
        upper = np.asarray(self.upper, dtype=float)
        if (np.asarray(self.lower, dtype=float) > upper).any():
            raise ValueError("tunnel is empty: lower bound exceeds upper bound")
        if (np.diff(upper) < 0).any():
            raise ValueError("upper bound must be non-decreasing")


def classic_tunnel(initial_energy, arrivals, harvests, deadline, circuit):
    """Build the fixed tunnel from a classic arrival sequence."""
    arrivals = list(arrivals)
    harvests = list(harvests)
    if arrivals and (arrivals[-1] >= deadline or min(arrivals) <= 0):
        raise ValueError("arrivals must lie strictly inside (0, deadline)")
    cap = strategies.FULL_BATTERY_FRACTION * circuit.e_max
    if initial_energy > cap or any(h > cap for h in harvests):
        raise ValueError("an energy increment exceeds the usable battery capacity")
    upper, lower = [], []
    cumulative = initial_energy
    for h in harvests:
        upper.append(cumulative)          # before the jump at this arrival
        cumulative += h
        lower.append(max(0.0, cumulative - cap))
    return ClassicTunnel(times=tuple(arrivals), upper=tuple(upper), lower=tuple(lower),
                         deadline=deadline, total_energy=cumulative)


def tight_string_schedule(tunnel):
    """Taut string from (0, 0) to (deadline, total_energy) through the
    tunnel, as per-epoch powers."""
    xs = [0.0, *tunnel.times, tunnel.deadline]
    los = [0.0, *tunnel.lower, tunnel.total_energy]
    his = [0.0, *tunnel.upper, tunnel.total_energy]
    vertices = strategies._taut_string(xs, los, his)
    cumulative = np.interp(xs, [v[0] for v in vertices], [v[1] for v in vertices])
    powers = np.diff(cumulative) / np.diff(np.asarray(xs))
    return TransmissionSchedule(powers=tuple(powers), epoch_bounds=tuple(xs))


def generate_scenario(config, rng):
    """(scenario, tight-string schedule), as the library's draw returns."""
    return draw(config, rng)[:2]


def draw(config, rng):
    """(scenario, tight-string schedule, classic harvests, tunnel)."""
    n = config.packet_count
    failures = []
    for _ in range(GENERATION_RETRIES):
        lengths = _uniform_about(rng, config.mean_epoch_length, n + 1)
        harvests = _uniform_about(rng, config.mean_harvest, n)
        arrivals = np.cumsum(lengths[:-1])
        deadline = float(np.sum(lengths))
        try:
            tunnel = classic_tunnel(config.initial_energy, arrivals, harvests,
                                    deadline, config.circuit)
            schedule = tight_string_schedule(tunnel)
            epoch_lengths = np.diff(schedule.epoch_bounds)
            durations = []
            stored = config.initial_energy
            for i in range(n):
                residual = max(0.0, stored - schedule.powers[i] * epoch_lengths[i])
                duration = packet_length_for(residual, harvests[i], config.circuit)
                durations.append(duration)
                stored = residual + harvested_energy(residual, duration, config.circuit)
        except (ValueError, InfeasibleError) as exc:
            failures.append(str(exc))
            continue
        scenario = EnergyScenario(
            initial_energy=config.initial_energy,
            packets=tuple(zip(arrivals, durations)),
            deadline=deadline,
        )
        return scenario, schedule, tuple(float(h) for h in harvests), tunnel
    raise GenerationError(
        f"no feasible scenario in {GENERATION_RETRIES} attempts; "
        f"last failure: {failures[-1] if failures else 'none'}"
    )


class OnlinePredictivePolicy:
    """The online policy of the library, predicting from the whole tuple
    history it is handed in every epoch."""

    def __init__(self, prior_length, prior_gap):
        self.prior_length = prior_length
        self.prior_gap = prior_gap

    def power(self, now, stored, history, deadline, circuit):
        if history:
            # left to right, as the library's running sum adds them;
            # sum() compensates floats from Python 3.12 on
            total = 0.0
            for _, duration in history:
                total += duration
            length = total / len(history)
            arrival = now + float(history[-1][0]) / len(history)
        else:
            length, arrival = self.prior_length, now + self.prior_gap
        if arrival >= deadline:
            return stored / (deadline - now)
        target = optimal_residual(length, circuit)
        if stored <= target:
            return 0.0
        return (stored - target) / (arrival - now)
