"""The forward loops in their original per-epoch form, as a reference.

Here ``replay``, ``max_harvest_schedule`` and ``generate_scenario`` index
the scenario's numpy arrays and call the public ``harvested_energy`` at
every arrival, and ``replay`` hands online policies a fresh tuple of
(arrival, duration) pairs each epoch, which ``predict_next`` takes apart
through list comprehensions.  The library reads each scenario once as
Python floats, takes every packet's charge map from one list and runs
the same arithmetic through one scalar harvest step over a read-only
history array; the tests require identical results.  Both sum the bits
as 0.5 l log1p(g p) and divide the total by ln 2 once.

The library's deliberate departures are not copied: ``replay`` caps a
carried store that rounds above e_max, and ``max_harvest_schedule``
floors a parked residual that rounds below 0; here both raise.  The
predicted arrival is ``now + t_k / k``, the mean of the k intervals from
t = 0, which telescope to the last arrival t_k.
"""

import math

import numpy as np

from rfharvest.charge import harvested_energy, optimal_residual, packet_length_for
from rfharvest.exceptions import GenerationError, InfeasibleError
from rfharvest.scheduling import EnergyScenario, HarvestTrace, TransmissionSchedule
from rfharvest.simulator import (
    GENERATION_RETRIES,
    _clamp_slack,
    _snr_gain,
    _uniform_about,
)
from rfharvest.strategies import (
    PacketPrediction,
    classic_tunnel,
    online_step,
    tight_string_schedule,
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


def generate_scenario(config, rng):
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
            epoch_lengths = schedule.epoch_lengths
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
        return scenario, tuple(float(h) for h in harvests)
    raise GenerationError(
        f"no feasible scenario in {GENERATION_RETRIES} attempts; "
        f"last failure: {failures[-1] if failures else 'none'}"
    )


def predict_next(history, now, prior_length=0.0, prior_gap=None):
    if prior_gap is None or prior_gap <= 0:
        raise ValueError("prior_gap must be a positive number of seconds")
    if not history:
        return PacketPrediction(predicted_length=prior_length,
                                predicted_arrival=now + prior_gap)
    arrivals = [t for t, _ in history]
    durations = np.asarray([d for _, d in history], dtype=float)
    return PacketPrediction(
        predicted_length=float(np.mean(durations)),
        predicted_arrival=now + float(arrivals[-1]) / len(arrivals),
    )


class OnlinePredictivePolicy:
    """The online policy of the library, predicting through the list
    form of ``predict_next`` above."""

    def __init__(self, prior_length, prior_gap):
        self.prior_length = prior_length
        self.prior_gap = prior_gap

    def power(self, now, stored, history, deadline, circuit):
        prediction = predict_next(history, now, prior_length=self.prior_length,
                                  prior_gap=self.prior_gap)
        if prediction.predicted_arrival >= deadline:
            return stored / (deadline - now)
        return online_step(stored, prediction, now, circuit)
