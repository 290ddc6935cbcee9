"""Feedback-accurate replay, scenario generation, and experiment sweeps.

The simulator closes the loop the scheduler reasons about: it executes
any schedule or online policy epoch by epoch, consuming energy first and
then applying the nonlinear harvest at each arrival instant, so the
energies a policy actually captures depend on how it transmitted.

Scenario generation runs the classic model in reverse: draw a fixed
energy tunnel, schedule the conventional taut string through it, record
the residuals that schedule would leave at each arrival, and invert the
charge curve to find the packet charge durations that reproduce exactly
those harvests.  The same scenario can then be fed to every strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .charge import ChargeCircuit, _charge_map, _charge_maps, _harvest_step, packet_length_for
from .exceptions import ConfigError, GenerationError, InfeasibleError
from .scheduling import (
    EnergyScenario,
    HarvestTrace,
    SolveReport,
    TransmissionSchedule,
    solve,
)
from .strategies import (
    FULL_BATTERY_FRACTION,
    OnlinePredictivePolicy,
    classic_tunnel,
    max_harvest_schedule,
    tight_string_schedule,
)

__all__ = [
    "ChannelLink",
    "ExperimentConfig",
    "rate",
    "replay",
    "optimal_schedule",
    "generate_scenario",
    "evaluate_strategy",
    "monte_carlo",
    "future_impact_probe",
    "STRATEGIES",
]

# Half-width of the uniform draws relative to the mean; equals a standard
# deviation of mean/5 while keeping the support positive.
UNIFORM_HALFWIDTH = math.sqrt(3.0) / 5.0
GENERATION_RETRIES = 100


def _clamp_slack(circuit: ChargeCircuit) -> float:
    """Consumption overshoot treated as roundoff rather than a violation.

    Must be wider than the solver's terminal-residual tolerance so that
    replaying an optimal schedule reproduces its trace without clamping.
    """
    return max(1e-9 * circuit.e_max, 1e-9)


@dataclass(frozen=True)
class ChannelLink:
    """AWGN link budget between the transmitter and its receiver."""

    frequency: float       # Hz
    distance: float        # m
    bandwidth: float       # Hz
    noise_density: float   # dBm/Hz

    def __post_init__(self):
        if self.frequency <= 0 or self.distance <= 0 or self.bandwidth <= 0:
            raise ValueError("frequency, distance and bandwidth must be > 0")

    @property
    def path_loss(self) -> float:
        """Free-space path loss in dB."""
        return 20.0 * math.log10(self.distance) + 20.0 * math.log10(self.frequency) - 147.55

    @property
    def noise_floor(self) -> float:
        """Noise power over the bandwidth in dBm."""
        return self.noise_density + 10.0 * math.log10(self.bandwidth)

    @property
    def gain(self) -> float:
        """Linear SNR per watt of transmit power."""
        return 10.0 ** ((30.0 - self.path_loss - self.noise_floor) / 10.0)


def rate(power_dbm: float, link: ChannelLink) -> float:
    """Spectral efficiency in bits/s/Hz at a given transmit power in dBm."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"power_dbm must be finite, got {power_dbm}")
    snr_db = power_dbm - link.path_loss - link.noise_floor
    return math.log2(1.0 + 10.0 ** (snr_db / 10.0))


def _snr_gain(rate_model: str, link: Optional[ChannelLink]) -> float:
    """SNR per watt under a rate model; 1 in normalized units."""
    if rate_model == "normalized":
        return 1.0
    if rate_model != "link-budget":
        raise ValueError(f"unknown rate model {rate_model!r}")
    if link is None:
        raise ValueError("link-budget rate model needs a ChannelLink")
    return link.gain


def replay(policy, scenario: EnergyScenario, circuit: ChargeCircuit,
           rate_model: str = "normalized",
           link: Optional[ChannelLink] = None):
    """Execute a schedule or online policy under the feedback model.

    ``policy`` is either a :class:`TransmissionSchedule` or an object
    with a ``power(now, stored, history, deadline, circuit)`` method that
    is queried once per epoch, at its start, with the packets observed
    so far: in epoch i, ``history`` is a read-only (i, 2) float array
    whose rows are the (arrival, charge duration) pairs of the first i
    packets, a view into one array built per replay.  Consumption that
    would drive the store negative is clamped to what is available and
    the epoch is flagged rather than raising: the conventional baseline
    plans on energies it will not actually receive, and that shortfall
    is part of what the comparison measures.

    Returns:
        (HarvestTrace, throughput in bits under the active rate model,
        summed as log1p(g p) / ln 2 like
        :func:`~rfharvest.scheduling.throughput`)
    """
    bounds = scenario.epoch_bounds.tolist()
    lengths = scenario.epoch_lengths.tolist()
    n = scenario.n_packets
    fixed_powers = policy.powers if isinstance(policy, TransmissionSchedule) else None
    if fixed_powers is not None and len(fixed_powers) != n + 1:
        raise ValueError("schedule has a different number of epochs than the scenario")
    if fixed_powers is None:
        observed = np.array(scenario.packets, dtype=float).reshape(n, 2)
        observed.flags.writeable = False

    gain = _snr_gain(rate_model, link)
    slack = _clamp_slack(circuit)
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    maps = _charge_maps(scenario.packet_lengths.tolist(), circuit)
    stored = scenario.initial_energy
    residuals, harvested, consumed, clamped, nats = [], [], [], [], 0.0
    for i, length in enumerate(lengths):
        if fixed_powers is not None:
            power = fixed_powers[i]
        else:
            power = policy.power(bounds[i], stored, observed[:i],
                                 scenario.deadline, circuit)
        if power < 0:
            raise ValueError(f"policy produced a negative power in epoch {i + 1}")
        spend = power * length
        if spend > stored + slack:
            # Genuinely consuming energy it does not have: cut to the
            # store and flag.  Overshoots inside the slack band are kept
            # as is (residual dips a hair below zero) so that replaying
            # a solver schedule reproduces its trace verbatim.
            clamped.append(True)
            spend = max(stored, 0.0)
            power = spend / length
        else:
            clamped.append(False)
        residual = stored - spend
        consumed.append(spend)
        residuals.append(residual)
        nats += 0.5 * length * math.log1p(power * gain)
        if i < n:
            # The physical store lies in [0, e_max]; the recorded residual
            # keeps any roundoff-scale dip for trace fidelity, but the
            # carry is floored so exact bound touches stay exact, and
            # capped so a full store that rounds above e_max stays full.
            carried = max(residual, 0.0)
            harvest = _harvest_step(maps[i], e_max, root_e_max, carried)
            harvested.append(harvest)
            stored = min(carried + harvest, e_max)
    trace = HarvestTrace(
        residuals=tuple(residuals),
        harvested=tuple(harvested),
        consumed=tuple(consumed),
        clamped=tuple(clamped),
    )
    return trace, nats / math.log(2.0)


def optimal_schedule(scenario: EnergyScenario, circuit: ChargeCircuit,
                     rate_model: str = "normalized",
                     link: Optional[ChannelLink] = None) -> SolveReport:
    """Offline-optimal schedule under the selected rate model.

    The link-budget model folds the link gain into the solver's
    objective, so the schedule and trace are in watts and joules either
    way.
    """
    return solve(scenario, circuit, _snr_gain(rate_model, link))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Monte Carlo experiment point."""

    circuit: ChargeCircuit
    mean_epoch_length: float          # seconds
    mean_harvest: float               # joules per packet in the classic draw
    packet_count: int
    initial_energy: float             # joules at t = 0
    runs: int = 30
    seed: int = 0
    rate_model: str = "normalized"
    link: Optional[ChannelLink] = None

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.mean_epoch_length <= 0:
            raise ConfigError("mean_epoch_length must be > 0")
        if self.mean_harvest < 0:
            raise ConfigError("mean_harvest must be >= 0")
        if self.packet_count < 0:
            raise ConfigError("packet_count must be >= 0")
        if not 0 <= self.initial_energy:
            raise ConfigError("initial_energy must be >= 0")
        # classic_tunnel refuses an increment above the usable capacity,
        # so either of these fails every generation attempt
        cap = FULL_BATTERY_FRACTION * self.circuit.e_max
        if self.initial_energy > cap:
            raise ConfigError(f"initial_energy exceeds the usable capacity {cap} J")
        if self.packet_count and self.mean_harvest * (1.0 - UNIFORM_HALFWIDTH) > cap:
            raise ConfigError(f"every harvest draw exceeds the usable capacity {cap} J")


def _uniform_about(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    if mean == 0.0:
        return np.zeros(size)
    return rng.uniform(mean * (1.0 - UNIFORM_HALFWIDTH),
                       mean * (1.0 + UNIFORM_HALFWIDTH), size)


def generate_scenario(config: ExperimentConfig, rng: np.random.Generator):
    """Draw one scenario by the reverse-order tunnel construction.

    Step 1: draw classic per-packet harvests and epoch lengths, build
    the fixed tunnel, schedule the taut string through it and record the
    residual it leaves before each arrival.  Step 2: invert the charge
    curve to get the packet charge duration that captures exactly the
    drawn harvest from that residual.  Step 3: package as a scenario.
    Draws that cannot be inverted (battery-filling harvests) are
    redrawn, up to a bounded number of attempts.

    Returns:
        (EnergyScenario, tuple of the classic per-packet harvests)
    """
    n = config.packet_count
    circuit = config.circuit
    tau, e_max, root_e_max = circuit.tau, circuit.e_max, math.sqrt(circuit.e_max)
    failures = []
    for _ in range(GENERATION_RETRIES):
        lengths = _uniform_about(rng, config.mean_epoch_length, n + 1)
        harvests = _uniform_about(rng, config.mean_harvest, n)
        arrivals = np.cumsum(lengths[:-1])
        deadline = float(np.sum(lengths))
        try:
            tunnel = classic_tunnel(config.initial_energy, arrivals, harvests,
                                    deadline, circuit)
            schedule = tight_string_schedule(tunnel)
            # Residuals the taut string leaves at each arrival, computed
            # with exactly the replay's sequential arithmetic: the charge
            # curve's slope is infinite at zero residual, so the bound
            # touches (residual exactly 0) must agree bit for bit or the
            # round trip drifts.
            epoch_lengths = schedule.epoch_lengths.tolist()
            durations = []
            stored = config.initial_energy
            for i, drawn in enumerate(harvests.tolist()):
                residual = max(0.0, stored - schedule.powers[i] * epoch_lengths[i])
                duration = packet_length_for(residual, drawn, circuit)
                durations.append(duration)
                stored = residual + _harvest_step(_charge_map(duration, tau), e_max,
                                                  root_e_max, residual)
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


def evaluate_strategy(name: str, scenario: EnergyScenario, classic_harvests,
                       config: ExperimentConfig):
    """(trace, bits) of one named strategy on one scenario."""
    circuit, rate_model, link = config.circuit, config.rate_model, config.link
    if name == "optimal":
        report = optimal_schedule(scenario, circuit, rate_model, link)
        policy = report.schedule
    elif name == "max_harvest":
        policy = max_harvest_schedule(scenario, circuit)
    elif name == "tight_string":
        tunnel = classic_tunnel(scenario.initial_energy, scenario.arrival_times,
                                classic_harvests, scenario.deadline, circuit)
        policy = tight_string_schedule(tunnel)
    elif name == "online":
        policy = OnlinePredictivePolicy(prior_length=float(np.mean(scenario.packet_lengths))
                                        if scenario.n_packets else 0.0,
                                        prior_gap=config.mean_epoch_length)
    elif name == "zero":
        policy = TransmissionSchedule(powers=(0.0,) * (scenario.n_packets + 1),
                                      epoch_bounds=tuple(scenario.epoch_bounds))
    else:
        raise ValueError(f"unknown strategy {name!r}")
    return replay(policy, scenario, circuit, rate_model, link)


STRATEGIES = ("optimal", "max_harvest", "tight_string", "online", "zero")


def monte_carlo(config: ExperimentConfig,
                strategies: Sequence[str] = ("optimal", "max_harvest", "tight_string"),
                sweep_axis: Optional[str] = None,
                sweep_values: Optional[Sequence[float]] = None) -> list:
    """Averaged strategy performance, optionally along a sweep axis.

    ``sweep_axis`` may be ``"mean_epoch_length"`` (arrival spacing is
    swept while the drawn harvest scales along with it, keeping the
    energy density constant; the initial battery charge stays fixed) or
    ``"capacitance"``.  Every run owns an RNG stream derived from
    (seed, run index), so the same run index sees the same underlying
    draws at every sweep point and the result table is reproducible row
    by row.

    Returns a list of row dicts, one per (sweep value, strategy).
    """
    for name in strategies:
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}")
    if sweep_axis is None:
        points = [(None, config)]
    elif sweep_axis == "mean_epoch_length":
        # Scaling the drawn harvest along with the arrival spacing keeps
        # the energy density (joules arriving per second) constant; the
        # battery's initial charge is state, not arrival process, and
        # stays fixed.
        scale_base = config.mean_epoch_length
        points = [
            (value, replace(
                config,
                mean_epoch_length=value,
                mean_harvest=config.mean_harvest * value / scale_base,
            ))
            for value in sweep_values
        ]
    elif sweep_axis == "capacitance":
        points = [
            (value, replace(config, circuit=ChargeCircuit(
                resistance=config.circuit.resistance,
                capacitance=value,
                v_max=config.circuit.v_max,
            )))
            for value in sweep_values
        ]
    else:
        raise ValueError(f"unknown sweep axis {sweep_axis!r}")

    rows = []
    for value, point in points:
        bits_per_s = {name: [] for name in strategies}
        harvested = {name: [] for name in strategies}
        te_over_tau = []
        for run in range(point.runs):
            rng = np.random.default_rng([point.seed, run])
            scenario, classic = generate_scenario(point, rng)
            if scenario.n_packets:
                te_over_tau.append(float(np.mean(scenario.packet_lengths))
                                   / point.circuit.tau)
            for name in strategies:
                trace, bits = evaluate_strategy(name, scenario, classic, point)
                bits_per_s[name].append(bits / scenario.deadline)
                harvested[name].append(trace.total_harvested)
        for name in strategies:
            rows.append({
                "sweep_axis": sweep_axis or "",
                "sweep_value": value if value is not None else "",
                "strategy": name,
                "mean_te_over_tau": float(np.mean(te_over_tau)) if te_over_tau else 0.0,
                "mean_throughput": float(np.mean(bits_per_s[name])),
                "std_throughput": float(np.std(bits_per_s[name])),
                "mean_harvested": float(np.mean(harvested[name])),
                "std_harvested": float(np.std(harvested[name])),
                "runs": point.runs,
                "seed": point.seed,
            })
    return rows


def future_impact_probe(scenario: EnergyScenario, circuit: ChargeCircuit,
                        d: int, delta_length: float, delta_packet: float,
                        rate_model: str = "normalized",
                        link: Optional[ChannelLink] = None) -> float:
    """Relative change of the current epoch's optimal power when a
    future arrival is perturbed.

    The arrival ``d`` packets ahead has its charge duration extended by
    ``delta_packet`` seconds and the epoch that follows it stretched by
    ``delta_length`` seconds (shifting all later arrivals and the
    deadline along).  Returns |p1' - p1| / p1 for the first epoch.
    """
    n = scenario.n_packets
    if not 1 <= d <= n:
        raise ValueError(f"d must lie in [1, {n}], got {d}")
    packets = []
    for idx, (arrival, duration) in enumerate(scenario.packets, start=1):
        if idx == d:
            duration = duration + delta_packet
        if idx > d:
            arrival = arrival + delta_length
        packets.append((arrival, duration))
    try:
        perturbed = EnergyScenario(
            initial_energy=scenario.initial_energy,
            packets=tuple(packets),
            deadline=scenario.deadline + delta_length,
        )
    except ValueError as exc:
        raise ValueError(f"perturbation makes the scenario invalid: {exc}") from exc
    base = optimal_schedule(scenario, circuit, rate_model, link)
    shifted = optimal_schedule(perturbed, circuit, rate_model, link)
    p1 = base.schedule.powers[0]
    if p1 == 0.0:
        raise ValueError("current-epoch power is zero; relative change undefined")
    return abs(shifted.schedule.powers[0] - p1) / p1
