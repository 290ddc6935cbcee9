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
There is one draw, over a batch of generators, whose failed runs retry
as a smaller batch.  ``generate_scenario`` is a batch of one; a Monte
Carlo point and every seeded CLI loop draw run k from
``default_rng([seed, k])``, all runs in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .charge import ChargeCircuit, _charge_durations
from .exceptions import ConfigError, GenerationError, InfeasibleError, SolverError
from .scheduling import (
    EnergyScenario,
    HarvestTrace,
    SolveReport,
    TransmissionSchedule,
    _solve_batch,
    solve,
)
from . import strategies
from .strategies import (
    OnlinePredictivePolicy,
    _taut_string,
    classic_tunnel,
    max_harvest_schedule,
    tight_string_schedule,
)

__all__ = [
    "ChannelLink",
    "ExperimentConfig",
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

    Must be wider than the rounding of a solver schedule's spend, which
    takes each epoch's store down to the solver's residual only up to a
    few ulps of the store, so that replaying an optimal schedule never
    clamps.
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
    with a ``power(now, stored, count, total, deadline, circuit)`` method
    that is queried once per epoch, at its start, with running
    statistics of the packets observed so far: in epoch i, ``count`` is
    the int i and ``total`` the sum of the first i charge durations,
    added left to right as the packets arrive.  Epoch i starts at the
    i-th arrival (t = 0 for i = 0), so ``now`` is the last arrival seen.
    Consumption that would drive the store negative is clamped to what
    is available and the epoch is flagged rather than raising: the
    conventional baseline plans on energies it will not actually
    receive, and that shortfall is part of what the comparison
    measures.

    The scenario's packets are read once as Python floats, and each
    arrival's charge map and harvest are taken inline, in the operations
    of :func:`~rfharvest.charge.harvested_energy`, so the walk makes no
    call per epoch besides an online policy's.

    Returns:
        (HarvestTrace, throughput in bits under the active rate model,
        summed as log1p(g p) / ln 2 like
        :func:`~rfharvest.scheduling.throughput`)
    """
    if scenario.initial_energy > circuit.e_max:
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    packets = scenario.packets
    n = len(packets)
    fixed_powers = policy.powers if isinstance(policy, TransmissionSchedule) else None
    if fixed_powers is not None and len(fixed_powers) != n + 1:
        raise ValueError("schedule has a different number of epochs than the scenario")

    gain = _snr_gain(rate_model, link)
    slack = _clamp_slack(circuit)
    tau, e_max, deadline = circuit.tau, circuit.e_max, scenario.deadline
    root_e_max = math.sqrt(e_max)
    sqrt, log1p, expm1, exp, inf = math.sqrt, math.log1p, math.expm1, math.exp, math.inf
    stored, start, total = scenario.initial_energy, 0.0, 0.0
    residuals, harvested, consumed, clamped, nats = [], [], [], [], 0.0
    # the deadline closes the last epoch; its duration is never read
    for i, (end, duration) in enumerate((*packets, (deadline, 0.0))):
        length = end - start
        if fixed_powers is not None:
            power = fixed_powers[i]
        else:
            power = policy.power(start, stored, i, total, deadline, circuit)
            total += duration
        if not 0 <= power < inf:
            raise ValueError(f"policy produced a negative or non-finite power "
                             f"in epoch {i + 1}")
        spend = power * length
        if spend > stored + slack:
            # Genuinely consuming energy it does not have: cut to the
            # store (>= 0, as the carry is floored) and flag.  Overshoots
            # inside the slack band are kept as is (residual dips a hair
            # below zero) so that replaying a solver schedule, whose last
            # epoch drains the store up to rounding, is not flagged.
            clamped.append(True)
            spend = stored
            power = spend / length
        else:
            clamped.append(False)
        residual = stored - spend
        consumed.append(spend)
        residuals.append(residual)
        nats += 0.5 * length * log1p(power * gain)
        if i < n:
            # The physical store lies in [0, e_max]; the recorded residual
            # keeps any roundoff-scale dip for trace fidelity, but the
            # carry is floored so exact bound touches stay exact, and
            # capped so a full store that rounds above e_max stays full.
            carried = 0.0 if residual < 0.0 else residual
            x = -duration / tau
            q, s = -expm1(x), exp(x)
            u = sqrt(carried)
            harvest = q * (root_e_max - u) * (root_e_max * q + (1.0 + s) * u)
            full = q * (e_max - carried)
            if full < harvest:
                harvest = full
            harvested.append(harvest)
            stored = carried + harvest
            if e_max < stored:
                stored = e_max
        start = end
    trace = HarvestTrace(residuals=residuals, harvested=harvested, consumed=consumed,
                         clamped=clamped)
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
        if not 0 < self.mean_epoch_length < math.inf:
            raise ConfigError("mean_epoch_length must be finite and > 0")
        if not 0 <= self.mean_harvest < math.inf:
            raise ConfigError("mean_harvest must be finite and >= 0")
        if self.packet_count < 0:
            raise ConfigError("packet_count must be >= 0")
        if not 0 <= self.initial_energy:
            raise ConfigError("initial_energy must be >= 0")
        # the tunnel refuses an increment above the usable capacity, so
        # either of these fails every generation attempt
        cap = strategies.FULL_BATTERY_FRACTION * self.circuit.e_max
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
    the fixed tunnel, pull the taut string through it and record the
    residual it leaves before each arrival.  Step 2: invert the charge
    curve to get the packet charge duration that captures exactly the
    drawn harvest from that residual.  Step 3: package as a scenario.
    Draws that cannot be inverted (battery-filling harvests) are
    redrawn, up to ``GENERATION_RETRIES`` attempts.  This is the draw a
    Monte Carlo point makes of each run, on a batch of one generator.

    Returns:
        (EnergyScenario, tuple of the classic per-packet harvests)
    """
    return _draw(config, [rng])[0]


def _draw_scenarios(config: ExperimentConfig, count: int) -> list:
    """The draws of ``count`` runs, run k from ``default_rng([seed, k])``."""
    return _draw(config, [np.random.default_rng([config.seed, k]) for k in range(count)])


def _draw(config: ExperimentConfig, rngs) -> list:
    """One (scenario, classic harvests) per generator.

    The runs that have no scenario yet retry as one batch, up to
    ``GENERATION_RETRIES`` attempts in all.  Then the lowest-index run
    still without one raises the GenerationError naming its last failure.
    """
    drawn = [None] * len(rngs)      # each run's scenario, or its last failure
    pending = list(range(len(rngs)))
    for _ in range(GENERATION_RETRIES):
        if not pending:
            break
        for k, outcome in zip(pending, _attempt(config, [rngs[k] for k in pending])):
            drawn[k] = outcome
        pending = [k for k in pending if isinstance(drawn[k], str)]
    if pending:
        raise GenerationError(
            f"no feasible scenario in {GENERATION_RETRIES} attempts; "
            f"last failure: {drawn[pending[0]] or 'none'}"
        )
    return drawn


def _attempt(config: ExperimentConfig, rngs) -> list:
    """One attempt per generator, as a batch: per run, its (scenario,
    classic harvests) or the text of the first test it failed.

    Each generator draws its epoch lengths, then its harvests.  The
    tunnels and their tests are (runs, N) arrays, with the arithmetic and
    the texts of ``classic_tunnel`` and ``ClassicTunnel``; each run that
    passes goes through the funnel scan, then the inversion walk
    ``charge._charge_durations``, whose ``InfeasibleError`` text it keeps.
    """
    n = config.packet_count
    circuit = config.circuit
    # classic_tunnel's cap, read at call time as it reads it
    cap = strategies.FULL_BATTERY_FRACTION * circuit.e_max
    initial = config.initial_energy
    count = len(rngs)
    lengths = np.array([_uniform_about(rng, config.mean_epoch_length, n + 1)
                        for rng in rngs])
    harvests = np.array([_uniform_about(rng, config.mean_harvest, n) for rng in rngs])

    arrivals = np.cumsum(lengths[:, :-1], axis=1)
    deadlines = lengths.sum(axis=1)
    cumulative = np.cumsum(np.concatenate((np.full((count, 1), initial), harvests), axis=1),
                           axis=1)
    upper, total = cumulative[:, :-1], cumulative[:, -1:]
    over = cumulative[:, 1:] - cap
    lower = np.where(over > 0.0, over, 0.0)
    tests = (   # in classic_tunnel's order; with no packets, no arrival fails
        (((arrivals[:, -1:] >= deadlines[:, None]) | (arrivals <= 0)).any(axis=1),
         "arrivals must lie strictly inside (0, deadline)"),
        ((harvests > cap).any(axis=1) | (initial > cap),
         "an energy increment exceeds the usable battery capacity"),
        (deadlines <= 0, "tunnel deadline must be > 0"),
        ((lower > upper).any(axis=1), "tunnel is empty: lower bound exceeds upper bound"),
        ((np.diff(upper, axis=1) < 0).any(axis=1), "upper bound must be non-decreasing"),
    )
    flags = np.array([flag for flag, _ in tests])
    failed = flags.any(axis=0)
    # the first test a run fails names its failure
    reasons = [tests[first][1] if fails else None
               for first, fails in zip(flags.argmax(axis=0).tolist(), failed.tolist())]

    # tight_string_schedule, with the powers of every run in one division
    zeros = np.zeros((count, 1))
    bounds = np.concatenate((zeros, arrivals, deadlines[:, None]), axis=1)
    epoch_lengths = np.diff(bounds, axis=1)
    # a failed run spends nothing, whatever its epochs
    epoch_lengths[failed] = 1.0
    gates = zip(bounds.tolist(), np.concatenate((zeros, lower, total), axis=1).tolist(),
                np.concatenate((zeros, upper, total), axis=1).tolist())
    drained = np.zeros((count, n + 2))    # the string's height at each bound
    for k, (xs, los, his) in enumerate(gates):
        if reasons[k] is None:
            vertices = _taut_string(xs, los, his)
            drained[k] = np.interp(xs, [v[0] for v in vertices], [v[1] for v in vertices])
    # The inversion carries the store with exactly the replay's arithmetic,
    # power times length: the charge curve's slope is infinite at zero
    # residual, so the bound touches (residual exactly 0) must agree bit
    # for bit or the round trip drifts.
    spends = np.diff(drained, axis=1) / epoch_lengths * epoch_lengths

    outcomes = []
    for reason, times, spent, classic, deadline in zip(
            reasons, arrivals.tolist(), spends.tolist(), harvests.tolist(),
            deadlines.tolist()):
        if reason is None:
            try:
                durations = _charge_durations(initial, spent, classic, circuit)
            except InfeasibleError as exc:
                reason = str(exc)
        if reason is not None:
            outcomes.append(reason)
            continue
        scenario = EnergyScenario(initial_energy=initial,
                                  packets=tuple(zip(times, durations)),
                                  deadline=deadline)
        outcomes.append((scenario, tuple(classic)))
    return outcomes


def evaluate_strategy(name: str, scenario: EnergyScenario, classic_harvests,
                       config: ExperimentConfig):
    """(trace, bits) of replaying one named strategy on one scenario.

    ``"optimal"`` solves the scenario and replays the solved schedule.
    """
    circuit, rate_model, link = config.circuit, config.rate_model, config.link
    if name == "optimal":
        report = optimal_schedule(scenario, circuit, rate_model, link)
        policy = report.schedule
    elif name == "max_harvest":
        policy = max_harvest_schedule(scenario, circuit)
    elif name == "tight_string":
        # Python floats, not numpy scalars, for the funnel scan's arithmetic
        tunnel = classic_tunnel(scenario.initial_energy, [t for t, _ in scenario.packets],
                                classic_harvests, scenario.deadline, circuit)
        policy = tight_string_schedule(tunnel)
    elif name == "online":
        # nothing is known of the charge durations before the first
        # packet, so the policy parks at the short-packet optimum e_max/4
        policy = OnlinePredictivePolicy(prior_length=0.0, prior_gap=config.mean_epoch_length)
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

    Each point draws all its runs' scenarios first, as one batch that
    gives every run what :func:`generate_scenario` draws for it alone
    (from the same generator, bit for bit).  With ``"optimal"`` among the
    strategies, their optimal schedules are solved as one batch
    (the reports of solving each alone), and the optimal rows average the
    reports' own throughput and trace; every other strategy is replayed
    through :func:`evaluate_strategy`, once per run.  A scenario the
    solver fails on raises its SolverError.

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
        drawn = _draw_scenarios(point, point.runs)
        if "optimal" in strategies:
            solved = _solve_batch([scenario for scenario, _ in drawn], point.circuit,
                                  _snr_gain(point.rate_model, point.link))
        for run, (scenario, classic) in enumerate(drawn):
            if scenario.n_packets:
                te_over_tau.append(float(np.mean(scenario.packet_lengths))
                                   / point.circuit.tau)
            for name in strategies:
                if name == "optimal":
                    report = solved[run]
                    if isinstance(report, SolverError):
                        raise report
                    trace, bits = report.trace, report.throughput
                else:
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
