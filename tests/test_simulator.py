import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import forward_reference as ref
import rfharvest.charge as charge
import rfharvest.simulator as simulator
import rfharvest.strategies as strategies
from rfharvest import (
    ChannelLink,
    EnergyScenario,
    ExperimentConfig,
    GenerationError,
    OnlinePredictivePolicy,
    TransmissionSchedule,
    future_impact_probe,
    generate_scenario,
    harvest_sensitivity,
    harvested_energy,
    max_harvest_schedule,
    monte_carlo,
    optimal_residual,
    optimal_schedule,
    replay,
    solve,
)
from rfharvest.config import SweepConfig, experiment_config, load_config, parse_config
from rfharvest.exceptions import ConfigError
from rfharvest.simulator import UNIFORM_HALFWIDTH, evaluate_strategy
from rfharvest.strategies import FULL_BATTERY_FRACTION

from conftest import random_circuit

# Free-space path loss of the reference link, from 40-digit evaluation.
REFERENCE_FSPL = 49.734524087583378
REFERENCE_RATE_AT_0DBM = 18.02660630447913


def medium_config(circuit, **overrides):
    defaults = dict(circuit=circuit, mean_epoch_length=0.006, mean_harvest=0.03,
                    packet_count=6, initial_energy=0.05, runs=3, seed=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLinkBudget:
    def test_reference_link(self, reference_link):
        path_loss, noise_floor = reference_link.path_loss, reference_link.noise_floor
        assert path_loss == pytest.approx(REFERENCE_FSPL, abs=1e-10)
        assert abs(path_loss - 49.73) <= 0.01
        assert noise_floor == -104.0

    def test_unit_distance_and_frequency(self):
        link = ChannelLink(frequency=1.0, distance=1.0, bandwidth=1.0,
                           noise_density=-174.0)
        assert link.path_loss == pytest.approx(-147.55, abs=1e-12)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ChannelLink(frequency=0.0, distance=1.0, bandwidth=1.0,
                        noise_density=-174.0)

    @pytest.mark.parametrize("field, value", [
        ("frequency", math.nan), ("distance", math.inf), ("bandwidth", math.nan),
        ("noise_density", -math.inf),
        ("distance", 1e300),            # the SNR per watt underflows to 0
        ("noise_density", -1e6),        # and overflows
    ])
    def test_rejects_non_finite_fields_and_gains(self, field, value):
        fields = dict(frequency=2.4e9, distance=3.048, bandwidth=1.0e7, noise_density=-174.0)
        fields[field] = value
        with pytest.raises(ValueError):
            ChannelLink(**fields)

    def test_gain_is_set_once_from_its_formula(self, reference_link):
        def formula(link):
            return 10.0 ** ((30.0 - link.path_loss - link.noise_floor) / 10.0)
        assert repr(reference_link.gain) == repr(formula(reference_link))
        farther = dataclasses.replace(reference_link, distance=30.48)
        assert repr(farther.gain) == repr(formula(farther))
        assert farther.gain < reference_link.gain

    def test_gain_is_not_a_field(self, reference_link):
        values = dict(frequency=2.4e9, distance=3.048, bandwidth=1.0e7, noise_density=-174.0)
        twin = ChannelLink(**values)
        assert dataclasses.asdict(reference_link) == values
        assert repr(reference_link) == repr(twin) and "gain" not in repr(twin)
        assert reference_link == twin and hash(reference_link) == hash(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            reference_link.gain = 1.0


def rate(power_dbm, link):
    """Spectral efficiency in bits/s/Hz at a transmit power in dBm, through
    the link's SNR per watt."""
    return math.log2(1.0 + link.gain * 10.0 ** ((power_dbm - 30.0) / 10.0))


class TestRate:
    def test_unit_snr(self, reference_link):
        power_dbm = reference_link.path_loss + reference_link.noise_floor
        assert rate(power_dbm, reference_link) == 1.0

    def test_reference_value_at_0_dbm(self, reference_link):
        assert rate(0.0, reference_link) \
            == pytest.approx(REFERENCE_RATE_AT_0DBM, rel=1e-12)

    def test_vanishes_at_deep_fade(self, reference_link):
        assert rate(-500.0, reference_link) == pytest.approx(0.0, abs=1e-12)

    def test_gain_consistency(self, reference_link):
        # the gain in dB is 30 dBm per watt less the path loss and noise
        # floor, here against the 40-digit path loss
        assert 10.0 * math.log10(reference_link.gain) \
            == pytest.approx(30.0 - REFERENCE_FSPL + 104.0, rel=1e-12)


class TestReplay:
    def test_zero_power_only_grows(self, sim_circuit):
        s = EnergyScenario(initial_energy=0.01,
                           packets=((1.0, 30.0), (2.0, 30.0)), deadline=3.0)
        schedule = TransmissionSchedule(powers=(0.0,) * 3,
                                        epoch_bounds=tuple(s.epoch_bounds))
        trace, bits = replay(schedule, s, sim_circuit)
        assert bits == 0.0
        assert list(trace.residuals) == sorted(trace.residuals)
        from rfharvest import harvested_energy
        assert trace.harvested[0] == harvested_energy(0.01, 30.0, sim_circuit)

    def test_reproduces_solver_trace_exactly(self, bench_circuit):
        s = EnergyScenario(initial_energy=0.5,
                           packets=((10.0, 5.0), (20.0, 5.0)), deadline=30.0)
        report = solve(s, bench_circuit)
        trace, bits = replay(report.schedule, s, bench_circuit)
        assert max(abs(a - b) for a, b in
                   zip(trace.residuals, report.trace.residuals)) <= 1e-12
        assert not any(trace.clamped)
        assert bits == pytest.approx(report.throughput, abs=1e-12)

    def test_conservation_is_exact(self, sim_circuit):
        rng = np.random.default_rng(6)
        config = medium_config(sim_circuit)
        scenario, _ = generate_scenario(config, rng)
        schedule = TransmissionSchedule(
            powers=tuple(rng.uniform(0.0, 2.0, scenario.n_packets + 1)),
            epoch_bounds=tuple(scenario.epoch_bounds))
        trace, _ = replay(schedule, scenario, sim_circuit)
        for i in range(scenario.n_packets):
            stored = max(trace.residuals[i], 0.0) + trace.harvested[i]
            assert trace.residuals[i + 1] == stored - trace.consumed[i + 1]
            # harvested energy always fits into the battery headroom
            assert 0.0 <= trace.harvested[i] \
                <= sim_circuit.e_max - max(trace.residuals[i], 0.0)

    def test_overdraw_clamps_and_flags(self, sim_circuit):
        s = EnergyScenario(initial_energy=0.01, packets=((1.0, 5.0),), deadline=2.0)
        schedule = TransmissionSchedule(powers=(1.0, 0.0),
                                        epoch_bounds=(0.0, 1.0, 2.0))
        trace, _ = replay(schedule, s, sim_circuit)
        assert trace.clamped[0]
        assert trace.residuals[0] == 0.0
        assert trace.consumed[0] == 0.01

    def test_epoch_count_mismatch_rejected(self, sim_circuit):
        s = EnergyScenario(initial_energy=0.01, packets=(), deadline=2.0)
        schedule = TransmissionSchedule(powers=(0.0, 0.0),
                                        epoch_bounds=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            replay(schedule, s, sim_circuit)

    @pytest.mark.parametrize("power", [math.nan, -1e-3, math.inf])
    def test_nan_or_negative_schedule_power_rejected(self, sim_circuit, power):
        # _bits refuses the same powers; replay names the epoch
        s = EnergyScenario(initial_energy=0.01, packets=((1.0, 5.0),), deadline=2.0)
        schedule = TransmissionSchedule(powers=(0.0, power),
                                        epoch_bounds=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="epoch 2"):
            replay(schedule, s, sim_circuit)

    def test_nan_policy_power_rejected(self, sim_circuit):
        # an infinite power is refused too, not clamped as an overdraw
        class ConstantPolicy:
            def __init__(self, value):
                self.value = value

            def power(self, now, stored, count, total, deadline, circuit):
                return self.value

        s = EnergyScenario(initial_energy=0.01, packets=((1.0, 5.0),), deadline=2.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epoch 1"):
                replay(ConstantPolicy(value), s, sim_circuit)

    @pytest.mark.parametrize("packets", [0, 1])
    @pytest.mark.parametrize("spent", [0.0, 0.95])
    def test_store_above_e_max_is_refused(self, sim_circuit, packets, spent):
        # a 1 J store in a 0.156 J battery, refused with solve's message
        # whatever epoch 1 spends, with or without an arrival to take it
        s = EnergyScenario(initial_energy=1.0, packets=((1.0, 5.0),)[:packets],
                           deadline=2.0)
        bounds = tuple(s.epoch_bounds)
        schedule = TransmissionSchedule(powers=(spent / bounds[1],) + (0.0,) * packets,
                                        epoch_bounds=bounds)
        with pytest.raises(ValueError) as refused:
            solve(s, sim_circuit)
        for policy in (schedule, OnlinePredictivePolicy(prior_length=5.0, prior_gap=1.0)):
            with pytest.raises(ValueError) as replayed:
                replay(policy, s, sim_circuit)
            assert str(replayed.value) == str(refused.value)

    def test_full_store_is_accepted(self, sim_circuit):
        s = EnergyScenario(initial_energy=sim_circuit.e_max, packets=((1.0, 5.0),),
                           deadline=2.0)
        trace, _ = replay(TransmissionSchedule(powers=(0.0, 0.0), epoch_bounds=(0.0, 1.0, 2.0)),
                          s, sim_circuit)
        assert trace.harvested == (0.0,)


class TestReplayHarvest:
    """The harvest replay takes at each arrival equals harvested_energy
    bit for bit (compared through float.hex, which tells -0.0 from 0.0)."""

    IDLE = TransmissionSchedule(powers=(0.0, 0.0), epoch_bounds=(0.0, 1.0, 2.0))

    def harvest(self, residual, duration, circuit):
        """The harvest of one packet that arrives at an untouched store."""
        scenario = EnergyScenario(initial_energy=residual, packets=((1.0, duration),),
                                  deadline=2.0)
        trace, _ = replay(self.IDLE, scenario, circuit)
        assert trace.residuals[0].hex() == residual.hex()
        return trace.harvested[0]

    def test_matches_harvested_energy_bit_for_bit(self, bench_circuit, sim_circuit):
        rng = np.random.default_rng(8)
        circuits = [bench_circuit, sim_circuit] + [random_circuit(rng) for _ in range(6)]
        for circuit in circuits:
            e_max, tau = circuit.e_max, circuit.tau
            residuals = [0.0, -0.0, 5e-324, 1e-300, e_max,
                         np.nextafter(e_max, 0.0), optimal_residual(tau, circuit)]
            residuals += list(np.linspace(0.0, e_max, 41))
            residuals += list(rng.uniform(0.0, e_max, 40))
            durations = [0.0, tau, 1e4 * tau] + list(tau * rng.uniform(0.0, 5.0, 6))
            for duration in durations:
                for r in map(float, residuals):
                    want = harvested_energy(r, duration, circuit)
                    got = self.harvest(r, float(duration), circuit)
                    assert type(got) is float
                    assert got.hex() == want.hex(), (circuit, duration, r)

    def test_decay_underflow_is_the_full_charge_limit(self, sim_circuit):
        # exp(-1e4) underflows to 0: the charge map is (1, 0), and an
        # empty store fills to exactly e_max
        assert self.harvest(0.0, 1e4 * sim_circuit.tau, sim_circuit) == sim_circuit.e_max

    def test_domain_errors(self, bench_circuit):
        # a residual harvested_energy refuses never reaches a harvest:
        # the scenario refuses a negative or infinite store, and replay
        # one above e_max
        above = np.nextafter(bench_circuit.e_max, np.inf)
        for bad in (-5e-324, -0.1, above, bench_circuit.e_max * 1.001, np.inf):
            with pytest.raises(ValueError):
                harvested_energy(bad, 15.0, bench_circuit)
            with pytest.raises(ValueError):
                self.harvest(float(bad), 15.0, bench_circuit)


class TestGenerateScenario:
    def test_zero_harvest_means_zero_durations(self, sim_circuit):
        config = medium_config(sim_circuit, mean_harvest=0.0)
        scenario, string = generate_scenario(config, np.random.default_rng(1))
        assert all(d == 0.0 for d in scenario.packet_lengths)
        trace, _ = replay(string, scenario, config.circuit)
        assert all(h == 0.0 for h in trace.harvested)

    def test_round_trip_reproduces_classic_harvests(self, sim_circuit):
        config = medium_config(sim_circuit)
        for seed in range(20):
            scenario, string = generate_scenario(config, np.random.default_rng([13, seed]))
            classic = ref.draw(config, np.random.default_rng([13, seed]))[2]
            trace, _ = replay(string, scenario, sim_circuit)
            assert max(abs(h - c) for h, c in
                       zip(trace.harvested, classic)) <= 1e-9

    def test_deterministic_for_a_seed(self, sim_circuit):
        config = medium_config(sim_circuit)
        a, _ = generate_scenario(config, np.random.default_rng([9, 0]))
        b, _ = generate_scenario(config, np.random.default_rng([9, 0]))
        assert a == b

    def test_impossible_draws_exhaust_retries(self, sim_circuit):
        # all but a 1e-9 sliver of the harvest draws exceed the usable
        # capacity; the config itself could generate
        cap = FULL_BATTERY_FRACTION * sim_circuit.e_max
        config = medium_config(sim_circuit,
                               mean_harvest=(1.0 - 1e-9) * cap / (1.0 - UNIFORM_HALFWIDTH),
                               initial_energy=0.0)
        with pytest.raises(GenerationError):
            generate_scenario(config, np.random.default_rng(2))

    def test_tunnel_failures_keep_their_message(self, sim_circuit):
        # the config above: every attempt draws a harvest above the
        # usable capacity, which the classic tunnel refuses with this text
        cap = FULL_BATTERY_FRACTION * sim_circuit.e_max
        config = medium_config(sim_circuit,
                               mean_harvest=(1.0 - 1e-9) * cap / (1.0 - UNIFORM_HALFWIDTH),
                               initial_energy=0.0)
        with pytest.raises(GenerationError) as drawn:
            generate_scenario(config, np.random.default_rng(2))
        with pytest.raises(GenerationError) as reference:
            ref.generate_scenario(config, np.random.default_rng(2))
        assert str(drawn.value) == str(reference.value) == (
            "no feasible scenario in 100 attempts; last failure: "
            "an energy increment exceeds the usable battery capacity")

    def test_configs_that_never_generate_are_refused(self, sim_circuit):
        # every harvest draw, or the initial charge, exceeds the usable
        # capacity, so no attempt could succeed
        cap = FULL_BATTERY_FRACTION * sim_circuit.e_max
        with pytest.raises(ConfigError, match="every harvest draw"):
            medium_config(sim_circuit, mean_harvest=2.0 * sim_circuit.e_max,
                          initial_energy=0.0)
        with pytest.raises(ConfigError, match="initial_energy"):
            medium_config(sim_circuit, initial_energy=np.nextafter(cap, 1.0))
        # no packets, no harvest draws
        medium_config(sim_circuit, mean_harvest=2.0 * sim_circuit.e_max, packet_count=0)

    @pytest.mark.parametrize("module, name, value, mean_harvest, failure", [
        (charge, "MAX_CHARGE_TIME_CONSTANTS", 0.01, 0.03,
         "charge duration 83.6 s exceeds 0.01 time constants"),
        # a tunnel that lets the store past e_max
        (strategies, "FULL_BATTERY_FRACTION", 4.0, 0.2,
         "cannot charge to 0.2097980941030983 J: capacity is 0.15625 J "
         "and a full charge takes infinite time"),
    ], ids=["too_long", "full_charge"])
    def test_inversion_failures_keep_their_messages(self, sim_circuit, monkeypatch, module,
                                                    name, value, mean_harvest, failure):
        # every attempt fails the charge-curve inversion; the texts are
        # those packet_length_for gave when the draw called it per packet
        config = medium_config(sim_circuit, mean_harvest=mean_harvest)
        monkeypatch.setattr(module, name, value)
        with pytest.raises(GenerationError) as exc:
            generate_scenario(config, np.random.default_rng([5, 0]))
        assert str(exc.value) == ("no feasible scenario in 100 attempts; "
                                  f"last failure: {failure}")

    def test_negative_seed_is_refused(self, sim_circuit):
        # monte_carlo would end in numpy's "expected non-negative integer"
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            medium_config(sim_circuit, seed=-1)
        assert monte_carlo(medium_config(sim_circuit, seed=0, runs=2), ("zero",))

    @pytest.mark.parametrize("field", ["runs", "packet_count", "seed"])
    @pytest.mark.parametrize("value", [True, 2.5, 2.0, "2"])
    def test_counts_refuse_what_is_not_an_integer(self, sim_circuit, field, value):
        # runs=True reached the sweep rows as "runs: True", and a fraction
        # ended in a numpy or range TypeError
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            medium_config(sim_circuit, **{field: value})

    def test_numpy_counts_are_stored_as_ints(self, sim_circuit):
        config = medium_config(sim_circuit, runs=np.int64(2), packet_count=np.int32(3),
                               seed=np.uint8(4))
        assert [(type(v), v) for v in (config.runs, config.packet_count, config.seed)] == [
            (int, 2), (int, 3), (int, 4)]

    @pytest.mark.parametrize("field", ["mean_epoch_length", "mean_harvest"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_draw_means_are_refused(self, sim_circuit, field, value):
        # numpy's uniform draw would fail with an OverflowError instead
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            medium_config(sim_circuit, **{field: value})

    @pytest.mark.parametrize("value", [1.5e308, 2.0e307])
    def test_overflowing_draw_horizon_is_refused(self, sim_circuit, value):
        # seven epochs of up to the mean times 1 + UNIFORM_HALFWIDTH could
        # add up past the largest float: at 1.5e308 numpy's uniform draw
        # raises OverflowError, and at N = 8 a 2e307 draw's deadline is inf
        with pytest.raises(ConfigError, match="mean_epoch_length .* overflow"):
            medium_config(sim_circuit, mean_epoch_length=value)
        medium_config(sim_circuit, mean_epoch_length=value / 7.0 / (1.0 + UNIFORM_HALFWIDTH)
                      / (1.0 + 1e-15))


def reference_maps(scenario, tau):
    """Each packet's charge map as ``charge._charge_map`` gives it, for
    comparison through ``repr`` (which tells every distinct double apart)."""
    return [charge._charge_map(d, tau) for _, d in scenario.packets]


class TestChargeMapMemo:
    """A scenario computes its packets' charge maps once per tau, and its
    draw seeds them; every reader gets them bit for bit as
    ``charge._charge_map`` gives them."""

    def test_the_draw_seeds_the_maps(self, sim_circuit):
        for config in (medium_config(sim_circuit), medium_config(sim_circuit, packet_count=64)):
            for scenario, _ in simulator._draw_scenarios(config, 5):
                # seeded, before anything reads them
                assert list(scenario._charge_memo) == [sim_circuit.tau]
                assert repr(scenario._maps(sim_circuit.tau)) == repr(
                    reference_maps(scenario, sim_circuit.tau))

    def test_the_inversion_hands_out_its_maps(self, sim_circuit):
        durations, maps = charge._charge_durations(
            0.05, [0.01, 0.2, 0.0], [0.02, 0.0, 0.03], sim_circuit)
        assert repr(maps) == repr([charge._charge_map(d, sim_circuit.tau) for d in durations])
        assert maps[1] == (0.0, 1.0)    # a zero harvest takes a zero-length packet

    def test_zero_length_draws(self, sim_circuit):
        scenario, _ = generate_scenario(medium_config(sim_circuit, mean_harvest=0.0),
                                        np.random.default_rng(1))
        assert repr(scenario._maps(sim_circuit.tau)) == repr([(0.0, 1.0)] * 6)

    def test_hand_built_scenarios_fill_lazily(self, sim_circuit):
        tau = sim_circuit.tau
        # zero-length packets and a flat map, 1e4 tau long
        scenario = EnergyScenario(initial_energy=0.05,
                                  packets=((1.0, 0.0), (2.0, 1e4 * tau), (3.0, 0.3 * tau),
                                           (4.0, 0.0)),
                                  deadline=5.0)
        assert scenario._charge_memo == {}
        maps = scenario._maps(tau)
        assert repr(maps) == repr(reference_maps(scenario, tau))
        assert maps[0] == maps[3] == (0.0, 1.0)
        assert maps[1] == (1.0, 0.0)
        assert scenario._maps(tau) is maps
        assert list(scenario._charge_memo) == [tau]

    def test_two_time_constants_get_two_map_sets(self, sim_circuit):
        other = dataclasses.replace(sim_circuit, capacitance=0.12)
        config = medium_config(sim_circuit)
        scenario, string = generate_scenario(config, np.random.default_rng([4, 0]))
        results = []
        for circuit in (sim_circuit, other, sim_circuit):
            results.append(repr((solve(scenario, circuit),
                                 replay(string, scenario, circuit),
                                 replay(max_harvest_schedule(scenario, circuit), scenario,
                                        circuit))))
        assert results[0] == results[2]
        assert sorted(scenario._charge_memo) == sorted([sim_circuit.tau, other.tau])
        for circuit in (sim_circuit, other):
            assert repr(scenario._maps(circuit.tau)) == repr(
                reference_maps(scenario, circuit.tau))
        # each set gives what a scenario without a memo gives
        fresh = EnergyScenario(scenario.initial_energy, scenario.packets, scenario.deadline)
        assert results[1] == repr((solve(fresh, other), replay(string, fresh, other),
                                   replay(max_harvest_schedule(fresh, other), fresh, other)))

    def test_greedy_targets_are_the_optimal_residuals(self, sim_circuit):
        drawn, _ = generate_scenario(medium_config(sim_circuit), np.random.default_rng(3))
        built = EnergyScenario(initial_energy=0.0,
                               packets=((1.0, 0.0), (2.0, 1e4 * sim_circuit.tau)),
                               deadline=3.0)
        for scenario in (drawn, built):
            targets = max_harvest_schedule(scenario, sim_circuit).targets
            assert repr(targets) == repr(tuple(optimal_residual(d, sim_circuit)
                                               for d in scenario.packet_lengths.tolist()))
        assert targets == (sim_circuit.e_max / 4.0, 0.0)

    def test_the_memo_is_not_a_field(self, sim_circuit):
        scenario, _ = generate_scenario(medium_config(sim_circuit), np.random.default_rng(2))
        fresh = EnergyScenario(scenario.initial_energy, scenario.packets, scenario.deadline)
        assert scenario._charge_memo and not fresh._charge_memo
        assert [f.name for f in dataclasses.fields(scenario)] == [
            "initial_energy", "packets", "deadline"]
        assert scenario == fresh and hash(scenario) == hash(fresh)
        assert repr(scenario) == repr(fresh)
        assert dataclasses.asdict(scenario) == dataclasses.asdict(fresh)
        # a replaced scenario starts an empty memo, of its own packets
        same = dataclasses.replace(scenario)
        assert same == scenario and same._charge_memo == {}
        shifted = dataclasses.replace(scenario, packets=[(t, 2.0 * d) for t, d in
                                                         scenario.packets])
        assert shifted._charge_memo == {}
        assert repr(shifted._maps(sim_circuit.tau)) == repr(
            reference_maps(shifted, sim_circuit.tau))


def assert_as_public(record):
    """Every field of ``record`` is an exact float or a tuple of exact
    floats, bools or float pairs, and the record equals, reprs and hashes
    as what its public constructor builds from the same fields."""
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    for value in values:
        items = value if type(value) is tuple else (value,)
        for item in items:
            entries = item if type(item) is tuple else (item,)
            assert {type(x) for x in entries} <= {float, bool}, repr(item)
    public = type(record)(*values)
    assert public == record
    assert repr(public) == repr(record)
    assert hash(public) == hash(record)


class ConstantPolicy:
    """Transmits ``value`` in every epoch, and notes the type of each
    store it is handed."""

    def __init__(self, value):
        self.value, self.stores = value, []

    def power(self, now, stored, count, total, deadline, circuit):
        self.stores.append(type(stored))
        return self.value


class TestPackageRecords:
    """The scenarios, schedules and traces the draw, replay and the batch
    solve build from their own floats are the records the public
    constructors build from the same fields."""

    @pytest.mark.parametrize("n", [0, 1, 8, 256])
    def test_drawn_scenarios_and_tight_strings(self, sim_circuit, n):
        for scenario, string in simulator._draw_scenarios(medium_config(sim_circuit,
                                                                        packet_count=n), 3):
            assert_as_public(scenario)
            assert_as_public(string)
            assert list(scenario._charge_memo) == [sim_circuit.tau]

    @pytest.mark.parametrize("n", [0, 1, 8, 256])
    def test_replays_of_every_strategy(self, sim_circuit, reference_link, n):
        for rate_model in ("normalized", "link-budget"):
            config = medium_config(sim_circuit, packet_count=n, rate_model=rate_model,
                                   link=reference_link)
            for scenario, string in simulator._draw_scenarios(config, 2):
                for name in simulator.STRATEGIES:
                    trace, bits = evaluate_strategy(name, scenario, string, config)
                    assert type(bits) is float
                    assert len(trace.clamped) == n + 1
                    assert_as_public(trace)

    @pytest.mark.parametrize("n", [0, 1, 8, 256])
    def test_lone_and_joined_solve_reports(self, sim_circuit, n):
        scenarios = [s for s, _ in simulator._draw_scenarios(medium_config(sim_circuit,
                                                                           packet_count=n), 3)]
        joined = simulator._solve_batch(scenarios, sim_circuit)
        lone = [simulator._solve_batch([s], sim_circuit)[0] for s in scenarios]
        for report in (*joined, *lone):
            assert type(report.throughput) is float
            assert report.trace.clamped == ()
            assert_as_public(report.schedule)
            assert_as_public(report.trace)

    @pytest.mark.parametrize("value", [1, np.float64(0.0625), np.array(0.0625)],
                             ids=["int", "numpy_float", "0d_array"])
    def test_policy_numbers_become_floats(self, sim_circuit, value):
        scenario = EnergyScenario(initial_energy=0.1, packets=((1.0, 50.0), (2.0, 0.0)),
                                  deadline=3.0)
        policy = ConstantPolicy(value)
        trace, bits = replay(policy, scenario, sim_circuit)
        assert type(bits) is float
        assert policy.stores == [float] * 3
        assert_as_public(trace)
        assert repr((trace, bits)) == repr(replay(ConstantPolicy(float(value)), scenario,
                                                  sim_circuit))

    def test_zero_length_epochs_are_redrawn(self, sim_circuit, monkeypatch):
        config = medium_config(sim_circuit)
        draw = simulator._uniform_about
        attempts = []

        def middle_epoch_empty(rng, mean, size):
            values = draw(rng, mean, size)
            if mean == config.mean_epoch_length and len(attempts) < limit:
                attempts.append(size)
                values[size // 2] = 0.0
            return values

        monkeypatch.setattr(simulator, "_uniform_about", middle_epoch_empty)
        # every attempt draws two equal arrivals
        limit = math.inf
        with pytest.raises(GenerationError) as exc:
            generate_scenario(config, np.random.default_rng([5, 0]))
        assert str(exc.value) == ("no feasible scenario in 100 attempts; last failure: "
                                  "arrivals must lie strictly inside (0, deadline)")
        # the first attempt does; the second draws a scenario
        attempts, limit = [], 1
        scenario, string = generate_scenario(config, np.random.default_rng([5, 0]))
        assert attempts == [7]
        assert_as_public(scenario)
        assert_as_public(string)


def lone_draws(config, count, generate=generate_scenario):
    """Each run drawn alone, run k from ``default_rng([seed, k])``."""
    return [generate(config, np.random.default_rng([config.seed, run]))
            for run in range(count)]


def first_attempt_fails(config, run):
    """Whether a lone draw of the run took more than one attempt: one
    attempt leaves the generator just after its two uniform draws."""
    used = np.random.default_rng([config.seed, run])
    generate_scenario(config, used)
    once = np.random.default_rng([config.seed, run])
    once.uniform(size=config.packet_count + 1)
    once.uniform(size=config.packet_count)
    return used.bit_generator.state != once.bit_generator.state


class TestDrawScenarios:
    """A Monte Carlo point draws its runs as one batch; every run gets
    what a lone generate_scenario call returns."""

    @staticmethod
    def assert_drawn_alone(config, count, drawn):
        alone = lone_draws(config, count)
        assert drawn == alone
        # bit for bit: repr tells -0.0 from 0.0
        assert repr(drawn) == repr(alone)
        assert drawn == lone_draws(config, count, ref.generate_scenario)

    @pytest.mark.parametrize("axis", ["mean_epoch_length", "capacitance"])
    def test_reference_sweep_points(self, monkeypatch, axis):
        # the points monte_carlo builds for fig5 (and, on the first axis,
        # fig6); each point draws its runs as one batch, not run by run
        point = experiment_config(parse_config({}))
        values = {"mean_epoch_length": SweepConfig().epoch_lengths,
                  "capacitance": SweepConfig().capacitances}[axis]
        batches, lone_calls = [], []

        def recorded(config, count):
            drawn = draw(config, count)
            batches.append((config, count, drawn))
            return drawn

        draw = simulator._draw_scenarios
        monkeypatch.setattr(simulator, "_draw_scenarios", recorded)
        monkeypatch.setattr(simulator, "generate_scenario",
                            lambda *args: lone_calls.append(args))
        monte_carlo(point, ("zero",), axis, values)
        assert len(batches) == len(values)
        assert lone_calls == []
        for config, count, drawn in batches:
            assert count == point.runs
            self.assert_drawn_alone(config, count, drawn)

    @pytest.mark.parametrize("overrides", [
        dict(packet_count=0),
        dict(packet_count=1024, runs=8),
        dict(mean_harvest=0.0),
        # the inverse is 0 / 0 at every arrival
        dict(mean_harvest=0.0, initial_energy=0.0),
    ], ids=["no_packets", "baselines_point", "no_harvest", "no_harvest_empty_store"])
    def test_edge_points(self, sim_circuit, overrides):
        config = medium_config(sim_circuit, **{"runs": 5, **overrides})
        self.assert_drawn_alone(config, config.runs,
                                simulator._draw_scenarios(config, config.runs))

    @pytest.mark.parametrize("case", ["tunnel", "inversion"])
    def test_failed_first_attempts_are_drawn_alone(self, sim_circuit, monkeypatch, case):
        if case == "tunnel":
            # some harvest draws exceed the usable capacity
            cap = FULL_BATTERY_FRACTION * sim_circuit.e_max
            config = medium_config(sim_circuit, mean_harvest=0.8 * cap, packet_count=3,
                                   runs=30)
        else:
            # some charge durations exceed the (lowered) limit, which the
            # batch and the lone draws read through one inversion walk
            monkeypatch.setattr(charge, "MAX_CHARGE_TIME_CONSTANTS", 0.6)
            config = medium_config(sim_circuit, packet_count=3, runs=12)
        failing = [run for run in range(config.runs) if first_attempt_fails(config, run)]
        assert 0 < len(failing) < config.runs
        # the failed runs retry in the batch and still get their lone draws
        self.assert_drawn_alone(config, config.runs,
                                simulator._draw_scenarios(config, config.runs))

    def test_exhausted_retries_raise_the_lone_error(self, sim_circuit):
        # the config of test_impossible_draws_exhaust_retries
        cap = FULL_BATTERY_FRACTION * sim_circuit.e_max
        config = medium_config(sim_circuit,
                               mean_harvest=(1.0 - 1e-9) * cap / (1.0 - UNIFORM_HALFWIDTH),
                               initial_energy=0.0)
        with pytest.raises(GenerationError) as alone:
            generate_scenario(config, np.random.default_rng([config.seed, 0]))
        with pytest.raises(GenerationError) as batched:
            simulator._draw_scenarios(config, config.runs)
        assert str(batched.value) == str(alone.value)


class TestMonteCarlo:
    def test_single_run_equals_direct_replay(self, sim_circuit):
        config = medium_config(sim_circuit, runs=1)
        rows = monte_carlo(config, ("max_harvest",))
        rng = np.random.default_rng([config.seed, 0])
        scenario, string = generate_scenario(config, rng)
        trace, bits = evaluate_strategy("max_harvest", scenario, string, config)
        assert rows[0]["mean_throughput"] == bits / scenario.deadline
        assert rows[0]["mean_harvested"] == float(np.sum(trace.harvested))
        assert rows[0]["std_throughput"] == 0.0

    def test_replays_every_other_strategy_through_evaluate_strategy(self, sim_circuit,
                                                                       monkeypatch):
        # the optimal schedules of a point are solved as one batch; every
        # other strategy is still evaluated once per run, looked up on the
        # module at call time, and the rows match evaluating each strategy
        # run by run (the optimal one by its lone solve's throughput)
        config = medium_config(sim_circuit)
        strategies = ("optimal", "max_harvest", "tight_string", "online")
        calls = []

        def counted(name, *args):
            calls.append(name)
            return evaluate_strategy(name, *args)

        monkeypatch.setattr(simulator, "evaluate_strategy", counted)
        rows = monte_carlo(config, strategies)
        assert calls == ["max_harvest", "tight_string", "online"] * config.runs
        drawn = [generate_scenario(config, np.random.default_rng([config.seed, run]))
                 for run in range(config.runs)]
        for row in rows:
            if row["strategy"] == "optimal":
                bits = [optimal_schedule(scenario, sim_circuit).throughput
                        / scenario.deadline for scenario, _ in drawn]
            else:
                bits = [evaluate_strategy(row["strategy"], scenario, string, config)[1]
                        / scenario.deadline for scenario, string in drawn]
            assert row["mean_throughput"] == float(np.mean(bits))

    @pytest.mark.parametrize("rate_model", ["normalized", "link-budget"])
    def test_optimal_rows_are_the_solve_reports_own(self, sim_circuit, reference_link,
                                                     monkeypatch, rate_model):
        # no optimal schedule is replayed: its row averages the batch's
        # own reports' throughput and harvest, bit for bit, which are the
        # lone solves' own
        config = medium_config(sim_circuit, rate_model=rate_model, link=reference_link)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return replay(*args, **kwargs)

        monkeypatch.setattr(simulator, "replay", counted)
        (row,) = monte_carlo(config, ("optimal",))
        assert calls == []
        scenarios = [generate_scenario(config, np.random.default_rng([config.seed, run]))[0]
                     for run in range(config.runs)]
        batched = simulator._solve_batch(scenarios, sim_circuit,
                                         simulator._snr_gain(rate_model, reference_link))
        alone = [optimal_schedule(scenario, sim_circuit, rate_model, reference_link)
                 for scenario in scenarios]

        def means(reports):
            return (float(np.mean([report.throughput / scenario.deadline
                                   for scenario, report in zip(scenarios, reports)])),
                    float(np.mean([float(np.sum(report.trace.harvested))
                                   for report in reports])))

        row_means = (row["mean_throughput"], row["mean_harvested"])
        assert row_means == means(batched)
        assert row_means == means(alone)

    @pytest.mark.parametrize("rate_model", ["normalized", "link-budget"])
    def test_reference_optimal_rows_average_lone_solves(self, rate_model):
        # every optimal row of fig5's two axes is the row built from its
        # point's lone solves, bit for bit
        run = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.yaml")
        config = experiment_config(dataclasses.replace(run, rate_model=rate_model))
        for axis, values in (("mean_epoch_length", run.sweep.epoch_lengths),
                             ("capacitance", run.sweep.capacitances)):
            rows = monte_carlo(config, ("optimal",), axis, values)
            assert len(rows) == len(values)
            for row, value in zip(rows, values):
                if axis == "mean_epoch_length":
                    point = dataclasses.replace(
                        config, mean_epoch_length=value,
                        mean_harvest=config.mean_harvest * value / config.mean_epoch_length)
                else:
                    point = dataclasses.replace(
                        config, circuit=dataclasses.replace(config.circuit, capacitance=value))
                drawn = simulator._draw_scenarios(point, point.runs)
                bits, harvested = [], []
                for scenario, _ in drawn:
                    report = optimal_schedule(scenario, point.circuit, rate_model, point.link)
                    bits.append(report.throughput / scenario.deadline)
                    harvested.append(float(np.sum(report.trace.harvested)))
                assert (row["mean_throughput"], row["std_throughput"], row["mean_harvested"],
                        row["std_harvested"]) == (
                    float(np.mean(bits)), float(np.std(bits)), float(np.mean(harvested)),
                    float(np.std(harvested)))

    @pytest.mark.parametrize("packet_count, runs, sweep_axis, sweep_values, rate_model", [
        (0, 4, None, None, "normalized"),
        (1, 5, "mean_epoch_length", (0.004, 0.009), "normalized"),
        (8, 6, "capacitance", (0.04, 0.08), "normalized"),
        (8, 6, "mean_epoch_length", (0.006,), "link-budget"),
        (256, 3, None, None, "normalized"),
    ])
    def test_rows_reduce_each_runs_own_values(self, sim_circuit, reference_link, packet_count,
                                              runs, sweep_axis, sweep_values, rate_model):
        # a point reduces its runs in bulk; every row is the one built from
        # each run's own scenario and trace, reduced alone, to the bit
        config = medium_config(sim_circuit, packet_count=packet_count, runs=runs,
                               rate_model=rate_model, link=reference_link)
        rows = monte_carlo(config, simulator.STRATEGIES, sweep_axis, sweep_values)
        expected = []
        for value in sweep_values or (None,):
            if sweep_axis == "mean_epoch_length":
                point = dataclasses.replace(
                    config, mean_epoch_length=value,
                    mean_harvest=config.mean_harvest * value / config.mean_epoch_length)
            elif sweep_axis == "capacitance":
                point = dataclasses.replace(
                    config, circuit=dataclasses.replace(sim_circuit, capacitance=value))
            else:
                point = config
            drawn = [generate_scenario(point, np.random.default_rng([point.seed, run]))
                     for run in range(runs)]
            te_over_tau = [float(np.mean(scenario.packet_lengths)) / point.circuit.tau
                           for scenario, _ in drawn if scenario.n_packets]
            # the batch's reports, each its lone solve's
            solved = simulator._solve_batch([scenario for scenario, _ in drawn], point.circuit,
                                            simulator._snr_gain(rate_model, reference_link))
            for name in simulator.STRATEGIES:
                bits, harvested = [], []
                for (scenario, string), report in zip(drawn, solved):
                    if name == "optimal":
                        trace, run_bits = report.trace, report.throughput
                    else:
                        trace, run_bits = evaluate_strategy(name, scenario, string, point)
                    bits.append(run_bits / scenario.deadline)
                    harvested.append(float(np.sum(trace.harvested)))
                expected.append({
                    "sweep_axis": sweep_axis or "",
                    "sweep_value": value if value is not None else "",
                    "strategy": name,
                    "mean_te_over_tau": float(np.mean(te_over_tau)) if te_over_tau else 0.0,
                    "mean_throughput": float(np.mean(bits)),
                    "std_throughput": float(np.std(bits)),
                    "mean_harvested": float(np.mean(harvested)),
                    "std_harvested": float(np.std(harvested)),
                    "runs": runs,
                    "seed": config.seed,
                })
        assert repr(rows) == repr(expected)

    def test_tight_string_replays_the_drawn_schedule(self, sim_circuit):
        config = medium_config(sim_circuit)
        scenario, string = generate_scenario(config, np.random.default_rng([config.seed, 0]))
        assert (evaluate_strategy("tight_string", scenario, string, config)
                == replay(string, scenario, sim_circuit))
        # no schedule, or a tuple such as the classic harvests
        for bad in (None, string.powers[1:]):
            with pytest.raises(ValueError, match="TransmissionSchedule"):
                evaluate_strategy("tight_string", scenario, bad, config)
        # the string of a longer horizon
        _, longer = generate_scenario(medium_config(sim_circuit, packet_count=7),
                                      np.random.default_rng(0))
        with pytest.raises(ValueError, match="different number of epochs"):
            evaluate_strategy("tight_string", scenario, longer, config)

    def test_tables_are_deterministic(self, sim_circuit):
        config = medium_config(sim_circuit)
        a = monte_carlo(config, ("optimal", "tight_string"))
        b = monte_carlo(config, ("optimal", "tight_string"))
        assert a == b

    def test_unknown_strategy_rejected(self, sim_circuit):
        with pytest.raises(ValueError):
            monte_carlo(medium_config(sim_circuit), ("nonsense",))

    def test_unknown_axis_rejected(self, sim_circuit):
        with pytest.raises(ValueError):
            monte_carlo(medium_config(sim_circuit), ("optimal",),
                        sweep_axis="voltage", sweep_values=[1.0])

    def test_axis_without_values_rejected(self, sim_circuit):
        with pytest.raises(ValueError, match="sweep_values"):
            monte_carlo(medium_config(sim_circuit), ("optimal",),
                        sweep_axis="capacitance")


class TestRateModelDuality:
    def test_link_budget_solution_is_rescaled_normalized_one(
            self, sim_circuit, reference_link):
        s = EnergyScenario(initial_energy=0.05,
                           packets=((0.006, 25.0), (0.012, 25.0)),
                           deadline=0.018)
        gain = reference_link.gain
        normalized = optimal_schedule(s, sim_circuit, "normalized")
        physical = optimal_schedule(s, sim_circuit, "link-budget", reference_link)
        # the physical problem differs (its SNR per watt is the gain);
        # spot-check its bits via replay both ways
        trace, bits = replay(physical.schedule, s, sim_circuit,
                             "link-budget", reference_link)
        assert bits == pytest.approx(physical.throughput, rel=1e-9)
        assert not any(trace.clamped)
        # the link-budget optimum beats the normalized schedule when both
        # are scored under the link-budget rate
        _, bits_normalized = replay(normalized.schedule, s, sim_circuit,
                                    "link-budget", reference_link)
        assert bits >= bits_normalized - 1e-9

    def test_link_budget_kkt_in_physical_units(self, sim_circuit, reference_link):
        # with the gain folded into the objective the stationarity
        # recursion reads (1 + g p_{m+1}) = (1 + g p_m)(1 + X_m) in watts
        gain = reference_link.gain
        config = medium_config(sim_circuit, rate_model="link-budget",
                               link=reference_link)
        for seed in range(10):
            scenario, _ = generate_scenario(config, np.random.default_rng([25, seed]))
            report = optimal_schedule(scenario, sim_circuit, "link-budget",
                                      reference_link)
            powers, residuals = report.schedule.powers, report.trace.residuals
            for m, duration in enumerate(scenario.packet_lengths):
                x = harvest_sensitivity(residuals[m], duration, sim_circuit)
                assert 1.0 + gain * powers[m + 1] \
                    == pytest.approx((1.0 + gain * powers[m]) * (1.0 + x), rel=1e-12)
            trace, bits = replay(report.schedule, scenario, sim_circuit,
                                 "link-budget", reference_link)
            assert not any(trace.clamped)
            assert bits == pytest.approx(report.throughput, rel=1e-9)

    def test_strategy_ranking_preserved(self, sim_circuit, reference_link):
        config = medium_config(sim_circuit, runs=5,
                               rate_model="link-budget", link=reference_link)
        rows = monte_carlo(config, ("optimal", "max_harvest", "tight_string"))
        by_name = {r["strategy"]: r["mean_throughput"] for r in rows}
        assert by_name["optimal"] >= by_name["max_harvest"] - 1e-12
        assert by_name["optimal"] >= by_name["tight_string"] - 1e-12


class TestFutureImpactProbe:
    def test_null_perturbation_is_zero(self, sim_circuit):
        config = medium_config(sim_circuit)
        scenario, _ = generate_scenario(config, np.random.default_rng([21, 0]))
        assert future_impact_probe(scenario, sim_circuit, 2, 0.0, 0.0) == 0.0

    def test_remote_epochs_matter_less(self, sim_circuit):
        config = medium_config(sim_circuit, packet_count=8)
        hits = 0
        for seed in range(5):
            scenario, _ = generate_scenario(
                config, np.random.default_rng([22, seed]))
            delta_l = 0.2 * config.mean_epoch_length
            near = future_impact_probe(scenario, sim_circuit, 1, delta_l,
                                       0.2 * scenario.packets[0][1])
            far = future_impact_probe(scenario, sim_circuit, 5, delta_l,
                                      0.2 * scenario.packets[4][1])
            assert near > far
            hits += far < 0.02
        assert hits == 5

    def test_out_of_range_epoch_rejected(self, sim_circuit):
        config = medium_config(sim_circuit)
        scenario, _ = generate_scenario(config, np.random.default_rng([23, 0]))
        with pytest.raises(ValueError):
            future_impact_probe(scenario, sim_circuit, 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            future_impact_probe(scenario, sim_circuit, scenario.n_packets + 1,
                                0.0, 0.0)

    def test_invalid_perturbation_rejected(self, sim_circuit):
        config = medium_config(sim_circuit)
        scenario, _ = generate_scenario(config, np.random.default_rng([24, 0]))
        with pytest.raises(ValueError):
            future_impact_probe(scenario, sim_circuit, 1, 0.0,
                                -2.0 * scenario.packets[0][1])
