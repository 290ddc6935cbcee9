import math

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
    classic_tunnel,
    future_impact_probe,
    generate_scenario,
    harvest_sensitivity,
    harvested_energy,
    monte_carlo,
    optimal_residual,
    optimal_schedule,
    replay,
    solve,
    tight_string_schedule,
)
from rfharvest.config import SweepConfig, experiment_config, parse_config
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
        # throughput() refuses the same schedule; replay names the epoch
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
        scenario, classic = generate_scenario(config, np.random.default_rng(1))
        assert all(d == 0.0 for d in scenario.packet_lengths)
        assert all(h == 0.0 for h in classic)

    def test_round_trip_reproduces_classic_harvests(self, sim_circuit):
        config = medium_config(sim_circuit)
        for seed in range(20):
            rng = np.random.default_rng([13, seed])
            scenario, classic = generate_scenario(config, rng)
            tunnel = classic_tunnel(scenario.initial_energy,
                                    scenario.arrival_times, classic,
                                    scenario.deadline, sim_circuit)
            schedule = tight_string_schedule(tunnel)
            trace, _ = replay(schedule, scenario, sim_circuit)
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
        # usable capacity, which classic_tunnel refused with this text
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

    @pytest.mark.parametrize("field", ["mean_epoch_length", "mean_harvest"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_draw_means_are_refused(self, sim_circuit, field, value):
        # numpy's uniform draw would fail with an OverflowError instead
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            medium_config(sim_circuit, **{field: value})


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
        scenario, classic = generate_scenario(config, rng)
        trace, bits = evaluate_strategy("max_harvest", scenario, classic, config)
        assert rows[0]["mean_throughput"] == bits / scenario.deadline
        assert rows[0]["mean_harvested"] == trace.total_harvested
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
                bits = [evaluate_strategy(row["strategy"], scenario, classic, config)[1]
                        / scenario.deadline for scenario, classic in drawn]
            assert row["mean_throughput"] == float(np.mean(bits))

    @pytest.mark.parametrize("rate_model", ["normalized", "link-budget"])
    def test_optimal_rows_are_the_solve_reports_own(self, sim_circuit, reference_link,
                                                     monkeypatch, rate_model):
        # no optimal schedule is replayed: its row averages each lone
        # solve's own throughput and harvest, bit for bit
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
        reports = [optimal_schedule(scenario, sim_circuit, rate_model, reference_link)
                   for scenario in scenarios]
        assert row["mean_throughput"] == float(np.mean(
            [report.throughput / scenario.deadline
             for scenario, report in zip(scenarios, reports)]))
        assert row["mean_harvested"] == float(np.mean(
            [report.trace.total_harvested for report in reports]))

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
