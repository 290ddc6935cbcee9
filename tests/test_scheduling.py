import bisect
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfharvest.scheduling as scheduling
import rfharvest.simulator as simulator
from rfharvest import (
    ChargeCircuit,
    EnergyScenario,
    ExperimentConfig,
    OnlinePredictivePolicy,
    SolverError,
    TransmissionSchedule,
    brute_force_optimize,
    generate_scenario,
    harvest_sensitivity,
    harvested_energy,
    max_harvest_schedule,
    monte_carlo,
    optimal_residual,
    replay,
    solve,
)
from rfharvest.config import experiment_config, load_config, parse_config
from rfharvest.scheduling import _bits, _violations

TWO_PACKET = dict(initial_energy=0.5, packets=((10.0, 5.0), (20.0, 5.0)), deadline=30.0)


def medium_config(circuit, n, seed):
    return ExperimentConfig(circuit=circuit, mean_epoch_length=0.006,
                            mean_harvest=0.03, packet_count=n,
                            initial_energy=0.05, runs=1, seed=seed)


class TestEnergyScenario:
    def test_epoch_grid(self):
        s = EnergyScenario(**TWO_PACKET)
        assert list(s.epoch_bounds) == [0.0, 10.0, 20.0, 30.0]
        assert list(s.epoch_lengths) == [10.0, 10.0, 10.0]
        assert s.n_packets == 2

    @pytest.mark.parametrize("kwargs", [
        dict(initial_energy=-0.1, packets=(), deadline=10.0),
        dict(initial_energy=0.5, packets=((0.0, 5.0),), deadline=10.0),
        dict(initial_energy=0.5, packets=((5.0, 1.0), (5.0, 1.0)), deadline=10.0),
        dict(initial_energy=0.5, packets=((10.0, 1.0),), deadline=10.0),
        dict(initial_energy=0.5, packets=((5.0, -1.0),), deadline=10.0),
        dict(initial_energy=0.5, packets=(), deadline=0.0),
        dict(initial_energy=math.nan, packets=(), deadline=10.0),
        dict(initial_energy=math.inf, packets=(), deadline=10.0),
        dict(initial_energy=0.5, packets=(), deadline=math.nan),
        dict(initial_energy=0.5, packets=(), deadline=math.inf),
        dict(initial_energy=0.5, packets=((math.nan, 1.0),), deadline=10.0),
        dict(initial_energy=0.5, packets=((5.0, math.nan),), deadline=10.0),
    ])
    def test_rejects_degenerate_scenarios(self, kwargs):
        with pytest.raises(ValueError):
            EnergyScenario(**kwargs)


class TestRecordEntries:
    """Schedules and traces hold Python floats and bools, whatever
    sequence of numpy arrays or numpy scalars they were built from."""

    def test_schedule_entries_are_floats(self):
        for powers, bounds in [
                (np.array([0.5, 0.0]), np.array([0.0, 1.0, 2.0])),
                ((np.float64(0.5), np.float32(0.0)), (np.int64(0), np.float64(1.0), 2)),
                (np.array([0.5, 0.0], dtype=np.float32), np.arange(3))]:
            schedule = TransmissionSchedule(powers=powers, epoch_bounds=bounds)
            assert [type(p) for p in schedule.powers] == [float] * 2
            assert [type(t) for t in schedule.epoch_bounds] == [float] * 3
            assert schedule.powers == (0.5, 0.0)
            assert schedule.epoch_bounds == (0.0, 1.0, 2.0)

    def test_trace_entries_are_floats_and_bools(self):
        for values, flags in [(np.array([0.25, 0.0]), np.array([True, False])),
                              ((np.float64(0.25), np.float64(0.0)),
                               (np.bool_(True), np.bool_(False)))]:
            trace = scheduling.HarvestTrace(residuals=values, harvested=values[:1],
                                            consumed=values, clamped=flags)
            for name in ("residuals", "harvested", "consumed"):
                assert {type(x) for x in getattr(trace, name)} == {float}
            assert [type(c) for c in trace.clamped] == [bool] * 2
            assert trace.clamped == (True, False)
            assert trace.residuals == (0.25, 0.0)

    @pytest.mark.parametrize("initial_energy, deadline", [
        (np.float64(0.05), np.float64(2.0)), (0, 2), (np.int64(0), np.array(2.0))],
        ids=["numpy_floats", "ints", "numpy_int_and_0d_array"])
    def test_scenario_numbers_are_floats(self, bench_circuit, initial_energy, deadline):
        s = EnergyScenario(initial_energy=initial_energy, packets=((0.5, 1.0), (1.0, 2)),
                           deadline=deadline)
        assert type(s.initial_energy) is float and type(s.deadline) is float
        assert {type(x) for packet in s.packets for x in packet} == {float}
        assert s == EnergyScenario(float(initial_energy), s.packets, float(deadline))
        _, bits = replay(max_harvest_schedule(s, bench_circuit), s, bench_circuit)
        assert type(bits) is float

    @pytest.mark.parametrize("field", ["initial_energy", "deadline"])
    @pytest.mark.parametrize("value", ["0.5", None])
    def test_scenario_refuses_what_is_not_a_number(self, field, value):
        # checked before the conversion, so float("0.5") never runs
        kwargs = dict(initial_energy=0.5, packets=(), deadline=2.0)
        kwargs[field] = value
        with pytest.raises(TypeError):
            EnergyScenario(**kwargs)


class TestPropagate:
    """The powers and trace solve returns: the Newton method's own point."""

    def test_single_epoch_depletes(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        report = solve(s, bench_circuit)
        assert report.schedule.powers == (0.1,)
        assert report.trace.terminal_residual == 0.0

    def test_power_unchanged_at_zero_sensitivity(self, bench_circuit):
        # Size the initial energy so that holding one power level across
        # the arrival leaves the residual exactly on the harvest maximum:
        # X = 0 there, so that is the optimum and the power must not move.
        r_star = optimal_residual(5.0, bench_circuit)
        stored = r_star + harvested_energy(r_star, 5.0, bench_circuit)
        s = EnergyScenario(initial_energy=r_star + stored, packets=((10.0, 5.0),),
                           deadline=20.0)
        report = solve(s, bench_circuit)
        assert report.schedule.powers[1] == pytest.approx(report.schedule.powers[0], rel=1e-12)
        assert report.trace.residuals[0] == pytest.approx(r_star, rel=1e-9)

    def test_stationarity_update_arithmetic(self):
        assert (1.0 + 1.0) * (0.0319 + 1.0) - 1.0 == pytest.approx(1.0638, rel=1e-12)

    def test_energy_conservation_link_by_link(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        trace = solve(s, bench_circuit).trace
        for i in range(s.n_packets):
            expected = (trace.residuals[i] + trace.harvested[i]
                        - trace.consumed[i + 1])
            assert trace.residuals[i + 1] == pytest.approx(expected, abs=1e-15)


def violations(trace, circuit):
    """The solver's (causality, capacity) flags on a trace, as lists."""
    return [flags.tolist() for flags in _violations(
        np.array(trace.residuals), np.array(trace.harvested), circuit.e_max)]


class TestCheckFeasibility:
    """The solver's self-check on a trace, :func:`_violations`."""

    def test_zero_schedule_passes(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        schedule = TransmissionSchedule(powers=(0.0, 0.0, 0.0),
                                        epoch_bounds=tuple(s.epoch_bounds))
        trace, _ = replay(schedule, s, bench_circuit)
        assert violations(trace, bench_circuit) == [[False] * 3, [False] * 2]

    def test_overdraw_fails_causality_at_first_epoch(self, bench_circuit):
        from rfharvest import HarvestTrace
        trace = HarvestTrace(residuals=(-1.0,), harvested=(), consumed=(2.0,))
        assert violations(trace, bench_circuit) == [[True], []]

    def test_solve_winners_always_pass(self, sim_circuit):
        for seed in range(20):
            rng = np.random.default_rng([101, seed])
            scenario, _ = generate_scenario(medium_config(sim_circuit, 6, seed), rng)
            report = solve(scenario, sim_circuit)
            assert violations(report.trace, sim_circuit) == [[False] * 7, [False] * 6]
            trace, _ = replay(report.schedule, scenario, sim_circuit)
            assert not any(trace.clamped)

    def test_reports_the_first_failing_epoch(self, bench_circuit):
        from rfharvest import HarvestTrace
        e_max = bench_circuit.e_max
        # over-full after the harvests of epochs 2 and 3
        trace = HarvestTrace(residuals=(0.5, 1.0, 1.0, 0.0), harvested=(0.5, e_max, e_max),
                             consumed=(0.0,) * 4)
        assert violations(trace, bench_circuit) == [[False] * 4, [False, True, True]]
        # both flagged, each over the whole horizon
        trace = HarvestTrace(residuals=(0.5, 1.0, 1.0, -1.0), harvested=(0.5, e_max, e_max),
                             consumed=(0.0,) * 4)
        assert violations(trace, bench_circuit) == [[False, False, False, True],
                                                    [False, True, True]]


class TestThroughput:
    """Bits of rows of powers over their epoch lengths, :func:`_bits`, which
    every solve report runs."""

    def test_silence_is_zero(self):
        assert _bits(np.zeros(2), np.array([1.0, 1.0]), 1.0) == 0.0

    def test_spot_values(self):
        assert _bits(np.array([1.0]), np.array([10.0]), 1.0) == pytest.approx(5.0, rel=1e-15)
        assert _bits(np.array([3.0]), np.array([4.0]), 1.0) == pytest.approx(4.0, rel=1e-15)

    def test_tiny_snr_keeps_relative_precision(self, sim_circuit):
        # at g p = 1e-12, log2(1 + g p) rounds 1 + g p and is off by 1e-4
        scenario = EnergyScenario(0.1, ((1.0, 5.0), (3.0, 5.0)), 6.0)
        schedule = TransmissionSchedule(powers=(1e-12,) * 3,
                                        epoch_bounds=tuple(scenario.epoch_bounds))
        want = math.fsum(0.5 * l * math.log1p(1e-12) for l in (1.0, 2.0, 3.0)) / math.log(2.0)
        _, replayed = replay(schedule, scenario, sim_circuit)
        summed = _bits(np.array(schedule.powers), np.diff(schedule.epoch_bounds), 1.0)
        for bits in (summed, replayed):
            assert abs(bits / want - 1.0) <= 1e-15

    def test_rejects_negative_power(self):
        for power in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                _bits(np.array([power]), np.array([1.0]), 1.0)


class TestSolve:
    def test_single_epoch(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        report = solve(s, bench_circuit)
        assert report.schedule.powers[0] == pytest.approx(0.1, abs=1e-12)
        assert report.throughput == pytest.approx(5.0 * math.log2(1.1), rel=1e-12)

    def test_one_packet_matches_dense_grid(self, bench_circuit):
        # independent 2-d brute force over both epoch powers
        s = EnergyScenario(initial_energy=0.5, packets=((10.0, 5.0),), deadline=20.0)
        report = solve(s, bench_circuit)
        best = -1.0
        p1_grid = np.linspace(0.0, 0.05, 201)
        for p1 in p1_grid:
            spend1 = p1 * 10.0
            if spend1 > 0.5:
                continue
            r1 = 0.5 - spend1
            stored = r1 + harvested_energy(r1, 5.0, bench_circuit)
            for p2 in np.linspace(0.0, stored / 10.0, 201):
                bits = 5.0 * (math.log2(1.0 + p1) + math.log2(1.0 + p2))
                if bits > best:
                    best = bits
        grid_bound = (0.05 / 200) * 10.0 / math.log(2.0)
        assert report.throughput >= best - 1e-12
        assert report.throughput <= best + grid_bound

    def test_deterministic(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        a = solve(s, bench_circuit)
        b = solve(s, bench_circuit)
        assert a.schedule.powers == b.schedule.powers
        assert a.trace == b.trace

    def test_report_bookkeeping(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        report = solve(s, bench_circuit)
        assert report.terminal_residual_error <= 1e-10
        assert report.iterations >= 1
        assert abs(report.trace.terminal_residual) == report.terminal_residual_error
        # the last step's predicted rise is rounding on the objective
        assert 0.0 <= report.newton_decrement <= 1e-15 * report.throughput

    @pytest.mark.parametrize("gain", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_gains(self, bench_circuit, gain):
        s = EnergyScenario(**TWO_PACKET)
        with pytest.raises(ValueError, match="gain"):
            solve(s, bench_circuit, gain)
        with pytest.raises(ValueError, match="gain"):
            scheduling._solve_batch([s, s], bench_circuit, gain)

    def test_rejects_overfull_battery(self, bench_circuit):
        s = EnergyScenario(initial_energy=bench_circuit.e_max * 1.01,
                           packets=(), deadline=10.0)
        with pytest.raises(ValueError):
            solve(s, bench_circuit)

    def test_reports_failure_with_diagnostics(self, bench_circuit, monkeypatch):
        # a solve cut off before it converges says how far it got
        monkeypatch.setattr(scheduling, "MAX_ITERATIONS", 1)
        s = EnergyScenario(**TWO_PACKET)
        with pytest.raises(SolverError) as excinfo:
            solve(s, bench_circuit)
        assert excinfo.value.diagnostics["iterations"] == 1
        assert excinfo.value.diagnostics["newton_decrement"] > 0.0

    def test_idle_epochs_match_the_oracle(self, sim_circuit):
        # energies far below the harvest-optimal residual: the optimum
        # keeps everything for the last epoch, two epochs stay idle
        s = EnergyScenario(initial_energy=1e-4,
                           packets=((20.0, 30.0), (40.0, 30.0)), deadline=60.0)
        report = solve(s, sim_circuit)
        assert report.schedule.powers[0] == report.schedule.powers[1] == 0.0
        oracle = brute_force_optimize(s, sim_circuit)
        assert oracle.throughput - report.throughput <= 1e-9
        assert report.throughput >= oracle.throughput - oracle.error_bound


class TestKKTStructure:
    def winning_reports(self, circuit, count, n_packets, seed_base):
        reports = []
        for seed in range(count):
            rng = np.random.default_rng([seed_base, seed])
            scenario, _ = generate_scenario(
                medium_config(circuit, n_packets, seed), rng)
            reports.append((scenario, solve(scenario, circuit)))
        return reports

    def test_stationarity_identity(self, sim_circuit):
        # the heterogeneous draws have idle epochs; the identity holds
        # between non-idle neighbours
        rng = np.random.default_rng([3, 0])
        heterogeneous = [heterogeneous_scenario(rng, SIM, 5) for _ in range(600)]
        draws = [*self.winning_reports(sim_circuit, 20, 6, 202),
                 *((scenario, solve(scenario, SIM)) for scenario in heterogeneous)]
        for scenario, report in draws:
            powers = report.schedule.powers
            residuals = report.trace.residuals
            durations = scenario.packet_lengths
            for m in range(scenario.n_packets):
                if powers[m] == 0.0 or powers[m + 1] == 0.0:
                    continue
                x = harvest_sensitivity(residuals[m], durations[m], sim_circuit)
                lhs = 1.0 + powers[m + 1]
                rhs = (1.0 + powers[m]) * (x + 1.0)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_stationarity_identity_at_65536_packets(self, sim_circuit):
        # every Newton step from the scans of one long segment
        scenario = reference_horizon(sim_circuit, 65536, 0)
        report = solve(scenario, sim_circuit)
        powers, residuals = report.schedule.powers, report.trace.residuals
        assert 0.0 not in powers
        lhs = 1.0 + np.array(powers[1:])
        rhs = (1.0 + np.array(powers[:-1])) * (1.0 + np.array([
            harvest_sensitivity(r, d, sim_circuit)
            for r, d in zip(residuals, scenario.packet_lengths.tolist())]))
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).min()

    def test_product_form_is_constant(self, sim_circuit):
        # (1 + p_m) * prod_{j>=m} (X_j + 1) must not depend on m
        for scenario, report in self.winning_reports(sim_circuit, 10, 6, 203):
            powers = report.schedule.powers
            residuals = report.trace.residuals
            durations = scenario.packet_lengths
            n = scenario.n_packets
            values = []
            for m in range(n + 1):
                product = 1.0 + powers[m]
                for j in range(m, n):
                    product *= 1.0 + harvest_sensitivity(
                        residuals[j], durations[j], sim_circuit)
                values.append(product)
            assert max(values) - min(values) <= 1e-10 * max(values)

    def test_never_depletes_before_deadline(self, sim_circuit):
        for scenario, report in self.winning_reports(sim_circuit, 20, 6, 204):
            residuals = report.trace.residuals
            assert all(r > 0 for r in residuals[:-1])
            assert abs(residuals[-1]) <= 1e-10

    def test_never_fills_battery(self, sim_circuit):
        for scenario, report in self.winning_reports(sim_circuit, 20, 6, 205):
            for r, h in zip(report.trace.residuals, report.trace.harvested):
                assert r + h < sim_circuit.e_max


def released_trio():
    """Three idle epochs of 3e-5 to 9e-5 s are released together at gain
    1e-3, and the joint step drains one of them at p = 0.  The projection
    turns that one idle again; the other two stay free.  Turning all three
    idle again would release the same three at every step."""
    return EnergyScenario(initial_energy=1e-300, deadline=53071.36492441976, packets=(
        (437.75832356974956, 0.009104840763641821), (437.75832795009785, 2.325061156920346),
        (53071.36000308556, 0.838558692996918), (53071.36003954115, 3.715382455465e-06),
        (53071.36006677843, 2.2046900347235113e-05), (53071.36015694556, 0.0)))


def heterogeneous_scenario(rng, circuit, max_packets):
    """A draw of the benchmark's heterogeneous family: 1..max_packets
    packets, then :func:`heterogeneous_horizon`'s draws."""
    return heterogeneous_horizon(rng, circuit, int(rng.integers(1, max_packets + 1)))


def heterogeneous_horizon(rng, circuit, n):
    """n packets, epochs log-uniform in [1e-3, 10] s, charge durations
    log-uniform in [1e-4, 3] tau, any initial energy."""
    lengths = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n + 1))
    durations = circuit.tau * np.exp(rng.uniform(math.log(1e-4), math.log(3.0), n))
    bounds = np.cumsum(lengths)
    return EnergyScenario(initial_energy=float(rng.uniform(0.0, circuit.e_max)),
                          packets=tuple(zip(bounds[:-1], durations)),
                          deadline=float(bounds[-1]))


class TestHardScenarios:
    """Long horizons, idle epochs and battery-filling packets."""

    @pytest.mark.parametrize("n_packets", [32, 256])
    def test_reference_horizons(self, sim_circuit, n_packets):
        for seed in range(3):
            rng = np.random.default_rng([n_packets, seed])
            scenario, _ = generate_scenario(medium_config(sim_circuit, n_packets, seed), rng)
            report = solve(scenario, sim_circuit)
            powers, residuals = report.schedule.powers, report.trace.residuals
            for m in range(n_packets):
                x = harvest_sensitivity(residuals[m], scenario.packet_lengths[m], sim_circuit)
                lhs = 1.0 + powers[m + 1]
                rhs = (1.0 + powers[m]) * (x + 1.0)
                assert lhs == pytest.approx(rhs, rel=1e-12)
            trace, bits = replay(report.schedule, scenario, sim_circuit)
            assert not any(trace.clamped)
            assert max(abs(a - b) for a, b in zip(trace.residuals, residuals)) \
                <= 1e-12 * sim_circuit.e_max
            assert bits == pytest.approx(report.throughput, abs=1e-9)

    def test_heterogeneous_draws_match_the_oracle(self, sim_circuit):
        rng = np.random.default_rng([42, 3])
        with_idle_epochs = 0
        for _ in range(300):
            scenario = heterogeneous_scenario(rng, sim_circuit, 3)
            report = solve(scenario, sim_circuit)
            oracle = brute_force_optimize(scenario, sim_circuit)
            assert oracle.throughput - report.throughput <= 1e-9
            assert report.throughput >= oracle.throughput - oracle.error_bound
            with_idle_epochs += 0.0 in report.schedule.powers
        assert with_idle_epochs >= 15

    @pytest.mark.parametrize("seed, gain, max_steps", [
        ([256, 2], 1.0, 14), ([1024, 1], 1.0, 14), ([32, 9], 2.7e8, 40), ([4096, 0, 1], 1.0, 18)],
        ids=["N256/2", "N1024/1", "N32/9-gain2.7e8", "N4096/0/1"])
    def test_long_heterogeneous_horizons(self, sim_circuit, seed, gain, max_steps):
        # A step that drains several epochs idles them all at once, and
        # idle epochs with a negative multiplier are released after every
        # full step.  Stopping each step at the first drained epoch took
        # 18, 21, 44 and 43 steps here; releasing only once the free
        # residuals are stationary, these draws ran out of steps.
        scenario = heterogeneous_horizon(np.random.default_rng(seed), sim_circuit, seed[0])
        report = solve(scenario, sim_circuit, gain)
        assert report.iterations <= max_steps
        assert_beats_max_harvest(report, scenario, sim_circuit, gain)

    @pytest.mark.parametrize("scan_min_rows", [scheduling.SCAN_MIN_ROWS, 2],
                             ids=["default", "every-segment"])
    def test_scans_keep_the_step_counts(self, sim_circuit, monkeypatch, scan_min_rows):
        # the steps each horizon took at gains 1 and 2.7e8 when every Newton
        # step came from _sweep's loop
        monkeypatch.setattr(scheduling, "SCAN_MIN_ROWS", scan_min_rows)
        loop_steps = {(reference_horizon, 1024): [7, 7], (reference_horizon, 4096): [8, 8],
                      (hetero_horizon, 1024): [12, 40], (hetero_horizon, 4096): [14, 43],
                      (hetero_horizon, 16384): [14, 47]}
        for (horizon, n), steps in loop_steps.items():
            scenario = horizon(sim_circuit, n, 0)
            assert [solve(scenario, sim_circuit, gain).iterations
                    for gain in (1.0, 2.7e8)] == steps

    def test_released_epoch_the_step_would_drain_turns_idle_alone(self, sim_circuit):
        s = released_trio()
        report = solve(s, sim_circuit, 1e-3)
        assert report.iterations <= 20
        assert_beats_max_harvest(report, s, sim_circuit, 1e-3)

    def test_slow_release_at_the_link_gain(self, sim_circuit):
        # at gain 2.7e8 the power of epoch 3 climbs from 1.1e-4 W to its
        # optimum of 9.8e-4 W, by at most about double per Newton step
        # (1.6e-4, 2.9e-4, 5.0e-4, 7.6e-4, ... W); the last packet fills
        # the battery, so the horizon is two segments
        s = EnergyScenario(initial_energy=0.01494850414324754, deadline=30616.68983352187,
                           packets=((0.00013590293349089914, 4.6262208648926837e-10),
                                    (3106.163545049241, 0.05557855153497049),
                                    (3106.1635574390234, 11.988986224338834),
                                    (3106.163559773944, 1.0965512012570172e-06),
                                    (3106.1637307303076, 24547.39072724848)))
        report = solve(s, sim_circuit, 2.7e8)
        assert report.iterations <= 11
        assert_beats_max_harvest(report, s, sim_circuit, 2.7e8)

    def test_one_step_idles_several_epochs(self, monkeypatch):
        # the projected step idles every epoch it drains; a step that
        # stopped at the first drained epoch idled one per step
        scenarios, circuit = idle_heavy_batch()
        newton = scheduling._ScalarSteps.newton
        statuses = []

        def spied(self, residuals, powers, status, live):
            statuses.append(list(status))
            return newton(self, residuals, powers, status, live)

        monkeypatch.setattr(scheduling._ScalarSteps, "newton", spied)
        solve(scenarios[1], circuit)
        # a release turns epochs free, so only a step turns them idle
        assert max(sum(a == scheduling.FREE and b == scheduling.IDLE for a, b in zip(x, y))
                   for x, y in zip(statuses, statuses[1:])) >= 2

    def test_battery_filling_packet_drains_first(self, sim_circuit):
        # a packet 1e4 time constants long fills the battery whatever is
        # left at its arrival, so the first epoch spends it all
        s = EnergyScenario(initial_energy=0.05, deadline=3.0,
                           packets=((1.0, 1e4 * sim_circuit.tau), (2.0, 1.0)))
        report = solve(s, sim_circuit)
        assert report.trace.residuals[0] == 0.0
        assert report.schedule.powers[0] == 0.05
        full = EnergyScenario(initial_energy=sim_circuit.e_max, packets=((1.0, 1.0),),
                              deadline=2.0)
        rest = solve(full, sim_circuit).schedule.powers
        assert report.schedule.powers[1:] == pytest.approx(rest, rel=1e-12)

    def test_flat_map_splits_a_lone_horizon(self, sim_circuit):
        # a packet of 1e4 tau fills the battery whatever is left at its
        # arrival: the horizon is two independent ones, split there
        k = 3
        scenario = with_flat_map(sim_circuit, k)
        packets = list(scenario.packets)
        split = packets[k][0]
        whole = solve(scenario, sim_circuit)
        head = solve(EnergyScenario(scenario.initial_energy, tuple(packets[:k]), split),
                     sim_circuit)
        tail = solve(EnergyScenario(sim_circuit.e_max,
                                    tuple((t - split, d) for t, d in packets[k + 1:]),
                                    scenario.deadline - split), sim_circuit)
        assert whole.throughput == pytest.approx(head.throughput + tail.throughput, rel=1e-12)
        assert whole.schedule.powers == pytest.approx(
            head.schedule.powers + tail.schedule.powers, rel=1e-12)

    def test_scipy_slsqp_agrees_at_32_packets(self, sim_circuit):
        # SLSQP over the arrival residuals, with the harvest written as
        # the RC charge curve in volts: V -> v_max - (v_max - V) exp(-T/tau)
        from scipy.optimize import minimize
        rng = np.random.default_rng([32, 0])
        scenario, _ = generate_scenario(medium_config(sim_circuit, 32, 0), rng)
        lengths = scenario.epoch_lengths
        decay = np.exp(-scenario.packet_lengths / sim_circuit.tau)
        c, v_max = sim_circuit.capacitance, sim_circuit.v_max

        def powers(residuals):
            volts = np.sqrt(2.0 * np.clip(residuals, 0.0, None) / c)
            volts = v_max - (v_max - volts) * decay
            stores = np.concatenate(([scenario.initial_energy], 0.5 * c * volts ** 2))
            return (stores - np.append(residuals, 0.0)) / lengths

        def negative_bits(residuals):
            p = np.clip(powers(residuals), 0.0, None)
            return -float(np.sum(0.5 * lengths * np.log2(1.0 + p)))

        result = minimize(negative_bits, np.full(32, 0.5 * scenario.initial_energy),
                          method="SLSQP", bounds=[(0.0, sim_circuit.e_max)] * 32,
                          constraints=[{"type": "ineq", "fun": powers}],
                          options={"ftol": 1e-14, "maxiter": 1000})
        assert result.success
        assert abs(-result.fun - solve(scenario, sim_circuit).throughput) <= 1e-8


def reference_horizon(circuit, n_packets, seed):
    return generate_scenario(medium_config(circuit, n_packets, seed),
                             np.random.default_rng([n_packets, seed]))[0]


def with_flat_map(circuit, k):
    """The N = 8 reference horizon with packet k at 1e4 tau (s = 0)."""
    scenario = reference_horizon(circuit, 8, 0)
    packets = list(scenario.packets)
    packets[k] = (packets[k][0], 1e4 * circuit.tau)
    return EnergyScenario(scenario.initial_energy, tuple(packets), scenario.deadline)


def with_empty_epochs(circuit):
    """An N = 128 reference horizon with packets of 1e4 tau (s = 0) and
    40 tau (s = 4e-18): the full charge after each leaves nothing to keep."""
    scenario = reference_horizon(circuit, 128, 0)
    packets = list(scenario.packets)
    for i, time_constants in ((40, 1e4), (90, 40.0)):
        packets[i] = (packets[i][0], time_constants * circuit.tau)
    return EnergyScenario(scenario.initial_energy, tuple(packets), scenario.deadline)


def hetero_horizon(circuit, n_packets, seed):
    return heterogeneous_horizon(np.random.default_rng([n_packets, seed]), circuit, n_packets)


# hetero: idle runs, steps that drain epochs and releases; empty128: EMPTY
# arrivals, with G' = 0 and with G' infinite at r = 0 (three segments, so
# the array kernels under either threshold); trio: a step that drains a
# just released epoch
KERNEL_CASES = {
    "N64": lambda circuit: (reference_horizon(circuit, 64, 0), 1.0),
    "N256": lambda circuit: (reference_horizon(circuit, 256, 0), 1.0),
    "N1024": lambda circuit: (reference_horizon(circuit, 1024, 0), 1.0),
    "hetero256/2": lambda circuit: (hetero_horizon(circuit, 256, 2), 1.0),
    "hetero256/4": lambda circuit: (hetero_horizon(circuit, 256, 4), 1.0),
    "hetero1024/1": lambda circuit: (hetero_horizon(circuit, 1024, 1), 1.0),
    "empty128": lambda circuit: (with_empty_epochs(circuit), 1.0),
    "trio": lambda circuit: (released_trio(), 1e-3),
}


class TestKernelSets:
    """solve's scalar and array step kernels find the same optimum."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_both_kernel_sets_agree(self, sim_circuit, monkeypatch, case):
        scenario, gain = KERNEL_CASES[case](sim_circuit)
        reports = []
        for threshold in (scenario.n_packets + 1, scenario.n_packets):    # scalar, array
            monkeypatch.setattr(scheduling, "ARRAY_MIN_PACKETS", threshold)
            reports.append(solve(scenario, sim_circuit, gain))
        scalar, array = ([i for i, p in enumerate(r.schedule.powers) if p == 0.0]
                         for r in reports)
        assert scalar == array
        assert reports[1].throughput == pytest.approx(reports[0].throughput, rel=1e-12)
        if case == "empty128":
            residuals = reports[1].trace.residuals
            assert residuals[40] == pytest.approx(0.0, abs=1e-15)
            assert residuals[90] == pytest.approx(0.0, abs=1e-15)

    def test_the_horizon_picks_the_kernel_set(self, sim_circuit, monkeypatch):
        # the scalar kernels step a lone short horizon of one segment; the
        # array kernels step every other one, all its segments at once.  A
        # batch joined below ARRAY_MIN_PACKETS arrivals solves each member
        # alone
        built = []

        def spy(kernels):
            init = kernels.__init__

            def recorded(self, *args):
                built.append(kernels)
                init(self, *args)
            return recorded

        for kernels in (scheduling._ScalarSteps, scheduling._ArraySteps):
            monkeypatch.setattr(kernels, "__init__", spy(kernels))
        for scenarios, kernels in (
                ([reference_horizon(sim_circuit, 8, 0)], [scheduling._ScalarSteps]),
                ([with_flat_map(sim_circuit, 3)], [scheduling._ArraySteps]),
                ([reference_horizon(sim_circuit, 3, seed) for seed in range(2)],
                 [scheduling._ScalarSteps] * 2),
                # 8 x 8 epochs: 63 arrivals joined
                ([reference_horizon(sim_circuit, 7, seed) for seed in range(8)],
                 [scheduling._ScalarSteps] * 8),
                # 5 x 13 epochs: 64 arrivals joined
                ([reference_horizon(sim_circuit, 12, seed) for seed in range(5)],
                 [scheduling._ArraySteps]),
                ([reference_horizon(sim_circuit, 64, 0)], [scheduling._ArraySteps]),
                ([reference_horizon(sim_circuit, 8, seed) for seed in range(8)],
                 [scheduling._ArraySteps])):
            built.clear()
            assert not any(isinstance(report, SolverError)
                           for report in scheduling._solve_batch(scenarios, sim_circuit))
            assert built == kernels

    @pytest.mark.parametrize("k", range(8))
    def test_flat_map_split_steps_its_head_as_alone(self, sim_circuit, k):
        # the whole horizon steps on the array kernels and its head, alone,
        # on the scalar ones: the same powers and residuals, bit for bit
        scenario = with_flat_map(sim_circuit, k)
        packets = list(scenario.packets)
        head = EnergyScenario(scenario.initial_energy, tuple(packets[:k]), packets[k][0])
        whole, alone = solve(scenario, sim_circuit), solve(head, sim_circuit)
        assert whole.schedule.powers[:k + 1] == alone.schedule.powers
        assert whole.trace.residuals[:k] == alone.trace.residuals[:k]


def looped_step_bound(firsts, residuals, free, step):
    """Each segment's bound of the step, in a plain loop: the least of 1
    and the boundary bounds of its shrinking free residuals."""
    segment = [bisect.bisect_right(firsts, i) - 1 for i in range(len(residuals))]
    reach = 2.0 * (1.0 - math.sqrt(scheduling.BOUNDARY_FRACTION))
    bounds = [1.0] * len(firsts)
    for i in free:
        if step[i] < 0.0:
            bounds[segment[i]] = min(bounds[segment[i]], reach * residuals[i] / -step[i])
    return bounds


def test_step_bound_is_each_segments_own():
    # residuals and steps from a few values, so that bounds tie within
    # and across segments; segments of one arrival and segments with no
    # free arrival.  Each segment steps within its own bound alone.  With
    # a decrement of -inf every first trial passes, so the step each
    # segment takes is its bound.
    rng = np.random.default_rng([11, 0])
    for _ in range(300):
        n = int(rng.integers(1, 30))
        firsts = sorted({0, *rng.integers(1, n + 1, int(rng.integers(0, 5))).tolist()} - {n})
        lengths = rng.choice([0.5, 1.0, 2.0], n + 1)
        kernels = scheduling._ArraySteps({0: 0.1}, lengths.tolist(), [(0.3, 0.5)] * n, 1.0,
                                         firsts)
        status = np.where(rng.random(n) < 0.3, scheduling.IDLE, scheduling.FREE)
        free = (status == scheduling.FREE).nonzero()[0]
        residuals = rng.choice([0.25, 0.5, 1.0], n)
        step = np.where(status == scheduling.FREE,
                        rng.choice([-2.0, -1.0, -0.25, 0.0, 0.5], n), 0.0)
        point = (residuals, None, status, np.zeros(len(firsts)))
        with np.errstate(all="ignore"):
            _, taken, failed = kernels.line_search(point, free, step,
                                                   np.full(len(firsts), -math.inf),
                                                   list(range(len(firsts))))
        assert failed == []
        assert taken.tolist() == looped_step_bound(firsts, residuals.tolist(), free.tolist(),
                                                   step.tolist())


def test_sums_add_each_segment_left_to_right():
    # segments of unequal lengths, one epoch each, or the whole horizon;
    # terms whose sum depends on the order, and NaN, inf and -0.0 terms.
    # Each segment's sum is a plain loop's, from 0.0 in index order
    rng = np.random.default_rng([12, 0])
    values = [1e16, -1e16, 1.0, 0.1, 3.0, -0.0, math.inf, -math.inf, math.nan]
    for _ in range(300):
        n = int(rng.integers(1, 30))
        firsts = sorted({0, *rng.integers(1, n + 1, int(rng.integers(0, 8))).tolist()})
        kernels = scheduling._ArraySteps({0: 0.1}, [1.0] * (n + 1), [(0.3, 0.5)] * n, 1.0,
                                         firsts)
        terms = rng.choice(values, n + 1, p=[0.2, 0.2, 0.2, 0.15, 0.1, 0.05, 0.04, 0.03, 0.03])
        looped = [0.0] * len(firsts)
        for i, term in enumerate(terms.tolist()):
            looped[bisect.bisect_right(firsts, i) - 1] += term
        with np.errstate(all="ignore"):
            sums = kernels._sums(terms).tolist()
        assert list(map(repr, sums)) == list(map(repr, looped))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_keeps_each_chain_to_itself(bad):
    # a row with t = 0 starts a new chain, as a joined member's first: a
    # non-finite gradient in one chain leaves the steps of its neighbours
    # in either direction as they are alone
    good = [[2.0, 0.0, -0.5, 0.0, 0.0, 0.3], [1.5, 0.7, -0.2, -0.1, 0.0, -0.4],
            [3.0, 1.2, -0.3, 0.0, 0.8, 0.1]]
    bad = [[1.0, 0.0, 0.0, 0.0, 0.0, bad]]
    alone = scheduling._sweep(good)
    assert scheduling._sweep(bad + good)[1:] == alone
    assert scheduling._sweep(good + bad)[:-1] == alone


def sweep_rows(rng, n):
    """n random rows of _sweep, the first a chain's (t = 0): own > 0, t > 0,
    bend_w <= 0, soft <= 0, stiff >= 0 and g of either sign, each over
    many decades, and bend_w, soft and stiff often 0."""
    def sometimes(p, x):
        return np.where(rng.random(n) < p, x, 0.0)

    rows = np.array([rng.lognormal(0.0, 3.0, n), rng.lognormal(0.0, 1.0, n),
                     sometimes(0.7, -rng.lognormal(0.0, 3.0, n)),
                     sometimes(0.3, -rng.lognormal(0.0, 3.0, n)),
                     sometimes(0.2, rng.lognormal(0.0, 3.0, n)), rng.normal(0.0, 1.0, n)])
    rows[1, 0] = 0.0
    return rows


def scanned(rows, counts):
    """_scan_sweep's steps of rows laid out as segments of ``counts`` rows."""
    counts = np.array(counts)
    with np.errstate(all="ignore"):
        return scheduling._scan_sweep(rows, np.cumsum(counts) - counts, counts)


def assert_scan_is_the_loop(rows, counts):
    # the scans add in another order than the loop: each segment's steps
    # agree to 1e-9 of its largest; a step far below that is rounding in both
    loop = np.array(scheduling._sweep(zip(*rows.tolist())))
    scan = scanned(rows, counts)
    assert np.isfinite(loop).all()
    for segment in np.split(np.arange(len(loop)), np.cumsum(counts)[:-1]):
        assert np.abs(scan[segment] - loop[segment]).max() \
            <= 1e-9 * np.abs(loop[segment]).max()


class TestScanSweep:
    """_scan_sweep's log-depth scans give _sweep's steps, segment by segment."""

    def test_random_rows(self):
        rng = np.random.default_rng([13, 0])
        for _ in range(40):
            counts = rng.integers(1, 600, int(rng.integers(1, 5))).tolist()
            rows = np.concatenate([sweep_rows(rng, count) for count in counts], axis=1)
            assert_scan_is_the_loop(rows, counts)

    def test_restarts_inside_a_segment(self):
        # t = 0 (a new chain) and an infinite curvature, whose compliance
        # is 0 and whose chain starts afresh, past each segment's first row
        rng = np.random.default_rng([13, 1])
        for _ in range(20):
            counts = rng.integers(2, 600, 3).tolist()
            rows = np.concatenate([sweep_rows(rng, count) for count in counts], axis=1)
            n = rows.shape[1]
            rows[1, rng.integers(0, n, 5)] = 0.0
            rows[2, rng.integers(0, n, 3)] = -math.inf
            rows[4, rng.integers(0, n, 3)] = math.inf
            assert_scan_is_the_loop(rows, counts)

    @pytest.mark.parametrize("gain", [1.0, 2.7e8])
    def test_rows_of_long_horizons(self, monkeypatch, gain):
        # every Newton step of heterogeneous horizons with idle runs, one
        # of them split by flat maps into segments of uneven free counts
        captured = []
        step = scheduling._ArraySteps._step

        def spied(self, columns, free):
            captured.append((np.array(columns), np.unique(self.segment[free],
                                                          return_counts=True)[1]))
            return step(self, columns, free)

        monkeypatch.setattr(scheduling._ArraySteps, "_step", spied)
        split = hetero_horizon(SIM, 2048, 3)
        packets = list(split.packets)
        for i in (350, 1050, 1750):
            packets[i] = (packets[i][0], 1e4 * SIM.tau)
        split = EnergyScenario(split.initial_energy, tuple(packets), split.deadline)
        for scenario in (hetero_horizon(SIM, 1024, 1), split):
            captured.clear()
            solve(scenario, SIM, gain)
            assert any(len(counts) > 1 for _, counts in captured) == (scenario is split)
            for rows, counts in captured:
                assert_scan_is_the_loop(rows, counts.tolist())

    @pytest.mark.parametrize("bad", [{5: math.nan}, {0: math.nan}, {2: -math.inf, 4: -math.inf}],
                             ids=["g", "own", "inf-inf"])
    def test_nan_stays_in_its_segment(self, bad):
        # a NaN row spoils its own segment as it spoils _sweep's chain, and
        # the others' steps are the ones they get alone, bit for bit
        rng = np.random.default_rng([13, 2])
        counts = [300, 41, 700]
        parts = [sweep_rows(rng, count) for count in counts]
        alone = [scanned(part, [count]) for part, count in zip(parts, counts)]
        for column, value in bad.items():
            parts[1][column, 17] = value
        rows = np.concatenate(parts, axis=1)
        scan = np.split(scanned(rows, counts), np.cumsum(counts)[:-1])
        loop = np.split(np.array(scheduling._sweep(zip(*rows.tolist()))), np.cumsum(counts)[:-1])
        assert scan[0].tolist() == alone[0].tolist()
        assert scan[2].tolist() == alone[2].tolist()
        assert np.isnan(scan[1]).tolist() == np.isnan(loop[1]).tolist()
        assert np.isnan(scan[1]).any()

    def test_each_segment_steps_as_alone(self):
        # lines of uneven length, with zero pivots, infinite curvatures,
        # restarts and NaN anywhere, the last row of a line included: each
        # segment's steps are those it gets alone, bit for bit
        rng = np.random.default_rng([13, 3])
        for _ in range(30):
            counts = rng.integers(1, 200, int(rng.integers(2, 6))).tolist()
            parts = [sweep_rows(rng, count) for count in counts]
            for part in parts:
                for column, value in ((0, 0.0), (2, -math.inf), (1, 0.0), (5, math.nan)):
                    picked = rng.integers(0, part.shape[1], 2)
                    part[column, picked[rng.random(2) < 0.3]] = value
                if rng.random() < 0.5:
                    part[:5, -1] = 0.0        # a zero pivot in the last row
            alone = [repr(scanned(part, [count]).tolist()) for part, count in zip(parts, counts)]
            joined = np.split(scanned(np.concatenate(parts, axis=1), counts),
                              np.cumsum(counts)[:-1])
            assert [repr(steps.tolist()) for steps in joined] == alone

    def test_zero_pivot_divides_as_numpy_does(self):
        # own, bend_w, soft and stiff all 0 (own = w^2 / l underflows at
        # epochs of 1e-300 s): the compliance is 1 / 0.0 = inf, not an error
        rows = [[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]
        assert scheduling._sweep(rows) == [math.inf]
        assert scanned(np.array(rows).T, [1]).tolist() == [math.inf]


def test_line_search_leaves_a_stopped_segment_alone():
    # segment 0 was found optimal in this iteration, so the Newton step it
    # settled on still has its rows; however short their bound, it neither
    # steps nor fails, and segment 1 steps on
    curves = [(0.3, 0.5), (0.0, 0.0), (0.3, 0.5)]      # a seam at arrival 1
    kernels = scheduling._ArraySteps({0: 0.1, 2: 0.2}, [1.0] * 4, curves, 1.0, [0, 2])
    status = [scheduling.FREE, scheduling.EMPTY, scheduling.FREE]
    with np.errstate(all="ignore"):
        point = kernels.forward([0.05, 0.0, 0.1], status)
        moved, taken, failed = kernels.line_search(
            point, np.array([0, 2]), np.array([-1e30, 0.0, 0.0]), np.zeros(2), [1])
    assert failed == []
    assert taken[1] == 1.0
    assert moved[0].tolist() == point[0].tolist()


def empty_store():
    """N = 3 from an empty store: the first epoch has nothing to spend."""
    return EnergyScenario(initial_energy=0.0, packets=((1.0, 2.0), (2.0, 1.0), (3.5, 0.5)),
                          deadline=5.0)


class TestReports:
    """A lone short horizon of one segment builds its report in Python
    floats (``_ScalarSteps.report``), every other one in numpy
    (``_ArraySteps.report``); the trace of either is checked the same way."""

    @staticmethod
    def report_cases(circuit):
        cases = [(reference_horizon(circuit, n, 0), 1.0) for n in (8, 32)]
        cases += [(released_trio(), 1e-3), (empty_store(), 1.0)]
        for gain in (1e-3, 1.0, 2.7e8):
            rng = np.random.default_rng([3, 0])
            cases += [(heterogeneous_scenario(rng, circuit, 5), gain) for _ in range(40)]
        # fuzz draws 34 and 178 end an epoch near a full store, where the
        # harvest takes its q (e_max - r) cap
        rng = np.random.default_rng([8, 0])
        fuzz = [fuzz_scenario(rng, circuit) for _ in range(179)]
        return cases + [fuzz[34], fuzz[178]]

    def test_float_and_numpy_reports_agree(self, sim_circuit, monkeypatch):
        # the numpy report of the point the scalar kernels converged to
        # holds the same floats, field by field
        cases = self.report_cases(sim_circuit)
        floats = [solve(scenario, sim_circuit, gain) for scenario, gain in cases]
        optimal = scheduling._newton_method

        def as_arrays(opening, *args):
            steps, residuals, powers, ends = optimal(opening, *args)
            assert isinstance(steps, scheduling._ScalarSteps)
            arrays = scheduling._ArraySteps(opening, steps.lengths, steps.curves, steps.gain,
                                            [0])
            return arrays, np.array(residuals), np.array(powers), ends

        monkeypatch.setattr(scheduling, "_newton_method", as_arrays)
        for (scenario, gain), report in zip(cases, floats):
            assert repr(solve(scenario, sim_circuit, gain)) == repr(report)
        first = floats[3].schedule.powers      # the empty store's
        assert first[0] == 0.0 and first[-1] > 0.0

    @pytest.mark.parametrize("n_packets", [8, 256], ids=["floats", "numpy"])
    @pytest.mark.parametrize("overdraw, violated", [
        ("terminal", "causality"), ("overfull", "capacity"), ("both", "causality")])
    def test_optimum_that_fails_the_check(self, sim_circuit, monkeypatch, n_packets, overdraw,
                                          violated):
        # the last epoch spends more than the store holds, arrival 3 holds
        # 1.5 e_max, or both: the solve raises with the first failing epoch,
        # and names causality over the whole horizon before an earlier
        # capacity failure
        scenario = reference_horizon(sim_circuit, n_packets, 0)
        iterations = solve(scenario, sim_circuit).iterations
        optimal = scheduling._newton_method

        def overdrawn(*args):
            steps, residuals, powers, ends = optimal(*args)
            if overdraw != "overfull":
                powers[-1] *= 1.001
            if overdraw != "terminal":
                residuals[3] = 1.5 * sim_circuit.e_max
            return steps, residuals, powers, ends

        monkeypatch.setattr(scheduling, "_newton_method", overdrawn)
        with pytest.raises(SolverError, match="fails the feasibility check") as excinfo:
            solve(scenario, sim_circuit)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["violated"] == violated
        assert diagnostics["epoch"] == (4 if overdraw == "overfull" else n_packets + 1)
        assert diagnostics["iterations"] == iterations


def scalar_kernels(scenario, circuit, gain):
    """The scalar kernels of a lone solve of ``scenario``, with its epoch
    lengths and charge curves as :func:`_solve_batch` builds them."""
    bounds = (0.0, *(t for t, _ in scenario.packets), scenario.deadline)
    root = math.sqrt(circuit.e_max)
    return scheduling._ScalarSteps(scenario.initial_energy,
                                   [b - a for a, b in zip(bounds, bounds[1:])],
                                   [(root * q, s) for q, s in scenario._maps(circuit.tau)], gain)


def walked_starts(kernels):
    """Both starts' residuals, each walked from its own store: half the
    store kept, and the store spent evenly over the time left."""
    half, even = [], []
    kept = spread = kernels.initial_energy
    left = list(itertools.accumulate(reversed(kernels.lengths)))[::-1]
    for (a, s), l, rest in zip(kernels.curves, kernels.lengths, left):
        r = 0.5 * kept
        root = a + s * math.sqrt(r)
        kept = root * root
        half.append(r)
        r = (1.0 - l / rest) * spread
        root = a + s * math.sqrt(r)
        spread = root * root
        even.append(r)
    return half, even


def listed_forward(kernels, residuals, status):
    """The point of a list of residuals, projected and scored one arrival
    at a time as the scalar forward pass does."""
    status = list(status)
    out, powers = [], []
    stored, value = kernels.initial_energy, 0.0
    for i, ((a, s), l) in enumerate(zip(kernels.curves, kernels.lengths)):
        r = residuals[i]
        if status[i] == scheduling.FREE and not 0.0 < r < stored:
            status[i] = scheduling.IDLE
        if status[i] == scheduling.IDLE:
            r = stored
        p = (stored - r) / l
        value += l * math.log1p(kernels.gain * p)
        root = a + s * math.sqrt(r)
        stored = root * root
        out.append(r)
        powers.append(p)
    p = stored / kernels.lengths[-1]
    value += kernels.lengths[-1] * math.log1p(kernels.gain * p)
    return out, [*powers, p], status, [value]


class TestScalarKernels:
    """The scalar kernels build both starts in one walk, form each trial
    point inside the forward pass and sum the report's bits over lists:
    the same floats as the walk, the trial lists and :func:`_bits`."""

    @staticmethod
    def start_cases(circuit):
        reference = reference_horizon(circuit, 8, 0)
        # packets that charge nothing keep an empty store empty
        barren = EnergyScenario(0.0, tuple((t, 0.0) for t, _ in reference.packets),
                                reference.deadline)
        cases = [scalar_kernels(barren, circuit, 1.0),
                 scalar_kernels(dataclasses.replace(reference, initial_energy=0.0), circuit, 1.0),
                 scalar_kernels(dataclasses.replace(reference, initial_energy=circuit.e_max),
                                circuit, 1.0),
                 scalar_kernels(reference_horizon(circuit, 1, 0), circuit, 1.0),
                 scalar_kernels(reference_horizon(circuit, 63, 0), circuit, 1.0)]
        rng = np.random.default_rng([8, 0])
        for _ in range(300):
            scenario, gain = fuzz_scenario(rng, circuit)
            cases.append(scalar_kernels(scenario, circuit, gain))
        return cases

    def test_one_walk_start_is_the_better_listed_start(self, sim_circuit):
        # E0 = 0 idles the first half residual, and every one where the
        # packets charge nothing; E0 = e_max starts full, and the fuzz
        # draws hold subnormal stores, where a projected residual parts a
        # start's point from its walk
        parted = 0
        for k, kernels in enumerate(self.start_cases(sim_circuit)):
            status = [scheduling.FREE] * len(kernels.curves)
            walked = walked_starts(kernels)
            half, even = (listed_forward(kernels, start, status) for start in walked)
            better = even if even[3][0] > half[3][0] else half
            assert repr(kernels.start(status)) == repr(better)
            if k == 0:
                assert half[2] == [scheduling.IDLE] * 8
            parted += half[0] != walked[0] and half[0][1:] != walked[0][1:]
        assert parted >= 1

    def test_a_tie_keeps_the_half_start(self):
        # at a gain of 2^-600 both starts spend the store for the same
        # value, from different residuals
        kernels = scheduling._ScalarSteps(1.0, [2.0, 1.0], [(0.0, 1.0)], 2.0 ** -600)
        half, even = (listed_forward(kernels, start, [scheduling.FREE])
                      for start in walked_starts(kernels))
        assert half[3] == even[3] and half[0] != even[0]
        assert kernels.start([scheduling.FREE]) == half

    def test_forward_forms_the_trial_points(self, sim_circuit, monkeypatch):
        # every trial point of the fuzz and heterogeneous solves is the
        # point of the trial list, r + t d + 0.25 (t d)(t d) / r where d is
        # not 0
        forward, trials = scheduling._ScalarSteps.forward, []

        def checked(self, residuals, status, step, t):
            point = forward(self, residuals, status, step, t)
            listed = [r + t * d + 0.25 * ((t * d) * (t * d)) / r if d else r
                      for r, d in zip(residuals, step)]
            assert repr(point) == repr(listed_forward(self, listed, status))
            trials.append(t)
            return point

        monkeypatch.setattr(scheduling._ScalarSteps, "forward", checked)
        rng = np.random.default_rng([8, 0])
        for _ in range(300):
            scenario, gain = fuzz_scenario(rng, sim_circuit)
            solved_alone(scenario, sim_circuit, gain)
        rng = np.random.default_rng([3, 0])
        for gain in (1e-3, 1.0, 2.7e8):
            for _ in range(100):
                solved_alone(heterogeneous_scenario(rng, sim_circuit, 5), sim_circuit, gain)
        assert len(trials) > 1000 and min(trials) < 1.0

    def test_bits_are_the_numpy_sum(self, sim_circuit):
        draws = []
        rng = np.random.default_rng([8, 0])
        draws += [fuzz_scenario(rng, sim_circuit) for _ in range(1000)]
        rng = np.random.default_rng([3, 0])
        draws += [(heterogeneous_scenario(rng, sim_circuit, 5), gain)
                  for gain in (1e-3, 1.0, 2.7e8) for _ in range(300)]
        checked = 0
        for scenario, gain in draws:
            report = solved_alone(scenario, sim_circuit, gain)
            if isinstance(report, SolverError):
                continue
            lengths = scalar_kernels(scenario, sim_circuit, gain).lengths
            bits = float(_bits(np.array(report.schedule.powers), np.array(lengths), gain))
            assert repr(report.throughput) == repr(bits)
            checked += 1
        assert checked >= 1800

    @pytest.mark.parametrize("power", [math.nan, math.inf, -0.5])
    def test_bad_power_is_refused(self, sim_circuit, monkeypatch, power):
        # a power the range test refuses in an epoch the feasibility test
        # passes: the report refuses it as _bits does
        optimal = scheduling._newton_method

        def corrupted(*args):
            steps, residuals, powers, ends = optimal(*args)
            assert isinstance(steps, scheduling._ScalarSteps)
            powers[2] = power
            return steps, residuals, powers, ends

        monkeypatch.setattr(scheduling, "_newton_method", corrupted)
        with pytest.raises(ValueError, match="schedule powers must be finite and non-negative"):
            solve(reference_horizon(sim_circuit, 8, 0), sim_circuit)


SIM = ChargeCircuit(resistance=4000.0, capacitance=0.05, v_max=2.5)


@st.composite
def heterogeneous_scenarios(draw):
    """The heterogeneous family, drawn by hypothesis (N up to 5)."""
    n = draw(st.integers(1, 5))
    log_length = st.floats(math.log(1e-3), math.log(10.0))
    log_duration = st.floats(math.log(1e-4), math.log(3.0))
    bounds = np.cumsum([math.exp(draw(log_length)) for _ in range(n + 1)])
    durations = [SIM.tau * math.exp(draw(log_duration)) for _ in range(n)]
    initial = draw(st.floats(0.0, 1.0)) * SIM.e_max
    return EnergyScenario(initial_energy=initial, packets=tuple(zip(bounds[:-1], durations)),
                          deadline=float(bounds[-1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(heterogeneous_scenarios())
def test_optimal_beats_every_policy(scenario):
    report = solve(scenario, SIM)
    trace, bits = replay(report.schedule, scenario, SIM)
    assert not any(trace.clamped)
    zero = TransmissionSchedule(powers=(0.0,) * (scenario.n_packets + 1),
                                epoch_bounds=tuple(scenario.epoch_bounds))
    online = OnlinePredictivePolicy(prior_length=float(np.mean(scenario.packet_lengths)),
                                    prior_gap=float(np.mean(scenario.epoch_lengths)))
    for policy in (max_harvest_schedule(scenario, SIM), online, zero):
        _, other = replay(policy, scenario, SIM)
        assert bits >= other - 1e-12 * max(1.0, other)


def log1p_bits(powers, scenario, gain):
    """Bits summed with log1p, which keep their relative accuracy where
    g p is far below 1 (log2(1 + g p) rounds it away)."""
    lengths = scenario.epoch_lengths.tolist()
    return sum(0.5 * l * math.log1p(gain * p) for l, p in zip(lengths, powers)) / math.log(2.0)


def fuzz_scenario(rng, circuit):
    """N in 0..6, epochs 10^U(-7, 5) s, charge durations 0 (one in ten) or
    tau 10^U(-12, 4), initial energies from 0 through the smallest
    subnormal to e_max, and gains of 1e-3, 1 and 2.7e8 per watt."""
    n = int(rng.integers(0, 7))
    bounds = np.cumsum(10.0 ** rng.uniform(-7.0, 5.0, n + 1)).tolist()
    durations = [0.0 if rng.random() < 0.1 else circuit.tau * 10.0 ** rng.uniform(-12.0, 4.0)
                 for _ in range(n)]
    initial = [0.0, 5e-324, 1e-300, 1e-15, float(rng.uniform(0.0, circuit.e_max)),
               circuit.e_max][int(rng.integers(0, 6))]
    gain = (1e-3, 1.0, 2.7e8)[int(rng.integers(0, 3))]
    return EnergyScenario(initial_energy=initial, packets=tuple(zip(bounds[:-1], durations)),
                          deadline=bounds[-1]), gain


def assert_beats_max_harvest(report, scenario, circuit, gain):
    trace, _ = replay(report.schedule, scenario, circuit)
    assert not any(trace.clamped)
    greedy, _ = replay(max_harvest_schedule(scenario, circuit), scenario, circuit)
    lengths = scenario.epoch_lengths.tolist()
    other = log1p_bits([c / l for c, l in zip(greedy.consumed, lengths)], scenario, gain)
    assert log1p_bits(report.schedule.powers, scenario, gain) >= other - 1e-9 * other


class TestTinyStores:
    """Stores and residuals near the bottom of the float range."""

    @pytest.mark.parametrize("threshold", [scheduling.ARRAY_MIN_PACKETS, 1],
                             ids=["floats", "arrays"])
    def test_epochs_of_1e_300_seconds(self, monkeypatch, threshold):
        # fig5's point at a mean epoch of 1e-300 s, its harvest scaled
        # along: w^2 / l underflows to 0, and the sweep's zero pivot raised
        # ZeroDivisionError on run 1 under both kernel sets
        monkeypatch.setattr(scheduling, "ARRAY_MIN_PACKETS", threshold)
        config = experiment_config(parse_config({"runs": 2}))
        point = dataclasses.replace(config, mean_epoch_length=1e-300, mean_harvest=(
            config.mean_harvest * 1e-300 / config.mean_epoch_length))
        reports = [solved_alone(scenario, point.circuit, 1.0)
                   for scenario, _ in simulator._draw_scenarios(point, 2)]
        assert all(isinstance(report, (scheduling.SolveReport, SolverError))
                   for report in reports)

    @pytest.mark.parametrize("gain", [1.0, 2.7e8])
    @pytest.mark.parametrize("packets", [((1.0, 10.0),), ((1.0, 10.0), (2.0, 10.0))],
                             ids=["N1", "N2"])
    def test_smallest_subnormal_initial_energy(self, sim_circuit, packets, gain):
        # half of 5e-324 rounds to 0, a free residual there has no Newton
        # step; the optimum keeps the store for the harvest, as from 0
        s = EnergyScenario(initial_energy=5e-324, packets=packets, deadline=3.0)
        report = solve(s, sim_circuit, gain)
        empty = solve(EnergyScenario(initial_energy=0.0, packets=packets, deadline=3.0),
                      sim_circuit, gain)
        assert report.schedule.powers[0] == 0.0
        assert report.schedule.powers == pytest.approx(empty.schedule.powers, rel=1e-12)
        assert_beats_max_harvest(report, s, sim_circuit, gain)
        oracle = brute_force_optimize(s, sim_circuit, gain=gain)
        assert oracle.throughput - report.throughput <= 1e-9

    @pytest.mark.parametrize("initial, packets, deadline, gain", [
        (1e-15, ((1.5935408672891003e-07, 0.0), (209.15329740229603, 1.5691055310000672e-05)),
         1483.144064379899, 1e-3),
        (1e-15, ((0.00011711808475879579, 0.0), (0.000377136929233885, 7.485831369445649e-07),
                 (0.00037843222813399975, 0.007296894228821013)), 47427.924717028545, 2.7e8),
        (0.0, ((197.0661974472603, 0.004881225761690939), (197.06619780106675, 0.0),
               (197.06620215168132, 1.2615849686021867), (9529.65161432533, 120008.40887629334),
               (9529.651659302272, 0.06458580705506396), (9529.6549355884, 23785.676569136784)),
         9529.655614328067, 1.0),
        (5e-324, ((7319.514766364254, 0.04357893993933827),
                  (12281.275675188039, 0.5553116088868463),
                  (12281.275868219802, 1.0546848120519882e-09),
                  (12281.275868702254, 295.6068816335864)), 25151.104624305746, 1e-3),
    ], ids=["E0=1e-15,g=1e-3", "E0=1e-15,g=2.7e8", "E0=0,g=1", "E0=5e-324,g=1e-3"])
    def test_nearly_idle_epoch_is_blocked_however_short_the_step(
            self, sim_circuit, initial, packets, deadline, gain):
        # a power of 1e-16 to 1e-27 W ahead of a step of 1e-15 to 1e-10 J:
        # the step drains the epoch and the projection holds it at zero,
        # where a step that stopped at its p = 0 would be shorter than
        # MIN_STEP
        s = EnergyScenario(initial_energy=initial, packets=packets, deadline=deadline)
        report = solve(s, sim_circuit, gain)
        assert report.schedule.powers[0] == 0.0
        assert_beats_max_harvest(report, s, sim_circuit, gain)

    @pytest.mark.parametrize("gain", [1.0, 2.7e8])
    def test_long_packet_residual_falls_fast(self, sim_circuit, gain):
        # the optimal residual ahead of a 30 tau packet is about 1e-27 J;
        # a step may take u = sqrt(r) to a tenth of itself, so r falls by
        # 1e-2 per step, not to a quarter of itself (45 steps)
        s = EnergyScenario(initial_energy=0.1, packets=((1.0, 30.0 * sim_circuit.tau),),
                           deadline=2.0)
        report = solve(s, sim_circuit, gain)
        assert report.iterations <= 16
        assert report.schedule.powers[0] == 0.1
        assert_beats_max_harvest(report, s, sim_circuit, gain)

    def test_fuzz_family(self, sim_circuit):
        rng = np.random.default_rng([8, 0])
        steps = []
        for _ in range(1500):
            scenario, gain = fuzz_scenario(rng, sim_circuit)
            report = solve(scenario, sim_circuit, gain)
            assert_beats_max_harvest(report, scenario, sim_circuit, gain)
            steps.append(report.iterations)
        assert max(steps) <= 44


def sweep_batches(monkeypatch, strategies=("optimal",), axes=("mean_epoch_length", "capacitance"),
                  rate_model="normalized"):
    """(scenarios, circuit, gain, results) of each batched solve that
    monte_carlo runs on the reference sweep axes."""
    run = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.yaml")
    run = dataclasses.replace(run, rate_model=rate_model)
    values = {"mean_epoch_length": run.sweep.epoch_lengths, "capacitance": run.sweep.capacitances}
    batches = []

    def spied(scenarios, circuit, gain):
        results = scheduling._solve_batch(scenarios, circuit, gain)
        batches.append((scenarios, circuit, gain, results))
        return results

    monkeypatch.setattr(simulator, "_solve_batch", spied)
    for axis in axes:
        monte_carlo(experiment_config(run), strategies, axis, values[axis])
    return batches


def test_reference_fig5_solves_in_few_newton_steps(monkeypatch):
    # root-energy steps from the better start: at most 8 per scenario on
    # both fig5 axes (11-12 with r steps from half the store)
    steps = [report.iterations for *_, reports in sweep_batches(monkeypatch)
             for report in reports]
    assert len(steps) == 300
    assert max(steps) <= 8


def solved_alone(scenario, circuit, gain):
    try:
        return solve(scenario, circuit, gain)
    except SolverError as exc:
        return exc


def by_size_and_gain(draws):
    groups = {}
    for scenario, gain in draws:
        groups.setdefault((scenario.n_packets, gain), []).append(scenario)
    return groups


def idle_epochs(report):
    return [i for i, p in enumerate(report.schedule.powers) if p == 0.0]


def idle_heavy_batch():
    """30 draws at 0.12 F with N = 32, E0 = 0 and a tenth of the reference
    harvest: about five idle epochs per optimum."""
    circuit = ChargeCircuit(resistance=4000.0, capacitance=0.12, v_max=2.5)
    config = ExperimentConfig(circuit=circuit, mean_epoch_length=0.02, mean_harvest=0.003,
                              packet_count=32, initial_energy=0.0, runs=30, seed=42)
    return [scenario for scenario, _ in simulator._draw_scenarios(config, 30)], circuit


def release_pair():
    """Two N = 2 draws: joined, the first (5 steps alone) turns an epoch
    idle and is stationary at step 5 while the second (9 steps alone)
    still steps."""
    return [
        EnergyScenario(initial_energy=0.051000548799102034, deadline=12.028007743650251,
                       packets=((5.853344236465875, 8.260188778333207),
                                (6.632550809656879, 0.0207242362251598))),
        EnergyScenario(initial_energy=0.032773839992761844, deadline=8.22864392558588,
                       packets=((0.5293284134211169, 400.85610264227336),
                                (8.057643082842558, 0.18818636957024704)))]


def trio_pair(draw, trio_first):
    """released_trio() with draw ``draw`` of heterogeneous_horizon(
    default_rng([7, 0]), SIM, 6), in either order."""
    rng = np.random.default_rng([7, 0])
    other = [heterogeneous_horizon(rng, SIM, 6) for _ in range(draw + 1)][-1]
    return [released_trio(), other] if trio_first else [other, released_trio()]


class TestBatchedSolve:
    """monte_carlo solves a sweep point's scenarios as one joined horizon.
    Each segment of it steps as it would alone, so each member gets its
    lone solve's report, field for field, or its SolverError."""

    @staticmethod
    def assert_lone_reports(scenarios, reports, circuit, gain, alone=None):
        """Each member's report equals its lone solve's (``alone``, or
        solved here), and a failed member's diagnostics its lone
        failure's."""
        if alone is None:
            alone = [solved_alone(scenario, circuit, gain) for scenario in scenarios]
        assert len(reports) == len(alone)
        for joined, lone in zip(reports, alone):
            assert type(joined) is type(lone)
            if isinstance(lone, SolverError):
                assert joined.diagnostics == lone.diagnostics
            else:
                assert joined == lone

    def test_reference_sweeps_agree(self, monkeypatch):
        # every fig5 and fig6 point, under both rate models
        for rate_model in ("normalized", "link-budget"):
            batches = [*sweep_batches(monkeypatch, rate_model=rate_model),
                       *sweep_batches(monkeypatch, ("optimal", "max_harvest", "tight_string"),
                                      ("mean_epoch_length",), rate_model)]
            assert sum(len(scenarios) for scenarios, *_ in batches) == 450
            for scenarios, circuit, gain, reports in batches:
                self.assert_lone_reports(scenarios, reports, circuit, gain)

    @pytest.mark.parametrize("family", ["heterogeneous", "fuzz"])
    def test_random_draws_agree(self, family):
        if family == "heterogeneous":
            rng = np.random.default_rng([3, 0])
            draws = [(heterogeneous_scenario(rng, SIM, 5), 1.0) for _ in range(600)]
        else:
            rng = np.random.default_rng([8, 0])
            draws = [fuzz_scenario(rng, SIM) for _ in range(1500)]
        groups = by_size_and_gain(draws)
        assert family == "heterogeneous" or any(n == 0 for n, _ in groups)
        for (_, gain), scenarios in groups.items():
            self.assert_lone_reports(scenarios, scheduling._solve_batch(scenarios, SIM, gain),
                                     SIM, gain)

    @pytest.mark.parametrize("members", [("hetero256/2", "hetero256/4", "N256"),
                                         ("hetero1024/1", "N1024"), ("empty128", "N128")],
                             ids=["N256", "N1024", "N128"])
    def test_long_horizons_agree(self, sim_circuit, members):
        # the array kernels, on same-N groups of KERNEL_CASES horizons
        cases = {**KERNEL_CASES, "N128": lambda circuit: (reference_horizon(circuit, 128, 0), 1.0)}
        scenarios = [cases[name](sim_circuit)[0] for name in members]
        self.assert_lone_reports(scenarios, scheduling._solve_batch(scenarios, sim_circuit),
                                 sim_circuit, 1.0)

    def test_members_split_by_flat_maps_agree(self, sim_circuit):
        # joined, a member of two segments steps each as its lone solve
        # does; both step on the array kernels
        scenarios = [with_flat_map(sim_circuit, k) for k in range(8)]
        scenarios += [reference_horizon(sim_circuit, 8, seed) for seed in range(4)]
        self.assert_lone_reports(scenarios, scheduling._solve_batch(scenarios, sim_circuit),
                                 sim_circuit, 1.0)

    def test_member_releases_while_another_steps(self):
        # holding the release until the whole batch was stationary took
        # the joined run to 13 steps
        self.assert_lone_reports(release_pair(), scheduling._solve_batch(release_pair(), SIM),
                                 SIM, 1.0)

    @pytest.mark.parametrize("draw", range(5))
    @pytest.mark.parametrize("trio_first", [True, False])
    def test_zero_step_bound_in_one_segment(self, draw, trio_first):
        # the joined step drains a just released epoch of the trio's (a
        # step bound of 0, had the step stopped at its p = 0) while the
        # other member steps on: each member gets its lone report
        scenarios = trio_pair(draw, trio_first)
        self.assert_lone_reports(scenarios, scheduling._solve_batch(scenarios, SIM, 1e-3), SIM,
                                 1e-3)

    @pytest.mark.parametrize("trio_first", [True, False])
    @pytest.mark.parametrize("threshold", [scheduling.ARRAY_MIN_PACKETS, 1],
                             ids=["floats", "arrays"])
    def test_trio_batch_takes_each_members_lone_steps(self, monkeypatch, trio_first,
                                                      threshold):
        # the trio and the fifth [7, 0] draw took 17 steps joined, on one
        # start, one step length and one release trigger for both; alone
        # they take 6 and 8, on the scalar or the array kernels
        monkeypatch.setattr(scheduling, "ARRAY_MIN_PACKETS", threshold)
        reports = scheduling._solve_batch(trio_pair(4, trio_first), SIM, 1e-3)
        steps = [report.iterations for report in reports]
        assert steps == ([6, 8] if trio_first else [8, 6])

    @pytest.mark.parametrize("case", ["trio", "release", "heterogeneous"])
    def test_short_batches_on_the_array_kernels(self, monkeypatch, case):
        # a short batch solves each member alone, in floats; forced onto
        # the array kernels, joined, each member still gets its lone report
        if case == "trio":
            batches = [(trio_pair(draw, first), 1e-3) for draw in range(5)
                       for first in (True, False)]
        elif case == "release":
            batches = [(release_pair(), 1.0)]
        else:
            rng = np.random.default_rng([3, 0])
            draws = [(heterogeneous_scenario(rng, SIM, 5), gain) for gain in (1e-3, 1.0, 2.7e8)
                     for _ in range(40)]
            batches = [(scenarios[:8], gain)
                       for (_, gain), scenarios in by_size_and_gain(draws).items()]
        for scenarios, gain in batches:
            alone = [solved_alone(scenario, SIM, gain) for scenario in scenarios]
            with monkeypatch.context() as patched:
                patched.setattr(scheduling, "ARRAY_MIN_PACKETS", 1)
                reports = scheduling._solve_batch(scenarios, SIM, gain)
            self.assert_lone_reports(scenarios, reports, SIM, gain, alone)

    @pytest.mark.parametrize("group", ["N256", "N1024", "N128", "flat", "idle"])
    def test_scans_take_each_members_lone_steps(self, sim_circuit, monkeypatch, group):
        # the scans take every segment, joined or alone (a lone short
        # horizon on the array kernels too): each member's segments are
        # lines of their own, so each member still gets its lone report
        monkeypatch.setattr(scheduling, "SCAN_MIN_ROWS", 2)
        monkeypatch.setattr(scheduling, "ARRAY_MIN_PACKETS", 1)
        lines = []
        scan = scheduling._scan_sweep

        def counted(rows, starts, counts):
            lines.append(len(starts))
            return scan(rows, starts, counts)

        monkeypatch.setattr(scheduling, "_scan_sweep", counted)
        circuit = sim_circuit
        if group == "flat":
            scenarios = [with_flat_map(sim_circuit, k) for k in range(8)]
            scenarios += [reference_horizon(sim_circuit, 8, seed) for seed in range(4)]
        elif group == "idle":
            scenarios, circuit = idle_heavy_batch()
        else:
            cases = {**KERNEL_CASES,
                     "N128": lambda circuit: (reference_horizon(circuit, 128, 0), 1.0)}
            members = {"N256": ("hetero256/2", "hetero256/4", "N256"),
                       "N1024": ("hetero1024/1", "N1024"), "N128": ("empty128", "N128")}
            scenarios = [cases[name](sim_circuit)[0] for name in members[group]]
        reports = scheduling._solve_batch(scenarios, circuit)
        assert max(lines) >= len(scenarios)
        lines.clear()
        self.assert_lone_reports(scenarios, reports, circuit, 1.0)
        assert lines

    def test_idle_heavy_batch_takes_its_slowest_members_steps(self):
        # each member bounds its own step and releases its own idle epochs:
        # one bound shared by the whole batch took over a hundred steps here
        scenarios, circuit = idle_heavy_batch()
        reports = scheduling._solve_batch(scenarios, circuit)
        assert sum(len(idle_epochs(report)) for report in reports) >= 4 * len(scenarios)
        assert max(report.iterations for report in reports) <= 8
        self.assert_lone_reports(scenarios, reports, circuit, 1.0)

    @pytest.mark.parametrize("limit", [1, 6])
    def test_failures_carry_diagnostics(self, sim_circuit, monkeypatch, limit):
        # cut off after `limit` steps, each member fails or converges as
        # it would alone, from the one joined run; at 6 steps the batch
        # holds both kinds
        monkeypatch.setattr(scheduling, "MAX_ITERATIONS", limit)
        config = medium_config(sim_circuit, 8, 0)
        scenarios = [generate_scenario(config, np.random.default_rng([0, run]))[0]
                     for run in range(30)]
        runs = []
        optimal = scheduling._newton_method

        def counted(*args):
            runs.append(args)
            return optimal(*args)

        monkeypatch.setattr(scheduling, "_newton_method", counted)
        results = scheduling._solve_batch(scenarios, sim_circuit)
        assert len(runs) == 1
        failed = [isinstance(r, SolverError) for r in results]
        assert all(failed) if limit == 1 else 0 < sum(failed) < len(failed)
        self.assert_lone_reports(scenarios, results, sim_circuit, 1.0)
        for batched in results:
            if isinstance(batched, SolverError):
                assert batched.diagnostics["iterations"] == limit
                assert batched.diagnostics["newton_decrement"] > 0.0
