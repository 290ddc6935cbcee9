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
    check_feasibility,
    generate_scenario,
    harvest_sensitivity,
    harvested_energy,
    max_harvest_schedule,
    monte_carlo,
    optimal_residual,
    replay,
    solve,
    throughput,
)
from rfharvest.config import experiment_config, load_config

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


class TestPropagate:
    """The pass that turns solve's residuals into powers and a trace."""

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


class TestCheckFeasibility:
    def test_zero_schedule_passes(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        schedule = TransmissionSchedule(powers=(0.0, 0.0, 0.0),
                                        epoch_bounds=tuple(s.epoch_bounds))
        trace, _ = replay(schedule, s, bench_circuit)
        verdict = check_feasibility(schedule, trace, bench_circuit)
        assert verdict.ok

    def test_overdraw_fails_causality_at_first_epoch(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        schedule = TransmissionSchedule(powers=(0.2,), epoch_bounds=(0.0, 10.0))
        from rfharvest import HarvestTrace
        trace = HarvestTrace(residuals=(-1.0,), harvested=(), consumed=(2.0,))
        verdict = check_feasibility(schedule, trace, bench_circuit)
        assert not verdict.ok
        assert verdict.violated == "causality"
        assert verdict.epoch == 1

    def test_solve_winners_always_pass(self, sim_circuit):
        for seed in range(20):
            rng = np.random.default_rng([101, seed])
            scenario, _ = generate_scenario(medium_config(sim_circuit, 6, seed), rng)
            report = solve(scenario, sim_circuit)
            verdict = check_feasibility(report.schedule, report.trace, sim_circuit)
            assert verdict.ok


class TestThroughput:
    def test_silence_is_zero(self):
        s = TransmissionSchedule(powers=(0.0, 0.0), epoch_bounds=(0.0, 1.0, 2.0))
        assert throughput(s) == 0.0

    def test_spot_values(self):
        s = TransmissionSchedule(powers=(1.0,), epoch_bounds=(0.0, 10.0))
        assert throughput(s) == pytest.approx(5.0, rel=1e-15)
        s = TransmissionSchedule(powers=(3.0,), epoch_bounds=(0.0, 4.0))
        assert throughput(s) == pytest.approx(4.0, rel=1e-15)

    def test_tiny_snr_keeps_relative_precision(self, sim_circuit):
        # at g p = 1e-12, log2(1 + g p) rounds 1 + g p and is off by 1e-4
        scenario = EnergyScenario(0.1, ((1.0, 5.0), (3.0, 5.0)), 6.0)
        schedule = TransmissionSchedule(powers=(1e-12,) * 3,
                                        epoch_bounds=tuple(scenario.epoch_bounds))
        want = math.fsum(0.5 * l * math.log1p(1e-12) for l in (1.0, 2.0, 3.0)) / math.log(2.0)
        _, replayed = replay(schedule, scenario, sim_circuit)
        for bits in (throughput(schedule), replayed):
            assert abs(bits / want - 1.0) <= 1e-15

    def test_rejects_negative_power(self):
        s = TransmissionSchedule(powers=(-0.5,), epoch_bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            throughput(s)


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
        for scenario, report in self.winning_reports(sim_circuit, 20, 6, 202):
            powers = report.schedule.powers
            residuals = report.trace.residuals
            durations = scenario.packet_lengths
            for m in range(scenario.n_packets):
                x = harvest_sensitivity(residuals[m], durations[m], sim_circuit)
                lhs = 1.0 + powers[m + 1]
                rhs = (1.0 + powers[m]) * (x + 1.0)
                assert lhs == pytest.approx(rhs, rel=1e-12)

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


def heterogeneous_scenario(rng, circuit, max_packets):
    """A draw of the benchmark's heterogeneous family: 1..max_packets
    packets, epochs log-uniform in [1e-3, 10] s, charge durations
    log-uniform in [1e-4, 3] tau, any initial energy."""
    n = int(rng.integers(1, max_packets + 1))
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
        # the step that makes its epoch idle is shorter than MIN_STEP
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
        for _ in range(1500):
            scenario, gain = fuzz_scenario(rng, sim_circuit)
            assert_beats_max_harvest(solve(scenario, sim_circuit, gain), scenario, sim_circuit,
                                     gain)


def test_reference_fig5_solves_in_few_newton_steps(monkeypatch):
    # root-energy steps from the better start: at most 8 per scenario on
    # both fig5 axes (11-12 with r steps from half the store)
    run = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.yaml")
    point, steps = experiment_config(run), []

    def counted(*args):
        report = solve(*args)
        steps.append(report.iterations)
        return report

    monkeypatch.setattr(simulator, "solve", counted)
    monte_carlo(point, ("optimal",), "mean_epoch_length", run.sweep.epoch_lengths)
    monte_carlo(point, ("optimal",), "capacitance", run.sweep.capacitances)
    assert len(steps) == 300
    assert max(steps) <= 8
