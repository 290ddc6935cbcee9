import math

import numpy as np
import pytest

from rfharvest import (
    EnergyScenario,
    ExperimentConfig,
    SolverError,
    TransmissionSchedule,
    check_feasibility,
    find_candidates,
    generate_scenario,
    harvest_sensitivity,
    harvested_energy,
    optimal_residual,
    propagate,
    solve,
    terminal_residual,
    throughput,
)

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
    ])
    def test_rejects_degenerate_scenarios(self, kwargs):
        with pytest.raises(ValueError):
            EnergyScenario(**kwargs)


class TestPropagate:
    def test_single_epoch_depletes(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        schedule, trace = propagate(0.0, s, bench_circuit)
        assert schedule.powers == (0.1,)
        assert trace.terminal_residual == 0.0

    def test_power_unchanged_at_zero_sensitivity(self, bench_circuit):
        # Pin the residual at the first arrival exactly on the harvest
        # maximum: the stationarity update must keep the power level.
        r_star = optimal_residual(5.0, bench_circuit)
        s = EnergyScenario(**TWO_PACKET)
        schedule, trace = propagate(r_star, s, bench_circuit)
        assert schedule.powers[1] == pytest.approx(schedule.powers[0], rel=1e-12)

    def test_stationarity_update_arithmetic(self):
        assert (1.0 + 1.0) * (0.0319 + 1.0) - 1.0 == pytest.approx(1.0638, rel=1e-12)

    def test_energy_conservation_link_by_link(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        _, trace = propagate(0.38, s, bench_circuit)
        for i in range(s.n_packets):
            expected = (trace.residuals[i] + trace.harvested[i]
                        - trace.consumed[i + 1])
            assert trace.residuals[i + 1] == pytest.approx(expected, abs=1e-15)

    def test_depleted_arrival_marks_infeasible(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        schedule, trace = propagate(1e-300, s, bench_circuit)
        # the sensitivity blows up at the first arrival and the second
        # epoch overdraws, so the propagation dies at the second arrival
        assert trace.infeasible_from == 2
        assert math.isnan(trace.residuals[-1])

    def test_rejects_negative_start(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        with pytest.raises(ValueError):
            propagate(-0.01, s, bench_circuit)


class TestTerminalResidual:
    def test_single_epoch_is_identity(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        for r in (0.0, 0.25, 0.9):
            assert terminal_residual(r, s, bench_circuit) == r

    def test_zero_power_keeps_initial_energy(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        assert terminal_residual(1.0, s, bench_circuit) == 1.0

    def test_infeasible_maps_to_minus_infinity(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        assert terminal_residual(1e-300, s, bench_circuit) == -math.inf

    def test_matches_propagate_bit_for_bit(self, bench_circuit, sim_circuit):
        # the grid starts at 0 and includes near-empty starts, so some
        # propagations deplete at an arrival and must map to -inf
        rng = np.random.default_rng([102, 0])
        generated, _ = generate_scenario(medium_config(sim_circuit, 6, 0), rng)
        depleted = 0
        for s, circuit in ((EnergyScenario(**TWO_PACKET), bench_circuit),
                           (generated, sim_circuit)):
            grid = np.concatenate(([0.0, 1e-300, 1e-12],
                                   np.linspace(0.0, 2.0 * s.initial_energy, 101)))
            for r in grid:
                _, trace = propagate(r, s, circuit)
                value = terminal_residual(r, s, circuit)
                if trace.infeasible_from is not None:
                    depleted += 1
                    assert value == -math.inf
                else:
                    assert value == trace.terminal_residual
        assert depleted > 0

    def test_two_packet_scenario_has_a_sign_change(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        grid = np.linspace(1e-6, s.initial_energy, 1000)
        values = [terminal_residual(r, s, bench_circuit) for r in grid]
        signs = [v < 0 for v in values if math.isfinite(v)]
        assert any(a != b for a, b in zip(signs, signs[1:]))


class TestFindCandidates:
    def test_no_packets_roots_at_zero(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        roots = find_candidates(s, bench_circuit)
        assert roots == [0.0]

    def test_two_packet_roots_are_roots(self, bench_circuit):
        # J crosses zero exactly once on this scenario (verified by the
        # 1000-point scan in TestTerminalResidual), so the bracketing
        # contract demands exactly one root
        s = EnergyScenario(**TWO_PACKET)
        roots = find_candidates(s, bench_circuit)
        assert len(roots) == 1
        for r in roots:
            assert abs(terminal_residual(r, s, bench_circuit)) <= 1e-10

    def test_bracketing_covers_the_oracle_optimum(self, bench_circuit):
        # the oracle's best first-epoch residual must fall into a bracket
        # the scan refined into a root
        from rfharvest import GridSpec, brute_force_optimize
        s = EnergyScenario(**TWO_PACKET)
        result = brute_force_optimize(s, bench_circuit, GridSpec())
        oracle_first_residual = (s.initial_energy
                                 - result.schedule.powers[0] * 10.0)
        roots = find_candidates(s, bench_circuit)
        pitch = 2.0 * (s.initial_energy + 0.1) / 59  # one grid cell, loosely
        assert min(abs(r - oracle_first_residual) for r in roots) < pitch


class TestCheckFeasibility:
    def test_zero_schedule_passes(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        schedule, trace = propagate(s.initial_energy, s, bench_circuit)
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
        assert a.first_residual == b.first_residual

    def test_report_bookkeeping(self, bench_circuit):
        s = EnergyScenario(**TWO_PACKET)
        report = solve(s, bench_circuit)
        assert report.terminal_residual_error <= 1e-10
        assert report.candidates_examined >= 3  # roots + two boundary points
        assert abs(report.trace.terminal_residual) == report.terminal_residual_error

    def test_rejects_overfull_battery(self, bench_circuit):
        s = EnergyScenario(initial_energy=bench_circuit.e_max * 1.01,
                           packets=(), deadline=10.0)
        with pytest.raises(ValueError):
            solve(s, bench_circuit)

    def test_reports_failure_with_diagnostics(self, sim_circuit):
        # energies far below the harvest-optimal residual leave no
        # interior stationary point, which the solver reports rather
        # than silently clamping
        s = EnergyScenario(initial_energy=1e-4,
                           packets=((20.0, 30.0), (40.0, 30.0)), deadline=60.0)
        with pytest.raises(SolverError) as excinfo:
            solve(s, sim_circuit)
        assert "candidates" in excinfo.value.diagnostics


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
