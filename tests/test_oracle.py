import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rfharvest import (
    BudgetError,
    ChargeCircuit,
    EnergyScenario,
    ExperimentConfig,
    GridSpec,
    brute_force_optimize,
    generate_scenario,
    max_harvest_schedule,
    solve,
)
from rfharvest.config import experiment_config, load_config
from rfharvest.oracle import GROUP_SIZE, _brute_force_batch, _grid_axes
from rfharvest.scheduling import _bits, _solve_batch
from rfharvest.simulator import _draw_scenarios

import oracle_reference as ref


def medium_config(circuit, n, seed=0):
    return ExperimentConfig(circuit=circuit, mean_epoch_length=0.006,
                            mean_harvest=0.03, packet_count=n,
                            initial_energy=0.05, runs=1, seed=seed)


class TestGridSpec:
    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            GridSpec(resolution=1)
        with pytest.raises(ValueError):
            GridSpec(power_bound=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("power_bound", np.nan),
        ("power_bound", np.inf),
        ("resolution", 60.0),
        ("epoch_limit", 3.5),
        ("epoch_limit", False),
        ("eval_budget", np.nan),
        ("eval_budget", 1e6),
        ("eval_budget", True),
    ])
    def test_refuses_what_is_not_a_grid_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridSpec(**{field: value})

    def test_stores_numpy_integers_as_ints(self, sim_circuit):
        grid = GridSpec(resolution=np.int64(7), epoch_limit=np.int32(2))
        assert (grid.resolution, grid.epoch_limit) == (7, 2)
        assert type(grid.resolution) is type(grid.epoch_limit) is int
        s = EnergyScenario(0.01, ((1.0, 1.0),), 2.0)
        assert type(brute_force_optimize(s, sim_circuit, grid).evaluated) is int


class TestBruteForce:
    def test_no_packets_drains_exactly(self, bench_circuit):
        s = EnergyScenario(initial_energy=1.0, packets=(), deadline=10.0)
        result = brute_force_optimize(s, bench_circuit)
        assert result.schedule.powers == (0.1,)
        assert result.error_bound == 0.0
        assert result.evaluated == 1

    def test_zero_energy_means_silence(self, bench_circuit):
        s = EnergyScenario(initial_energy=0.0, packets=(), deadline=10.0)
        result = brute_force_optimize(s, bench_circuit)
        assert result.schedule.powers == (0.0,)
        assert result.throughput == 0.0

    @pytest.mark.parametrize("gain", [1.0, 2.7e8])
    def test_no_packets_scores_a_float(self, bench_circuit, gain):
        s = EnergyScenario(initial_energy=0.3, packets=(), deadline=7.0)
        assert type(brute_force_optimize(s, bench_circuit, gain=gain).throughput) is float

    def test_rejects_overfull_battery(self, sim_circuit):
        # as solve does: the replay would start outside the harvest's domain
        s = EnergyScenario(initial_energy=1.0, packets=((1.0, 0.0), (2.0, 0.0)), deadline=3.0)
        assert s.initial_energy > sim_circuit.e_max
        with pytest.raises(ValueError, match="e_max"):
            brute_force_optimize(s, sim_circuit, GridSpec(resolution=3, power_bound=1.0))

    @pytest.mark.parametrize("gain", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_gains(self, sim_circuit, gain):
        s = EnergyScenario(initial_energy=0.01, packets=((1.0, 1.0),), deadline=2.0)
        with pytest.raises(ValueError, match="gain"):
            brute_force_optimize(s, sim_circuit, gain=gain)

    def test_epoch_limit_enforced(self, sim_circuit):
        scenario, _ = generate_scenario(medium_config(sim_circuit, 4),
                                        np.random.default_rng(0))
        with pytest.raises(ValueError):
            brute_force_optimize(scenario, sim_circuit)

    def test_budget_enforced(self, sim_circuit):
        scenario, _ = generate_scenario(medium_config(sim_circuit, 3),
                                        np.random.default_rng(0))
        with pytest.raises(BudgetError):
            brute_force_optimize(scenario, sim_circuit,
                                 GridSpec(resolution=60, eval_budget=1000))

    def test_never_beats_the_solver(self, sim_circuit):
        for n in (1, 2, 3):
            for seed in range(5):
                rng = np.random.default_rng([40 + n, seed])
                scenario, _ = generate_scenario(medium_config(sim_circuit, n), rng)
                report = solve(scenario, sim_circuit)
                result = brute_force_optimize(scenario, sim_circuit)
                assert result.throughput <= report.throughput + 1e-9
                assert report.throughput - result.throughput <= result.error_bound

    def test_link_gain_never_beats_the_solver(self, sim_circuit, reference_link):
        gain = reference_link.gain
        for n in (1, 2, 3):
            rng = np.random.default_rng([46, n])
            scenario, _ = generate_scenario(medium_config(sim_circuit, n), rng)
            report = solve(scenario, sim_circuit, gain)
            result = brute_force_optimize(scenario, sim_circuit, gain=gain)
            assert result.throughput <= report.throughput + 1e-9
            assert report.throughput - result.throughput <= result.error_bound
            schedule = result.schedule
            assert result.throughput == pytest.approx(
                _bits(np.array(schedule.powers), np.diff(schedule.epoch_bounds), gain),
                rel=1e-12)
            unit = brute_force_optimize(scenario, sim_circuit)
            assert result.error_bound == pytest.approx(gain * unit.error_bound,
                                                       rel=1e-12)

    def test_unit_gain_is_the_default(self, sim_circuit):
        scenario, _ = generate_scenario(medium_config(sim_circuit, 2),
                                        np.random.default_rng([47, 0]))
        assert (repr(brute_force_optimize(scenario, sim_circuit, gain=1.0))
                == repr(brute_force_optimize(scenario, sim_circuit)))

    def test_refinement_never_worsens_and_gap_shrinks(self, sim_circuit):
        scenario, _ = generate_scenario(medium_config(sim_circuit, 3),
                                        np.random.default_rng([44, 0]))
        report = solve(scenario, sim_circuit)
        previous_best = -np.inf
        previous_gap = np.inf
        # nested grids: interval counts double at each level
        for resolution in (15, 29, 57):
            result = brute_force_optimize(
                scenario, sim_circuit,
                GridSpec(resolution=resolution, eval_budget=60 ** 3))
            assert result.throughput >= previous_best - 1e-12
            gap = report.throughput - result.throughput
            assert gap <= previous_gap + 1e-12
            previous_best = result.throughput
            previous_gap = gap

    def test_winner_respects_battery_headroom(self, sim_circuit):
        # replay the winning tuple and confirm the capacity bound that
        # the charge physics enforces
        from rfharvest import replay
        for seed in range(5):
            rng = np.random.default_rng([45, seed])
            scenario, _ = generate_scenario(medium_config(sim_circuit, 3), rng)
            result = brute_force_optimize(scenario, sim_circuit)
            trace, _ = replay(result.schedule, scenario, sim_circuit)
            for r, h in zip(trace.residuals, trace.harvested):
                assert max(r, 0.0) + h < sim_circuit.e_max
            assert not any(trace.clamped)

    def test_lexicographic_tie_break(self, bench_circuit):
        # a scenario with no usable energy has every zero-consumption
        # tuple tied at zero throughput; the all-zero tuple must win
        s = EnergyScenario(initial_energy=0.0, packets=((1.0, 0.0),), deadline=2.0)
        result = brute_force_optimize(s, bench_circuit)
        assert result.schedule.powers[0] == 0.0

    def test_overflowing_optimal_residual_packet(self, sim_circuit):
        # (1 + exp(T/tau)) ** 2 overflows at 400 tau; the oracle's power
        # bound and the greedy policy both need the optimal residual
        s = EnergyScenario(0.05, ((1.0, 400 * sim_circuit.tau),), 2.0)
        max_harvest_schedule(s, sim_circuit)
        result = brute_force_optimize(s, sim_circuit)
        report = solve(s, sim_circuit)
        assert result.throughput <= report.throughput + 1e-9

    def test_peak_allocation_below_one_grid_array(self, sim_circuit):
        # at the derived bound under 1 % of the 60^3 tuples are causal;
        # the walk must not allocate on the scale of the whole grid
        for seed in range(10):
            scenario, _ = generate_scenario(medium_config(sim_circuit, 3),
                                            np.random.default_rng([49, seed]))
            tracemalloc.start()
            try:
                brute_force_optimize(scenario, sim_circuit)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 60 ** 3 * np.dtype(np.float64).itemsize


def test_subnormal_epoch_refuses_the_derived_bound():
    # an epoch of 5e-324 s makes 2 E / l_min overflow: the grid axis was
    # [nan, inf, ...], numpy warned, and the walk found no feasible tuple
    scenario = EnergyScenario(0.05, ((5e-324, 1.0), (1.0, 1.0)), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"derived power bound inf W is not finite"):
            brute_force_optimize(scenario, ChargeCircuit(4000.0, 0.05, 2.5))


class TestWholeGridReference:
    """The staged grid walk scores every causal tuple exactly as the whole
    grid did."""

    @pytest.mark.parametrize("resolution, draws", [(2, 40), (7, 40), (60, 2)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_bit_identical_results(self, sim_circuit, reference_link, n,
                                   resolution, draws):
        for seed in range(draws):
            rng = np.random.default_rng([48, n, seed])
            scenario, _ = generate_scenario(medium_config(sim_circuit, n), rng)
            derived = ref.auto_power_bound(scenario, sim_circuit)
            # the derived bound leaves most tuples acausal at n = 3; a
            # tenth of it keeps most of them feasible
            for bound in (0.0, 0.1 * derived):
                grid = GridSpec(resolution=resolution, power_bound=bound)
                for gain in (1.0, reference_link.gain, 1e-300):
                    result = brute_force_optimize(scenario, sim_circuit, grid, gain)
                    expected = ref.brute_force_optimize(scenario, sim_circuit, grid, gain)
                    assert repr(result) == repr(expected)
                    if gain == 1e-300:
                        # scored as log1p(g p) / ln 2, a tuple that spends
                        # energy scores above 0 bits, however low the SNR
                        assert result.throughput > 0.0
        if n == 3 and resolution == 60:
            assert brute_force_optimize(scenario, sim_circuit).feasible < 60 ** 3 / 2

    def test_ties_between_permuted_tuples(self, sim_circuit):
        # two equal harvest-free epochs: (0, 0.05), (0.05, 0) and
        # (0.05, 0.05) spend the same three powers, and their bits tie exactly
        s = EnergyScenario(0.1, ((1.0, 0.0), (2.0, 0.0)), 3.0)
        grid = GridSpec(resolution=3, power_bound=0.1)
        result = brute_force_optimize(s, sim_circuit, grid)
        assert repr(result) == repr(ref.brute_force_optimize(s, sim_circuit, grid))
        assert result.schedule.powers == (0.0, 0.05, 0.05)

    def test_only_the_all_zero_prefix_is_causal(self, sim_circuit):
        # nothing stored and nothing to harvest: any positive power overspends
        s = EnergyScenario(0.0, ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), 4.0)
        grid = GridSpec(resolution=60, power_bound=1.0)
        result = brute_force_optimize(s, sim_circuit, grid)
        assert result.feasible == 1
        assert result.schedule.powers == (0.0,) * 4
        assert repr(result) == repr(ref.brute_force_optimize(s, sim_circuit, grid))

    @pytest.mark.parametrize("excess, kept", [(1e-13, True), (1e-12, False)])
    def test_causality_tolerance(self, sim_circuit, excess, kept):
        # the top grid power spends the store plus excess; within
        # 1e-12 e_max it is kept and scored (and wins: the 3 s epoch is
        # worth more than the 1 s drain), beyond it the prefix is dropped
        e0, length = 0.05, 3.0
        s = EnergyScenario(e0, ((length, 0.0),), length + 1.0)
        grid = GridSpec(resolution=2, power_bound=(e0 + excess) / length)
        spend = grid.power_bound * length
        assert e0 < spend
        assert (spend <= e0 + 1e-12 * sim_circuit.e_max) == kept
        result = brute_force_optimize(s, sim_circuit, grid)
        assert result.feasible == 1 + kept
        assert result.schedule.powers[0] == (grid.power_bound if kept else 0.0)
        assert repr(result) == repr(ref.brute_force_optimize(s, sim_circuit, grid))


class TestBatch:
    """One grid walk over scenarios that share a packet count scores each
    exactly as the whole-grid reference does alone."""

    @staticmethod
    def draws(circuit, n, count):
        return [generate_scenario(medium_config(circuit, n), np.random.default_rng([50, n, k]))[0]
                for k in range(count)]

    @staticmethod
    def assert_members_alone(scenarios, circuit, grid=GridSpec(), gain=1.0):
        batch = _brute_force_batch(scenarios, circuit, grid, gain)
        assert ([repr(result) for result in batch]
                == [repr(ref.brute_force_optimize(s, circuit, grid, gain)) for s in scenarios])
        return batch

    @pytest.mark.parametrize("resolution, count", [(2, 12), (7, 12), (60, 2)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_members_equal_lone_results(self, sim_circuit, reference_link, n,
                                        resolution, count):
        scenarios = self.draws(sim_circuit, n, count)
        # an empty store and zero-length packets: the derived bound is 0 W,
        # so this member's axis takes linspace's zero-step branch
        silent = EnergyScenario(0.0, tuple((0.001 * (k + 1), 0.0) for k in range(n)),
                                0.001 * (n + 1))
        scenarios.insert(1, silent)
        derived = ref.auto_power_bound(scenarios[0], sim_circuit)
        for bound in (0.0, 0.1 * derived):
            grid = GridSpec(resolution=resolution, power_bound=bound)
            for gain in (1.0, reference_link.gain, 1e-300):
                batch = self.assert_members_alone(scenarios, sim_circuit, grid, gain)
                assert batch[1].schedule.powers == (0.0,) * (n + 1)
                assert batch == [brute_force_optimize(s, sim_circuit, grid, gain)
                                 for s in scenarios]

    def test_tied_member(self, sim_circuit):
        # the tie of TestWholeGridReference between ordinary draws
        tie = EnergyScenario(0.1, ((1.0, 0.0), (2.0, 0.0)), 3.0)
        scenarios = self.draws(sim_circuit, 2, 2)
        scenarios.insert(1, tie)
        grid = GridSpec(resolution=3, power_bound=0.1)
        batch = self.assert_members_alone(scenarios, sim_circuit, grid)
        assert batch[1].schedule.powers == (0.0, 0.05, 0.05)

    def test_more_members_than_a_group(self, sim_circuit):
        scenarios = self.draws(sim_circuit, 2, 2 * GROUP_SIZE + 3)
        self.assert_members_alone(scenarios, sim_circuit, GridSpec(resolution=7))

    def test_peak_allocation_does_not_grow_with_the_batch(self, sim_circuit):
        # the walk takes GROUP_SIZE members at a time
        scenario, = self.draws(sim_circuit, 3, 1)
        peaks = []
        for size in (GROUP_SIZE, 4 * GROUP_SIZE):
            tracemalloc.start()
            try:
                _brute_force_batch([scenario] * size, sim_circuit)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("resolution", [2, 7, 60])
    def test_grid_axes_are_linspace(self, resolution):
        # 5e-324 and 1e-320 are steps that round to zero, or nearly
        bounds = np.array([0.0, 5e-324, 1e-320, 1e-300, 0.3, 7.0])
        axes = _grid_axes(bounds, resolution)
        for bound, axis in zip(bounds, axes):
            assert axis.tolist() == np.linspace(0.0, bound, resolution).tolist()

    def test_refuses_mixed_packet_counts(self, sim_circuit):
        with pytest.raises(ValueError, match="packet count"):
            _brute_force_batch(self.draws(sim_circuit, 1, 1) + self.draws(sim_circuit, 2, 1),
                               sim_circuit)

    def test_empty_batch(self, sim_circuit):
        assert _brute_force_batch([], sim_circuit) == []


@pytest.mark.parametrize("gain", [1e-17, 1e-300])
def test_low_snr_scores_keep_their_precision(gain):
    # the oracle scores bits as log1p(g p) / ln 2, as the solver does: as
    # log2(1 + g p), which rounds 1 + g p, it scored up to 2.08e-18 bits
    # at gain 1e-17 where the solver's optimum is 1.14e-18, beyond the
    # grid's own error bound of 1.44e-19, and 0 at gain 1e-300
    config = experiment_config(load_config(
        Path(__file__).resolve().parent.parent / "configs" / "oracle_check.yaml"))
    scenarios = [scenario for scenario, _ in _draw_scenarios(config, config.runs)]
    solved = _solve_batch(scenarios, config.circuit, gain)
    scored = _brute_force_batch(scenarios, config.circuit, GridSpec(), gain)
    for result, report in zip(scored, solved):
        assert result.throughput > 0.0
        assert result.throughput <= report.throughput * (1.0 + 1e-12)
        assert result.throughput >= report.throughput - result.error_bound
