"""The forward path against its original per-epoch form, bit for bit.

``forward_reference`` holds the loops in their per-epoch form, before
the inline per-arrival harvest, the once-read scenario packets, the
charge maps each scenario keeps and the online policy's running
statistics; every trace, bit count,
generated scenario and tight string must come out identical (compared
through ``repr``, which tells apart every distinct double, -0.0
included).
"""

import numpy as np
import pytest

import forward_reference as ref
from rfharvest import (
    EnergyScenario,
    ExperimentConfig,
    TransmissionSchedule,
    generate_scenario,
    max_harvest_schedule,
    optimal_schedule,
    replay,
)
from rfharvest.exceptions import SolverError
from rfharvest.simulator import STRATEGIES, evaluate_strategy
from test_scheduling import fuzz_scenario


def forward_config(circuit, packets, seed, **overrides):
    return ExperimentConfig(circuit=circuit, mean_epoch_length=0.006,
                            mean_harvest=0.03, packet_count=packets,
                            initial_energy=0.05, runs=1, seed=seed, **overrides)


def reference_policy(name, scenario, string, config):
    """The policy each strategy replays, built from the reference loops;
    ``string`` is the reference draw's tight string."""
    circuit = config.circuit
    if name == "optimal":
        return optimal_schedule(scenario, circuit, config.rate_model,
                                config.link).schedule
    if name == "max_harvest":
        return ref.max_harvest_schedule(scenario, circuit)
    if name == "tight_string":
        return string
    if name == "online":
        return ref.OnlinePredictivePolicy(prior_length=0.0,
                                          prior_gap=config.mean_epoch_length)
    assert name == "zero"
    return TransmissionSchedule(powers=(0.0,) * (scenario.n_packets + 1),
                                epoch_bounds=tuple(scenario.epoch_bounds))


def outcome(call, *args):
    """("ok", repr of the result), or the exception's type and message."""
    try:
        return "ok", repr(call(*args))
    except (SolverError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestForwardMatchesReference:
    @pytest.mark.parametrize("packets", [1, 8, 256, 1024])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scenarios_and_every_strategy(self, sim_circuit, packets, seed):
        config = forward_config(sim_circuit, packets, seed)
        scenario, string = generate_scenario(config, np.random.default_rng([seed, 7]))
        expected = ref.generate_scenario(config, np.random.default_rng([seed, 7]))
        assert repr((scenario, string)) == repr(expected)
        assert scenario.n_packets == packets

        outcomes = {}
        for name in STRATEGIES:
            got = outcome(evaluate_strategy, name, scenario, string, config)
            want = outcome(lambda: ref.replay(
                reference_policy(name, scenario, expected[1], config),
                scenario, sim_circuit))
            outcomes[name] = got[0]
            if name == "zero" and want[0] == "ValueError":
                # the reference loop carries a full store that rounds one
                # ulp above e_max into the next harvest, which refuses
                # it; the library caps the carried store at e_max
                assert want[1] == "residual must lie in [0, e_max]"
                trace, bits = evaluate_strategy(name, scenario, string, config)
                assert bits == 0.0
                assert max(trace.residuals) <= sim_circuit.e_max
                continue
            assert got == want, name
        assert set(outcomes.values()) == {"ok"}

    def test_link_budget_replay(self, sim_circuit, reference_link):
        config = forward_config(sim_circuit, 8, 3, rate_model="link-budget",
                                link=reference_link)
        scenario, string = generate_scenario(config, np.random.default_rng(3))
        _, expected = ref.generate_scenario(config, np.random.default_rng(3))
        for name in STRATEGIES:
            policy = reference_policy(name, scenario, expected, config)
            got = evaluate_strategy(name, scenario, string, config)
            want = ref.replay(policy, scenario, sim_circuit, "link-budget",
                              reference_link)
            assert repr(got) == repr(want), name

    def test_clamped_replay(self, sim_circuit):
        # a schedule far beyond the store is cut to it in every epoch
        config = forward_config(sim_circuit, 8, 4)
        scenario, _ = generate_scenario(config, np.random.default_rng(4))
        greedy = TransmissionSchedule(powers=(1e3,) * 9,
                                      epoch_bounds=tuple(scenario.epoch_bounds))
        got = replay(greedy, scenario, sim_circuit)
        assert all(got[0].clamped)
        assert repr(got) == repr(ref.replay(greedy, scenario, sim_circuit))


class TestGreedyMatchesReference:
    def test_fuzz_draws(self, sim_circuit):
        # the greedy policy, replayed, against the reference walk's
        # schedule replayed, on the fuzz draws the reference can take
        # (its walk refuses a residual that rounds below 0 or a store
        # that rounds above e_max)
        rng = np.random.default_rng([8, 0])
        full = empty = long = compared = 0
        while compared < 500:
            scenario, _ = fuzz_scenario(rng, sim_circuit)
            want = outcome(lambda: ref.replay(ref.max_harvest_schedule(scenario, sim_circuit),
                                              scenario, sim_circuit))
            if want[0] != "ok":
                continue
            got = outcome(replay, max_harvest_schedule(scenario, sim_circuit), scenario,
                          sim_circuit)
            assert got == want
            compared += 1
            durations = scenario.packet_lengths
            full += scenario.initial_energy == sim_circuit.e_max
            empty += any(d == 0.0 for d in durations)
            long += any(d >= 800 * sim_circuit.tau for d in durations)
        assert full and empty and long


class RecordingPolicy:
    """Online policy that keeps what replay hands it in every epoch."""

    def __init__(self):
        self.seen = []

    def power(self, now, stored, count, total, deadline, circuit):
        self.seen.append((now, count, total))
        return 0.0


class TestReplayStatistics:
    @pytest.mark.parametrize("packets", [0, 1, 8, 1024])
    def test_count_sum_and_last_arrival(self, sim_circuit, packets):
        if packets:
            config = forward_config(sim_circuit, packets, 5)
            scenario, _ = generate_scenario(config, np.random.default_rng(5))
        else:
            scenario = EnergyScenario(initial_energy=0.05, packets=(), deadline=1.0)
        policy = RecordingPolicy()
        replay(policy, scenario, sim_circuit)
        assert len(policy.seen) == packets + 1
        for i, (now, count, total) in enumerate(policy.seen):
            assert type(count) is int and count == i
            expected = 0.0
            for _, duration in scenario.packets[:i]:
                expected += duration
            assert type(total) is float and repr(total) == repr(expected)
            assert now == (scenario.packets[i - 1][0] if i else 0.0)
