import math

import numpy as np
import pytest
from scipy.optimize import minimize

from forward_reference import classic_tunnel, tight_string_schedule
from rfharvest import (
    EnergyScenario,
    ExperimentConfig,
    OnlinePredictivePolicy,
    generate_scenario,
    max_harvest_schedule,
    optimal_residual,
    replay,
    solve,
)
from rfharvest.simulator import evaluate_strategy


def string_length_oracle(tunnel):
    """Shortest-path consumption through the tunnel by convex optimization."""
    xs = np.array([0.0, *tunnel.times, tunnel.deadline])
    los = np.array([0.0, *tunnel.lower, tunnel.total_energy])
    his = np.array([0.0, *tunnel.upper, tunnel.total_energy])

    def total_length(y_mid):
        y = np.concatenate(([0.0], y_mid, [tunnel.total_energy]))
        return float(np.sum(np.hypot(np.diff(xs), np.diff(y))))

    y0 = 0.5 * (los[1:-1] + his[1:-1])
    result = minimize(total_length, y0, method="SLSQP",
                      bounds=list(zip(los[1:-1], his[1:-1])),
                      options={"maxiter": 500, "ftol": 1e-14})
    assert result.success
    return np.concatenate(([0.0], result.x, [tunnel.total_energy]))


class TestTightString:
    """The library's funnel scan ``_taut_string``, through gates built by
    the reference copy of the classic tunnel."""

    def test_no_arrivals_is_constant_drain(self, sim_circuit):
        tunnel = classic_tunnel(0.05, [], [], 25.0, sim_circuit)
        schedule = tight_string_schedule(tunnel)
        assert schedule.powers == (0.05 / 25.0,)

    def test_unobstructed_straight_line(self, sim_circuit):
        # both packets small: the straight line to the endpoint stays in
        # the tunnel, so the power is constant
        tunnel = classic_tunnel(0.05, [10.0, 20.0], [0.001, 0.001], 30.0, sim_circuit)
        schedule = tight_string_schedule(tunnel)
        assert schedule.powers == pytest.approx(
            [0.052 / 30.0] * 3, rel=1e-12)

    def test_causality_bend_increases_power(self, sim_circuit):
        # tiny initial energy forces the string onto the ceiling at the
        # first arrival; power can only increase at such a bend
        tunnel = classic_tunnel(0.001, [10.0], [0.05], 20.0, sim_circuit)
        schedule = tight_string_schedule(tunnel)
        assert schedule.powers[0] == pytest.approx(0.001 / 10.0, rel=1e-12)
        assert schedule.powers[1] > schedule.powers[0]

    def test_matches_minimal_length_oracle(self, sim_circuit):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            arrivals = np.sort(rng.uniform(1.0, 29.0, n))
            while np.any(np.diff(arrivals) < 0.5):
                arrivals = np.sort(rng.uniform(1.0, 29.0, n))
            harvests = rng.uniform(0.0, 0.05, n)
            e0 = float(rng.uniform(0.0, 0.05))
            tunnel = classic_tunnel(e0, arrivals, harvests, 30.0, sim_circuit)
            schedule = tight_string_schedule(tunnel)
            xs = np.array([0.0, *tunnel.times, tunnel.deadline])
            mine = np.concatenate(
                ([0.0], np.cumsum(np.asarray(schedule.powers) * np.diff(xs))))
            oracle = string_length_oracle(tunnel)

            def path_length(y):
                return float(np.sum(np.hypot(np.diff(xs), np.diff(y))))

            # the funnel's string may be no longer than the oracle's (the
            # oracle is itself only converged to optimizer precision) and
            # must agree with it to that precision
            assert path_length(mine) <= path_length(oracle) + 1e-12
            assert np.allclose(mine, oracle, atol=1e-4)

    def test_containment_and_bend_touches(self, sim_circuit):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            arrivals = np.cumsum(rng.uniform(1.0, 5.0, n))
            deadline = float(arrivals[-1] + rng.uniform(1.0, 5.0))
            harvests = rng.uniform(0.0, 0.06, n)
            e0 = float(rng.uniform(0.0, 0.05))
            tunnel = classic_tunnel(e0, arrivals, harvests, deadline, sim_circuit)
            schedule = tight_string_schedule(tunnel)
            consumed = np.cumsum(np.asarray(schedule.powers)
                                 * np.diff(schedule.epoch_bounds))[:-1]
            for k in range(n):
                assert tunnel.lower[k] - 1e-9 <= consumed[k] <= tunnel.upper[k] + 1e-9
            # slopes change only where the string touches a bound
            for k in range(n):
                if abs(schedule.powers[k + 1] - schedule.powers[k]) > 1e-12:
                    touches_upper = abs(consumed[k] - tunnel.upper[k]) <= 1e-9
                    touches_lower = abs(consumed[k] - tunnel.lower[k]) <= 1e-9
                    assert touches_upper or touches_lower


class TestMaxHarvest:
    def test_idle_when_below_target(self, sim_circuit):
        target = optimal_residual(30.0, sim_circuit)
        s = EnergyScenario(initial_energy=0.5 * target,
                           packets=((10.0, 30.0),), deadline=20.0)
        trace, _ = replay(max_harvest_schedule(s, sim_circuit), s, sim_circuit)
        assert trace.consumed[0] == 0.0

    def test_parks_exactly_at_optimal_residual(self, sim_circuit):
        s = EnergyScenario(initial_energy=0.05,
                           packets=((5.0, 20.0), (10.0, 20.0), (15.0, 20.0)),
                           deadline=20.0)
        trace, _ = replay(max_harvest_schedule(s, sim_circuit), s, sim_circuit)
        target = optimal_residual(20.0, sim_circuit)
        assert trace.consumed[0] > 0
        for i in range(s.n_packets):
            if trace.consumed[i] > 0:
                assert abs(trace.residuals[i] - target) <= 1e-9

    def test_final_epoch_drains(self, sim_circuit):
        s = EnergyScenario(initial_energy=0.05,
                           packets=((5.0, 20.0),), deadline=10.0)
        schedule = max_harvest_schedule(s, sim_circuit)
        trace, _ = replay(schedule, s, sim_circuit)
        assert abs(trace.residuals[-1]) <= 1e-12

    def test_long_packet_parks_at_zero(self, sim_circuit):
        # an 800 tau packet: the target residual is below one ulp of the
        # store, so the spend rounds past it
        s = EnergyScenario(initial_energy=0.10722721203542228,
                           packets=((9.057340364983462, 800 * sim_circuit.tau),),
                           deadline=10.057340364983462)
        schedule = max_harvest_schedule(s, sim_circuit)
        trace, _ = replay(schedule, s, sim_circuit)
        assert trace.harvested == (sim_circuit.e_max,)
        assert not any(trace.clamped)
        assert abs(trace.residuals[-1]) <= 1e-12

    @pytest.mark.parametrize("packets", [0, 1])
    def test_store_above_e_max_is_refused(self, sim_circuit, packets):
        # a 1 J store in a 0.156 J battery, refused with solve's message
        s = EnergyScenario(initial_energy=1.0, packets=((1.0, 5.0),)[:packets],
                           deadline=2.0)
        with pytest.raises(ValueError) as refused:
            solve(s, sim_circuit)
        with pytest.raises(ValueError) as greedy:
            max_harvest_schedule(s, sim_circuit)
        assert str(greedy.value) == str(refused.value)

    def test_full_store_is_accepted(self, sim_circuit):
        s = EnergyScenario(initial_energy=sim_circuit.e_max, packets=((1.0, 5.0),),
                           deadline=2.0)
        trace, _ = replay(max_harvest_schedule(s, sim_circuit), s, sim_circuit)
        assert trace.consumed[0] > 0.0

    def test_harvests_most_among_the_three_strategies(self, sim_circuit):
        config = ExperimentConfig(circuit=sim_circuit, mean_epoch_length=0.006,
                                  mean_harvest=0.03, packet_count=2,
                                  initial_energy=0.05, runs=1, seed=0)
        for seed in range(10):
            rng = np.random.default_rng([77, seed])
            scenario, string = generate_scenario(config, rng)
            traces = [
                replay(max_harvest_schedule(scenario, sim_circuit),
                       scenario, sim_circuit)[0],
                replay(solve(scenario, sim_circuit).schedule,
                       scenario, sim_circuit)[0],
                replay(string, scenario, sim_circuit)[0],
            ]
            greedy, optimal, string = (float(np.sum(t.harvested)) for t in traces)
            assert greedy >= optimal - 1e-12
            assert greedy >= string - 1e-12


def shed(stored, length, horizon, circuit):
    """The power that parks ``stored`` at the optimal residual of a
    packet of ``length`` over ``horizon`` seconds."""
    return (stored - optimal_residual(length, circuit)) / horizon


class TestPredictNext:
    """The policy's prediction of the next packet, seen through the power
    it sheds from a full store with the deadline far away."""

    def test_empty_history_uses_priors(self, sim_circuit):
        policy = OnlinePredictivePolicy(prior_length=5.0, prior_gap=10.0)
        e_max = sim_circuit.e_max
        power = policy.power(3.0, e_max, 0, 0.0, 1e3, sim_circuit)
        assert power == shed(e_max, 5.0, 10.0, sim_circuit)

    def test_single_packet(self, sim_circuit):
        policy = OnlinePredictivePolicy(prior_length=0.0, prior_gap=10.0)
        e_max = sim_circuit.e_max
        # one observed interval, 8 s, from t = 0 to the arrival at 8 s
        power = policy.power(8.0, e_max, 1, 5.0, 1e3, sim_circuit)
        assert power == shed(e_max, 5.0, 8.0, sim_circuit)

    def test_running_means(self, sim_circuit):
        # packets (8 s, 4 s) and (20 s, 6 s): intervals 8 and 12
        policy = OnlinePredictivePolicy(prior_length=0.0, prior_gap=1.0)
        e_max = sim_circuit.e_max
        power = policy.power(20.0, e_max, 2, 4.0 + 6.0, 1e3, sim_circuit)
        assert power == shed(e_max, 5.0, 10.0, sim_circuit)

    def test_constant_stream_is_predicted_exactly(self, sim_circuit):
        policy = OnlinePredictivePolicy(prior_length=0.0, prior_gap=1.0)
        total = 0.0
        for _ in range(5):      # packets (10 k s, 3 s), k = 1..5
            total += 3.0
        e_max = sim_circuit.e_max
        power = policy.power(50.0, e_max, 5, total, 1e3, sim_circuit)
        assert power == shed(e_max, 3.0, 10.0, sim_circuit)

    def test_requires_positive_gap_prior(self):
        # bad priors are refused at construction, before any epoch asks
        # for a power
        for prior_gap in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="prior_gap"):
                OnlinePredictivePolicy(prior_length=1.0, prior_gap=prior_gap)
        for prior_length in (-1.0, math.nan):
            with pytest.raises(ValueError, match="prior_length"):
                OnlinePredictivePolicy(prior_length=prior_length, prior_gap=1.0)


class TestOnlineStep:
    def test_idle_at_or_below_target(self, sim_circuit):
        target = optimal_residual(20.0, sim_circuit)
        policy = OnlinePredictivePolicy(prior_length=20.0, prior_gap=10.0)
        for stored in (0.0, 0.5 * target, target):
            assert policy.power(0.0, stored, 0, 0.0, 1e3, sim_circuit) == 0.0
            assert policy.power(10.0, stored, 2, 40.0, 1e3, sim_circuit) == 0.0

    def test_sheds_excess_over_horizon(self):
        # engineered numbers: 0.6 J stored, 0.24 J target, 10 s horizon
        from rfharvest import ChargeCircuit
        circuit = ChargeCircuit(resistance=4000.0, capacitance=1.0, v_max=2.5)
        # invert optimal_residual: e_max/(1+e^(T/tau))^2 = 0.24
        duration = circuit.tau * math.log(math.sqrt(circuit.e_max / 0.24) - 1.0)
        assert optimal_residual(duration, circuit) == pytest.approx(0.24, rel=1e-12)
        policy = OnlinePredictivePolicy(prior_length=duration, prior_gap=10.0)
        power = policy.power(0.0, 0.6, 0, 0.0, 100.0, circuit)
        assert power == pytest.approx((0.6 - 0.24) / 10.0, rel=1e-12)

    def test_rejects_stale_prediction(self, sim_circuit):
        policy = OnlinePredictivePolicy(prior_length=5.0, prior_gap=1.0)
        # a prior gap lost to rounding, and a last arrival at t = 0, both
        # predict the next packet at now
        for now, count, total in ((1e20, 0, 0.0), (0.0, 1, 5.0)):
            with pytest.raises(ValueError, match="future"):
                policy.power(now, 0.1, count, total, 1e30, sim_circuit)

    def test_rejects_negative_store_and_length(self, sim_circuit):
        policy = OnlinePredictivePolicy(prior_length=5.0, prior_gap=1.0)
        with pytest.raises(ValueError, match="stored energy"):
            policy.power(2.0, -1e-3, 1, 5.0, 10.0, sim_circuit)
        with pytest.raises(ValueError, match="packet_length"):
            policy.power(2.0, 0.1, 1, -5.0, 10.0, sim_circuit)

    def test_infinite_charge_duration_parks_at_zero(self, sim_circuit):
        # a full-charge packet's optimal residual is 0, as a prior or as
        # an observed duration, so the whole store is shed
        policy = OnlinePredictivePolicy(prior_length=math.inf, prior_gap=1.0)
        assert policy.power(0.0, 0.1, 0, 0.0, 10.0, sim_circuit) == 0.1
        assert policy.power(1.0, 0.1, 1, math.inf, 10.0, sim_circuit) == 0.1
        s = EnergyScenario(initial_energy=0.05, packets=((1.0, math.inf), (2.0, 5.0)),
                           deadline=3.0)
        config = ExperimentConfig(circuit=sim_circuit, mean_epoch_length=1.0,
                                  mean_harvest=0.03, packet_count=2, initial_energy=0.05)
        trace, bits = evaluate_strategy("online", s, (), config)
        assert not any(trace.clamped) and 0.0 < bits < math.inf

    @pytest.mark.parametrize("deadline", [4.0, 3.5])
    def test_drains_when_prediction_passes_deadline(self, sim_circuit, deadline):
        # the next packet is predicted at 2 + 2/1 = 4 s, at or after the
        # deadline: the whole store goes by the deadline, target or not
        policy = OnlinePredictivePolicy(prior_length=5.0, prior_gap=1.0)
        for stored in (0.0, 1e-6, sim_circuit.e_max):
            power = policy.power(2.0, stored, 1, 5.0, deadline, sim_circuit)
            assert power == stored / (deadline - 2.0)
        # the priors predict 2 + 1 = 3 s
        assert policy.power(2.0, 0.1, 0, 0.0, 3.0, sim_circuit) == 0.1 / 1.0


class TestOnlinePolicy:
    def test_perfect_prediction_matches_greedy(self, sim_circuit):
        # constant stream: gap 5 s, duration 20 s, deadline one gap after
        # the last arrival, so the moving-average prediction is exact
        gap, duration, n = 5.0, 20.0, 4
        packets = tuple((gap * (k + 1), duration) for k in range(n))
        s = EnergyScenario(initial_energy=0.05, packets=packets,
                           deadline=gap * (n + 1))
        policy = OnlinePredictivePolicy(prior_length=duration, prior_gap=gap)
        online_trace, online_bits = replay(policy, s, sim_circuit)
        # both policies call the one parking rule with the same arguments
        greedy = max_harvest_schedule(s, sim_circuit)
        greedy_trace, greedy_bits = replay(greedy, s, sim_circuit)
        assert online_trace == greedy_trace
        assert online_bits == greedy_bits

    def test_all_strategies_respect_causality(self, sim_circuit):
        config = ExperimentConfig(circuit=sim_circuit, mean_epoch_length=0.006,
                                  mean_harvest=0.03, packet_count=6,
                                  initial_energy=0.05, runs=1, seed=0)
        for seed in range(10):
            rng = np.random.default_rng([31, seed])
            scenario, string = generate_scenario(config, rng)
            policies = [
                solve(scenario, sim_circuit).schedule,
                max_harvest_schedule(scenario, sim_circuit),
                string,
                OnlinePredictivePolicy(prior_length=0.03, prior_gap=0.006),
            ]
            slack = 1e-9 * sim_circuit.e_max + 1e-9
            for policy in policies:
                trace, _ = replay(policy, scenario, sim_circuit)
                assert all(r >= -slack for r in trace.residuals)
