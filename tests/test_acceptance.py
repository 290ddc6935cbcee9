"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (through pytest's capture) with
its runtime, so `pytest tests/test_acceptance.py` doubles as the
acceptance report.  Tolerances are the contract; do not loosen them.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import forward_reference as ref
import rfharvest as rf

BENCH = rf.ChargeCircuit(resistance=750.0, capacitance=0.68, v_max=2.5)
SIM = rf.ChargeCircuit(resistance=4000.0, capacitance=0.05, v_max=2.5)
LINK = rf.ChannelLink(frequency=2.4e9, distance=3.048, bandwidth=1.0e7,
                      noise_density=-174.0)

# e_max/(1 + exp(15/510))^2 / e_max, evaluated with 40-digit arithmetic
BENCH_OPT_RATIO = 0.242701646783948


def report(capsys, index, label, elapsed, limit):
    with capsys.disabled():
        print(f"\nACCEPTANCE {index} PASS: {label} "
              f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit


def medium_config(n, seed=0, runs=1, **overrides):
    values = dict(circuit=SIM, mean_epoch_length=0.006, mean_harvest=0.03,
                  packet_count=n, initial_energy=0.05, runs=runs, seed=seed)
    values.update(overrides)
    return rf.ExperimentConfig(**values)


def test_criterion_1_charge_model_optimum(capsys):
    start = time.perf_counter()
    value = rf.optimal_residual(15.0, BENCH)
    ratio = value / BENCH.e_max
    # formula evaluation (0.2427 to four digits)
    assert abs(ratio - BENCH_OPT_RATIO) <= 1e-6
    assert abs(ratio - 0.2427) <= 5e-5
    # numerical argmax of the harvest agrees
    result = minimize_scalar(lambda r: -rf.harvested_energy(r, 15.0, BENCH),
                             bounds=(0.0, BENCH.e_max), method="bounded",
                             options={"xatol": 1e-12 * BENCH.e_max})
    assert abs(result.x - value) <= 1e-8 * BENCH.e_max
    # consistent with the measured ~0.23 * e_max
    assert abs(ratio - 0.23) <= 0.02
    report(capsys, 1, "charge-model optimum at the bench circuit",
           time.perf_counter() - start, 1.0)


def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    worst_gap = -math.inf
    for n in (1, 2, 3):
        for seed in range(20):
            rng = np.random.default_rng([1000 + n, seed])
            scenario, _ = rf.generate_scenario(medium_config(n, seed), rng)
            solver = rf.solve(scenario, SIM)
            oracle = rf.brute_force_optimize(scenario, SIM)
            gap = oracle.throughput - solver.throughput
            worst_gap = max(worst_gap, gap)
            assert solver.throughput >= oracle.throughput - oracle.error_bound
            assert gap <= 1e-9, (
                f"N={n} seed={seed}: oracle beat the solver by {gap}")
    # refinement shrinks the gap monotonically
    for seed in range(3):
        rng = np.random.default_rng([1004, seed])
        scenario, _ = rf.generate_scenario(medium_config(3, seed), rng)
        solver = rf.solve(scenario, SIM)
        previous = math.inf
        # interval counts double (14 -> 28 -> 56) so each grid nests in
        # the next and refinement cannot lose points
        for resolution in (15, 29, 57):
            oracle = rf.brute_force_optimize(
                scenario, SIM, rf.GridSpec(resolution=resolution,
                                           eval_budget=60 ** 3))
            gap = solver.throughput - oracle.throughput
            assert gap <= previous + 1e-12
            previous = gap
    report(capsys, 2,
           f"oracle equivalence on 60 instances (worst gap {worst_gap:.2e})",
           time.perf_counter() - start, 60.0)


def test_criterion_3_kkt_structure(capsys):
    start = time.perf_counter()
    count = 0
    for n in (2, 3, 4, 5, 6, 7, 8, 9):
        for seed in range(25):
            rng = np.random.default_rng([2000 + n, seed])
            scenario, _ = rf.generate_scenario(medium_config(n, seed), rng)
            solver = rf.solve(scenario, SIM)
            powers = solver.schedule.powers
            residuals = solver.trace.residuals
            durations = scenario.packet_lengths
            for m in range(n):
                x = rf.harvest_sensitivity(residuals[m], durations[m], SIM)
                lhs = 1.0 + powers[m + 1]
                rhs = (1.0 + powers[m]) * (x + 1.0)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
            assert all(r > 0.0 for r in residuals[:-1])
            assert abs(residuals[-1]) <= 1e-10
            for r, h in zip(residuals, solver.trace.harvested):
                assert r + h < SIM.e_max
            count += 1
    report(capsys, 3, f"KKT structure on {count} random scenarios",
           time.perf_counter() - start, 30.0)


def test_criterion_4_figure_trends(capsys):
    start = time.perf_counter()
    base = medium_config(8, seed=42, runs=30)
    epoch_axis = [2e-7, 2e-6, 0.006, 0.01, 0.014]
    rows = rf.monte_carlo(base, ("optimal", "max_harvest", "tight_string"),
                          sweep_axis="mean_epoch_length",
                          sweep_values=epoch_axis)
    table = {}
    for row in rows:
        table.setdefault(row["sweep_value"], {})[row["strategy"]] = row

    # (a) throughput decreases monotonically with the packet-length axis
    optimal_curve = [table[v]["optimal"]["mean_throughput"] for v in epoch_axis]
    assert all(a > b for a, b in zip(optimal_curve, optimal_curve[1:]))
    te_curve = [table[v]["optimal"]["mean_te_over_tau"] for v in epoch_axis]
    assert all(a < b for a, b in zip(te_curve, te_curve[1:]))

    # (a) throughput grows concavely with the capacitance
    cap_axis = [0.04, 0.06, 0.08, 0.10, 0.12]
    cap_rows = rf.monte_carlo(base, ("optimal",), sweep_axis="capacitance",
                              sweep_values=cap_axis)
    curve = [row["mean_throughput"] for row in cap_rows]
    increments = [b - a for a, b in zip(curve, curve[1:])]
    assert all(x > 0 for x in increments)
    assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))

    # (b) regime split at mean duration 1e-3 of the time constant
    for value in epoch_axis:
        point = table[value]
        te_over_tau = point["optimal"]["mean_te_over_tau"]
        optimal = point["optimal"]["mean_throughput"]
        greedy = point["max_harvest"]["mean_throughput"]
        string = point["tight_string"]["mean_throughput"]
        if te_over_tau < 1e-3:
            assert string >= 0.95 * optimal
            assert greedy < string and greedy < optimal
        else:
            assert greedy >= 0.95 * optimal

    # (c) the greedy harvester banks the most energy at every point
    for value in epoch_axis:
        point = table[value]
        greedy = point["max_harvest"]["mean_harvested"]
        assert greedy >= point["optimal"]["mean_harvested"] - 1e-12
        assert greedy >= point["tight_string"]["mean_harvested"] - 1e-12

    report(capsys, 4, "figure trends (packet-length, capacitance, regimes)",
           time.perf_counter() - start, 300.0)


def test_criterion_5_future_impact_decay(capsys):
    start = time.perf_counter()
    config = medium_config(8, seed=42)
    for seed in range(10):
        rng = np.random.default_rng([3000, seed])
        scenario, _ = rf.generate_scenario(config, rng)
        delta_l = 0.2 * config.mean_epoch_length
        near = rf.future_impact_probe(scenario, SIM, 1, delta_l,
                                      0.2 * scenario.packets[0][1])
        far = rf.future_impact_probe(scenario, SIM, 5, delta_l,
                                     0.2 * scenario.packets[4][1])
        assert far < 0.02
        assert near > far
    report(capsys, 5, "future-impact decay (d=5 below 2%, d=1 above d=5)",
           time.perf_counter() - start, 120.0)


def test_criterion_6_invariant_suites(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4000)

    # charge model: concavity, derivative agreement, round trip
    for _ in range(30):
        duration = float(rng.uniform(0.001, 2.0) * SIM.tau)
        r = np.sort(rng.uniform(1e-6 * SIM.e_max, SIM.e_max, 3))
        values = [rf.harvested_energy(x, duration, SIM) for x in r]
        w = (r[1] - r[0]) / (r[2] - r[0])
        assert (1 - w) * values[0] + w * values[2] - values[1] <= 1e-12
        x = float(rng.uniform(1e-6, 0.99) * SIM.e_max)
        step = 1e-7 * SIM.e_max
        fd = (rf.harvested_energy(x + step, duration, SIM)
              - rf.harvested_energy(x - step, duration, SIM)) / (2 * step)
        assert rf.harvest_sensitivity(x, duration, SIM) \
            == pytest.approx(fd, rel=1e-6, abs=1e-12)
        harvested = rf.harvested_energy(x, duration, SIM)
        assert rf.packet_length_for(x, harvested, SIM) \
            == pytest.approx(duration, rel=1e-9)

    # simulator: replay conservation and determinism
    config = medium_config(6, seed=1, runs=2)
    scenario, _ = rf.generate_scenario(config, np.random.default_rng([4001, 0]))
    schedule = rf.max_harvest_schedule(scenario, SIM)
    trace_a, bits_a = rf.replay(schedule, scenario, SIM)
    trace_b, bits_b = rf.replay(schedule, scenario, SIM)
    assert trace_a == trace_b and bits_a == bits_b
    for i in range(scenario.n_packets):
        stored = max(trace_a.residuals[i], 0.0) + trace_a.harvested[i]
        assert trace_a.residuals[i + 1] == stored - trace_a.consumed[i + 1]
    assert rf.monte_carlo(config, ("optimal",)) == rf.monte_carlo(config, ("optimal",))

    # strategies: the drawn tight string's tunnel containment and
    # bound-touch slope changes, against the reference draw's tunnel
    for seed in range(10):
        scenario, schedule = rf.generate_scenario(medium_config(6, seed),
                                                  np.random.default_rng([4002, seed]))
        tunnel = ref.draw(medium_config(6, seed), np.random.default_rng([4002, seed]))[3]
        consumed = np.cumsum(np.asarray(schedule.powers)
                             * np.diff(schedule.epoch_bounds))[:-1]
        for k in range(scenario.n_packets):
            assert tunnel.lower[k] - 1e-9 <= consumed[k] <= tunnel.upper[k] + 1e-9
            if abs(schedule.powers[k + 1] - schedule.powers[k]) > 1e-12:
                assert (abs(consumed[k] - tunnel.upper[k]) <= 1e-9
                        or abs(consumed[k] - tunnel.lower[k]) <= 1e-9)

    report(capsys, 6, "invariant suites (charge, replay, tight string)",
           time.perf_counter() - start, 30.0)


def test_criterion_7_link_budget_spot_values(capsys):
    start = time.perf_counter()
    path_loss, noise_floor = LINK.path_loss, LINK.noise_floor
    assert abs(path_loss - 49.73) <= 0.01
    assert noise_floor == -104.0
    # unit SNR at a transmit power of path loss + noise floor dBm
    watts = 10.0 ** ((path_loss + noise_floor - 30.0) / 10.0)
    assert math.log2(1.0 + LINK.gain * watts) == 1.0
    report(capsys, 7, "link-budget spot values",
           time.perf_counter() - start, 1.0)
