import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rfharvest import (
    ChargeCircuit,
    InfeasibleError,
    harvest_sensitivity,
    harvested_energy,
    optimal_residual,
    packet_length_for,
)

from rfharvest.charge import _charge_maps, _harvest_step

from conftest import random_circuit
from harvest_reference import harvest_coefficients

# Reference values for the bench circuit at a 15 s charge, evaluated from
# the closed forms with 40-digit arithmetic.
BENCH_A1 = 0.4714365719274375
BENCH_A2 = 0.061534387922537016
BENCH_A4 = -0.12117612325146027
BENCH_OPT_RATIO = 0.242701646783948
BENCH_HARVEST_AT_OPT = 0.03124774745552556
BENCH_SLOPE_AT_TENTH = 0.03187041405683363


def golden_max_residual(packet_length, circuit):
    """Independent argmax of the harvest over the residual (scipy golden)."""
    result = minimize_scalar(
        lambda r: -harvested_energy(r, packet_length, circuit),
        bounds=(0.0, circuit.e_max),
        method="bounded",
        options={"xatol": 1e-12 * circuit.e_max},
    )
    return result.x


class TestChargeCircuit:
    def test_derived_quantities_match_defining_products(self, bench_circuit):
        assert bench_circuit.tau == pytest.approx(750.0 * 0.68, rel=1e-15)
        assert bench_circuit.e_max == pytest.approx(0.5 * 0.68 * 2.5 ** 2, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(resistance=0.0, capacitance=0.68, v_max=2.5),
        dict(resistance=750.0, capacitance=-1.0, v_max=2.5),
        dict(resistance=750.0, capacitance=0.68, v_max=0.0),
        dict(resistance=math.nan, capacitance=0.68, v_max=2.5),
        dict(resistance=750.0, capacitance=math.inf, v_max=2.5),
        dict(resistance=750.0, capacitance=0.68, v_max=math.nan),
    ])
    def test_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ChargeCircuit(**kwargs)


class TestHarvestCoefficients:
    def test_zero_duration_collapses(self, bench_circuit):
        c = harvest_coefficients(0.0, bench_circuit)
        assert c.a1 == 0.5
        assert c.a2 == 0.0 and c.a3 == 0.0 and c.a4 == 0.0

    def test_bench_values(self, bench_circuit):
        c = harvest_coefficients(15.0, bench_circuit)
        assert c.a1 == pytest.approx(BENCH_A1, rel=1e-14)
        assert c.a2 == pytest.approx(BENCH_A2, rel=1e-14)
        assert c.a3 == pytest.approx(2.0 ** 1.5 * BENCH_A2, rel=1e-14)
        assert c.a4 == pytest.approx(BENCH_A4, rel=1e-14)

    def test_sign_structure(self, bench_circuit):
        rng = np.random.default_rng(1)
        for _ in range(30):
            c = harvest_coefficients(float(rng.uniform(0.01, 5000.0)), bench_circuit)
            assert c.a1 > 0 and c.a2 > 0 and c.a4 < 0
            assert c.a3 == pytest.approx(2.0 ** 1.5 * c.a2, rel=1e-15)

    def test_long_packet_limits(self, bench_circuit):
        c = harvest_coefficients(1e9, bench_circuit)
        assert c.a1 == 0.0
        assert c.a4 == -math.inf

    def test_negative_duration_rejected(self, bench_circuit):
        with pytest.raises(ValueError):
            harvest_coefficients(-1.0, bench_circuit)


class TestHarvestedEnergy:
    def test_full_battery_absorbs_nothing(self, bench_circuit):
        for duration in (0.1, 15.0, 300.0):
            assert harvested_energy(bench_circuit.e_max, duration, bench_circuit) \
                == pytest.approx(0.0, abs=1e-15)

    def test_zero_duration_harvests_nothing(self, bench_circuit):
        for residual in (0.0, 0.3, bench_circuit.e_max):
            assert harvested_energy(residual, 0.0, bench_circuit) == 0.0

    def test_bench_value_at_optimal_residual(self, bench_circuit):
        r = BENCH_OPT_RATIO * bench_circuit.e_max
        value = harvested_energy(r, 15.0, bench_circuit)
        assert value == pytest.approx(BENCH_HARVEST_AT_OPT, rel=1e-12)
        # and it is the numerical maximum over the residual
        r_star = golden_max_residual(15.0, bench_circuit)
        assert abs(r_star - r) < 1e-8 * bench_circuit.e_max

    def test_result_within_physical_bounds(self, bench_circuit):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = float(rng.uniform(0.0, bench_circuit.e_max))
            d = float(rng.uniform(0.0, 2000.0))
            value = harvested_energy(r, d, bench_circuit)
            assert -1e-12 <= value <= bench_circuit.e_max - r + 1e-12

    def test_domain_errors(self, bench_circuit):
        with pytest.raises(ValueError):
            harvested_energy(-0.1, 15.0, bench_circuit)
        with pytest.raises(ValueError):
            harvested_energy(bench_circuit.e_max * 1.001, 15.0, bench_circuit)

    def test_accepts_arrays(self, bench_circuit):
        r = np.linspace(0.0, bench_circuit.e_max, 7)
        values = harvested_energy(r, 15.0, bench_circuit)
        assert values.shape == r.shape
        assert values[-1] == pytest.approx(0.0, abs=1e-15)


class TestHarvestStep:
    """The scalar step of the forward loops equals harvested_energy bit
    for bit (compared through float.hex, which tells -0.0 from 0.0)."""

    def test_matches_harvested_energy_bit_for_bit(self, bench_circuit,
                                                  sim_circuit):
        rng = np.random.default_rng(8)
        circuits = [bench_circuit, sim_circuit] + [random_circuit(rng) for _ in range(6)]
        for circuit in circuits:
            e_max, tau = circuit.e_max, circuit.tau
            residuals = [0.0, -0.0, 5e-324, 1e-300, e_max,
                         np.nextafter(e_max, 0.0), optimal_residual(tau, circuit)]
            residuals += list(np.linspace(0.0, e_max, 41))
            residuals += list(rng.uniform(0.0, e_max, 40))
            durations = [0.0, tau, 1e4 * tau] + list(tau * rng.uniform(0.0, 5.0, 6))
            root_e_max = math.sqrt(e_max)
            for duration in durations:
                charge_map, = _charge_maps([duration], circuit)
                for r in residuals:
                    want = harvested_energy(r, duration, circuit)
                    got = _harvest_step(charge_map, e_max, root_e_max, r)
                    assert type(got) is float
                    assert got.hex() == want.hex(), (circuit, duration, r)

    def test_decay_underflow_is_the_full_charge_limit(self, sim_circuit):
        charge_map, = _charge_maps([1e4 * sim_circuit.tau], sim_circuit)
        assert charge_map == (1.0, 0.0)
        e_max = sim_circuit.e_max
        assert _harvest_step(charge_map, e_max, math.sqrt(e_max), 0.0) == e_max

    def test_domain_errors(self, bench_circuit):
        e_max = bench_circuit.e_max
        charge_map, = _charge_maps([15.0], bench_circuit)
        above = np.nextafter(bench_circuit.e_max, np.inf)
        for bad in (-5e-324, -0.1, above, bench_circuit.e_max * 1.001, np.inf):
            with pytest.raises(ValueError):
                harvested_energy(bad, 15.0, bench_circuit)
            with pytest.raises(ValueError):
                _harvest_step(charge_map, e_max, math.sqrt(e_max), bad)

    def test_nan_residual_propagates(self, bench_circuit):
        e_max = bench_circuit.e_max
        charge_map, = _charge_maps([15.0], bench_circuit)
        assert math.isnan(harvested_energy(math.nan, 15.0, bench_circuit))
        assert math.isnan(_harvest_step(charge_map, e_max, math.sqrt(e_max), math.nan))


class TestOptimalResidual:
    def test_zero_duration_is_quarter_capacity(self, bench_circuit):
        assert optimal_residual(0.0, bench_circuit) \
            == pytest.approx(bench_circuit.e_max / 4.0, rel=1e-15)

    def test_bench_ratio(self, bench_circuit):
        ratio = optimal_residual(15.0, bench_circuit) / bench_circuit.e_max
        assert ratio == pytest.approx(BENCH_OPT_RATIO, abs=1e-12)
        # consistent with the measured ~0.23 * e_max
        assert abs(ratio - 0.23) < 0.02

    def test_long_packet_tends_to_zero(self, bench_circuit):
        assert optimal_residual(100.0 * bench_circuit.tau, bench_circuit) < 1e-30
        assert optimal_residual(1e9, bench_circuit) == 0.0

    @pytest.mark.parametrize("multiple", [355.0, 400.0, 700.0])
    def test_overflowing_square_still_returns(self, sim_circuit, multiple):
        # (1 + exp(T/tau)) ** 2 overflows while 1 + exp(T/tau) is finite
        value = optimal_residual(multiple * sim_circuit.tau, sim_circuit)
        assert 0.0 <= value <= 1e-300

    def test_golden_section_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            circuit = random_circuit(rng)
            duration = float(rng.uniform(0.001, 3.0) * circuit.tau)
            predicted = optimal_residual(duration, circuit)
            numerical = golden_max_residual(duration, circuit)
            assert abs(predicted - numerical) < 1e-8 * circuit.e_max


class TestHarvestSensitivity:
    def test_zero_at_optimal_residual(self, bench_circuit):
        r = optimal_residual(15.0, bench_circuit)
        assert abs(harvest_sensitivity(r, 15.0, bench_circuit)) < 1e-12

    def test_bench_value(self, bench_circuit):
        value = harvest_sensitivity(0.1 * bench_circuit.e_max, 15.0, bench_circuit)
        assert value == pytest.approx(BENCH_SLOPE_AT_TENTH, rel=1e-12)

    def test_sign_flips_across_the_maximum(self, bench_circuit):
        r_star = optimal_residual(15.0, bench_circuit)
        assert harvest_sensitivity(0.5 * r_star, 15.0, bench_circuit) > 0
        assert harvest_sensitivity(1.5 * r_star, 15.0, bench_circuit) < 0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            circuit = random_circuit(rng)
            duration = float(rng.uniform(0.001, 2.0) * circuit.tau)
            r = float(rng.uniform(1e-6, 0.999) * circuit.e_max)
            step = 1e-7 * circuit.e_max
            if r - step <= 0 or r + step >= circuit.e_max:
                continue
            fd = (harvested_energy(r + step, duration, circuit)
                  - harvested_energy(r - step, duration, circuit)) / (2 * step)
            analytic = harvest_sensitivity(r, duration, circuit)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_singularity_guard(self, bench_circuit):
        with pytest.raises(ValueError):
            harvest_sensitivity(0.0, 15.0, bench_circuit)
        with pytest.raises(ValueError):
            harvest_sensitivity(-0.1, 15.0, bench_circuit)


class TestPacketLengthFor:
    def test_zero_harvest_takes_no_time(self, bench_circuit):
        assert packet_length_for(0.3, 0.0, bench_circuit) == 0.0

    def test_bench_round_trip(self, bench_circuit):
        r = BENCH_OPT_RATIO * bench_circuit.e_max
        harvested = harvested_energy(r, 15.0, bench_circuit)
        duration = packet_length_for(r, harvested, bench_circuit)
        assert duration == pytest.approx(15.0, rel=1e-9)

    def test_full_charge_is_infeasible(self, bench_circuit):
        with pytest.raises(InfeasibleError):
            packet_length_for(0.5, bench_circuit.e_max - 0.5, bench_circuit)
        with pytest.raises(InfeasibleError):
            packet_length_for(0.0, bench_circuit.e_max * 1.5, bench_circuit)

    def test_near_full_charge_exceeds_time_cap(self, bench_circuit):
        # 50 time constants leave a residual gap below machine epsilon of
        # the voltage, so anything closer than that is reported infeasible.
        target = bench_circuit.e_max * (1.0 - 1e-45)
        with pytest.raises(InfeasibleError):
            packet_length_for(0.0, target, bench_circuit)

    def test_target_a_rounding_below_full_is_infeasible(self, sim_circuit):
        # below e_max, yet the quotient q rounds to 1: log1p(-q) is undefined
        with pytest.raises(InfeasibleError):
            packet_length_for(6.827999012081817e-09, 0.15624999317200097, sim_circuit)

    def test_negative_inputs_rejected(self, bench_circuit):
        with pytest.raises(ValueError):
            packet_length_for(-1e-9, 0.01, bench_circuit)
        with pytest.raises(ValueError):
            packet_length_for(0.01, -1e-9, bench_circuit)


class TestChargeModelProperties:
    def test_concavity_in_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            circuit = random_circuit(rng)
            duration = float(rng.uniform(0.001, 2.0) * circuit.tau)
            r = np.sort(rng.uniform(0.0, circuit.e_max, 3))
            if r[0] == r[1] or r[1] == r[2]:
                continue
            values = [harvested_energy(x, duration, circuit) for x in r]
            # second difference of a concave function is non-positive
            w = (r[1] - r[0]) / (r[2] - r[0])
            chord = (1 - w) * values[0] + w * values[2]
            assert chord - values[1] <= 1e-12

    def test_incremental_harvest_identity(self):
        # Harvesting from a small reserve always beats harvesting from
        # empty: Q(dE) - Q(0) = a1*sqrt(dE)*(a3 + a4*sqrt(dE)) > 0 for
        # small dE > 0.
        rng = np.random.default_rng(6)
        for _ in range(50):
            circuit = random_circuit(rng)
            duration = float(rng.uniform(0.001, 2.0) * circuit.tau)
            c = harvest_coefficients(duration, circuit)
            delta = float(rng.uniform(1e-9, 0.5) * circuit.e_max)
            lhs = (harvested_energy(delta, duration, circuit)
                   - harvested_energy(0.0, duration, circuit))
            rhs = c.a1 * math.sqrt(delta) * (c.a3 + c.a4 * math.sqrt(delta))
            assert lhs == pytest.approx(rhs, abs=1e-12)
        small = 1e-9 * circuit.e_max
        gain = (harvested_energy(small, duration, circuit)
                - harvested_energy(0.0, duration, circuit))
        assert gain > 0

    def test_monotone_in_duration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            circuit = random_circuit(rng)
            r = float(rng.uniform(0.0, 0.99) * circuit.e_max)
            d1, d2 = np.sort(rng.uniform(1e-4, 3.0, 2) * circuit.tau)
            if d1 == d2:
                continue
            assert harvested_energy(r, d2, circuit) \
                > harvested_energy(r, d1, circuit)

    def test_round_trip_duration(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            circuit = random_circuit(rng)
            duration = float(rng.uniform(1e-3, 3.0) * circuit.tau)
            r = float(rng.uniform(0.0, 0.9) * circuit.e_max)
            harvested = harvested_energy(r, duration, circuit)
            recovered = packet_length_for(r, harvested, circuit)
            assert recovered == pytest.approx(duration, rel=1e-9)


@pytest.fixture(scope="module")
def decimal_draws():
    """(T, r, reference values) on the reference circuit, T/tau log-uniform
    in [1e-10, 5] and r uniform in [0, 0.99 e_max]; the references come
    from the RC charge in 50-digit decimal arithmetic,
    sqrt(stored) = sqrt(e_max) (1 - s) + s sqrt(r) with s = exp(-T/tau)."""
    circuit = ChargeCircuit(resistance=4000.0, capacitance=0.05, v_max=2.5)
    rng = np.random.default_rng(20)
    draws = []
    with localcontext() as ctx:
        ctx.prec = 50
        tau, e_max = Decimal(circuit.tau), Decimal(circuit.e_max)
        for _ in range(2000):
            duration = circuit.tau * 10.0 ** float(rng.uniform(-10.0, math.log10(5.0)))
            residual = float(rng.uniform(0.0, 0.99 * circuit.e_max))
            s = (-Decimal(duration) / tau).exp()
            root = e_max.sqrt() * (1 - s) + s * Decimal(residual).sqrt()
            draws.append((duration, residual, {
                "q": float(1 - s), "s": float(s),
                "harvest": float(root * root - Decimal(residual)),
                "slope": float(root * s / Decimal(residual).sqrt() - 1),
                "optimal_residual": float(e_max * (s / (1 + s)) ** 2),
            }))
    return circuit, draws


class TestChargeMapAccuracy:
    """The charge map's quantities against a 50-digit decimal reference,
    across short packets, where 1 - exp(-T/tau) cancels, to 5 tau."""

    def test_harvest(self, decimal_draws):
        circuit, draws = decimal_draws
        worst = max(abs(harvested_energy(r, d, circuit) / ref["harvest"] - 1.0)
                    for d, r, ref in draws)
        assert worst <= 1e-13

    def test_slope(self, decimal_draws):
        circuit, draws = decimal_draws
        worst = max(abs(harvest_sensitivity(r, d, circuit) - ref["slope"])
                    / (ref["q"] * (1.0 + ref["s"])) for d, r, ref in draws)
        assert worst <= 1e-13

    def test_optimal_residual(self, decimal_draws):
        circuit, draws = decimal_draws
        worst = max(abs(optimal_residual(d, circuit) / ref["optimal_residual"] - 1.0)
                    for d, _, ref in draws)
        assert worst <= 4e-15

    def test_packet_length_for_inverts_the_exact_harvest(self, decimal_draws):
        circuit, draws = decimal_draws
        worst = max(abs(packet_length_for(r, ref["harvest"], circuit) / d - 1.0)
                    for d, r, ref in draws)
        assert worst <= 2e-12
