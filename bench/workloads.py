"""The four benchmark workloads: fixed inputs, ops and output checks.

A workload is one pass of units.  The runner repeats the pass until its
time is up.  A unit runs one or more ops (one op per generated scenario
or oracle instance) and returns an :class:`Outcome`.  The outcome's
text is hashed, so a unit repeated with the same code and seed must
give the same digest bit for bit.

Every call into the program goes through a module attribute
(``simulator.monte_carlo``, not a local alias), so the tracer in
``tracer.py`` sees it.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from rfharvest import cli, config, scheduling, simulator, strategies
from rfharvest.exceptions import GenerationError, SolverError

# Relative margin of every comparison between two throughputs.
REL_MARGIN = 1e-9
FIG6_STRATEGIES = ("optimal", "max_harvest", "tight_string")
BASELINE_STRATEGIES = ("max_harvest", "tight_string", "online")

# solve_stress: reference-generator scenarios per packet count, and the
# size of the heterogeneous family, chosen so that a pass takes about
# 6 s and a run repeats it.  N = 65536 is left out: one failing solve
# there would take most of a run.
STRESS_SIZES = {"N32": (32, 24), "N256": (256, 8), "N4096": (4096, 1)}
HETERO_SCENARIOS = 300
BASELINE_PACKETS = 1024
BASELINE_RUNS = 8


@dataclass
class Outcome:
    ok: int = 0
    failed: int = 0
    wrong: int = 0          # ops whose output check rejected the answer
    text: str = ""          # what the unit computed, for the digest
    errors: list = field(default_factory=list)


@dataclass
class Unit:
    key: str                # stable name, for digests
    ops: int
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    units: list             # one pass
    trace_passes: int       # fixed work of the traced run
    # Time to outcome of each solve, by scenario family: [(ms, failed)].
    solve_ms: dict = field(default_factory=dict)

    @property
    def ops_per_pass(self) -> int:
        return sum(unit.ops for unit in self.units)


class Refused(Exception):
    """The program declined the op without raising, e.g. a non-zero exit."""


def attempt(ops: int, body) -> Outcome:
    """Run ``body`` for ``ops`` ops; a raise fails all of them.

    ``body`` returns (text, ops failed by a check).  SolverError,
    GenerationError and a non-zero CLI exit are the program's known ways
    to refuse an input; any other exception also fails the ops and is
    listed in ``errors``.
    """
    try:
        text, wrong = body()
    except (SolverError, GenerationError, Refused) as exc:
        diagnostics = getattr(exc, "diagnostics", None)
        return Outcome(failed=ops, text=f"{type(exc).__name__}: {exc} {diagnostics!r}")
    except Exception as exc:  # the run goes on; the error is reported
        message = f"{type(exc).__name__}: {exc}"
        return Outcome(failed=ops, text=message, errors=[message])
    return Outcome(ok=ops - wrong, failed=wrong, wrong=wrong, text=text)


def _interleave(*groups):
    """Spread every group evenly over the pass, so a slow spell of the
    machine falls on every group alike."""
    placed = [((k + 0.5) / len(group), g, unit)
              for g, group in enumerate(groups) for k, unit in enumerate(group)]
    return [unit for _, _, unit in sorted(placed, key=lambda p: p[:2])]


def _rows_text(rows) -> str:
    lines = []
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines)


def _load_reference(root, seed):
    run_config = config.load_config(root / "configs" / "reference.yaml")
    if run_config.rate_model != "normalized":
        raise ValueError("the output checks count bits under the normalized rate model")
    return replace(run_config, seed=seed)


def _trace_holds(trace, bits, scenario, circuit) -> bool:
    """Check a replayed trace against the scenario, independently of replay.

    Each harvest is recomputed from the closed-form RC charge curve,
    sqrt(E(T)) = sqrt(e_max) (1 - s) + s sqrt(r) with s = exp(-T / tau),
    not through ``charge``; the store must stay within [0, e_max] and
    balance (residual = stored - consumed), and the bits must equal the
    normalized rate 0.5 l log2(1 + consumed / l) summed over the epochs.
    All within the replay's clamp slack, or a relative 1e-9 for bits.
    """
    slack = max(1e-9 * circuit.e_max, 1e-9)
    n = scenario.n_packets
    residuals = np.asarray(trace.residuals, dtype=float)
    harvested = np.asarray(trace.harvested, dtype=float)
    consumed = np.asarray(trace.consumed, dtype=float)
    if len(residuals) != n + 1 or len(consumed) != n + 1 or len(harvested) != n:
        return False
    carried = np.maximum(residuals[:-1], 0.0)
    decay = np.exp(-np.asarray(scenario.packet_lengths, dtype=float) / circuit.tau)
    root = math.sqrt(circuit.e_max) * (1.0 - decay) + decay * np.sqrt(carried)
    expected = root * root - carried
    stored = np.concatenate(([scenario.initial_energy], carried + harvested))
    lengths = np.asarray(scenario.epoch_lengths, dtype=float)
    expected_bits = float(np.sum(0.5 * lengths * np.log2(1.0 + consumed / lengths)))
    return bool(np.all(np.abs(harvested - expected) <= slack)
                and np.all(stored <= circuit.e_max + slack)
                and np.all(np.abs(stored - consumed - residuals) <= slack)
                and np.all(residuals >= -slack) and np.all(consumed >= 0.0)
                and abs(bits - expected_bits) <= REL_MARGIN * abs(expected_bits)
                and math.isfinite(bits))


def _schedule_holds(report, scenario, circuit) -> bool:
    """A solved schedule replays unclamped, checks out, matches the
    solver's throughput and reaches the bits of max_harvest."""
    trace, bits = simulator.replay(report.schedule, scenario, circuit)
    greedy = strategies.max_harvest_schedule(scenario, circuit)
    _, greedy_bits = simulator.replay(greedy, scenario, circuit)
    return (not any(trace.clamped)
            and _trace_holds(trace, bits, scenario, circuit)
            and abs(bits - report.throughput) <= REL_MARGIN * abs(report.throughput)
            and bits >= greedy_bits - REL_MARGIN * abs(greedy_bits))


# -- sweep_ref ---------------------------------------------------------------

def _sweep_point(point, names, axis, value):
    rows = simulator.monte_carlo(point, names, axis, [value])
    throughput = {row["strategy"]: row["mean_throughput"] for row in rows}
    good = all(math.isfinite(v) for v in throughput.values())
    if "optimal" in throughput and len(throughput) > 1:
        best = throughput["optimal"]
        good = good and all(best >= v - REL_MARGIN * abs(v)
                            for name, v in throughput.items() if name != "optimal")
    return _rows_text(rows), 0 if good else point.runs


def _perturbed(scenario, d, delta_length, delta_packet):
    """fig8's perturbation, built here rather than by the probe: packet d
    charges delta_packet longer and every later arrival, and the
    deadline, move delta_length later."""
    packets = [(t + (delta_length if k > d else 0.0), T + (delta_packet if k == d else 0.0))
               for k, (t, T) in enumerate(scenario.packets, start=1)]
    return scheduling.EnergyScenario(initial_energy=scenario.initial_energy,
                                     packets=tuple(packets),
                                     deadline=scenario.deadline + delta_length)


def _impact(run_config, point, index):
    """future_impact_probe at every configured d.  The check solves the
    base and each perturbed scenario again, checks those schedules, and
    recomputes |p1' - p1| / p1 from them."""
    sweep, circuit = run_config.sweep, run_config.circuit
    rng = np.random.default_rng([run_config.seed, index])
    scenario, _ = simulator.generate_scenario(point, rng)
    base = simulator.optimal_schedule(scenario, circuit)
    good = _schedule_holds(base, scenario, circuit)
    p1 = base.schedule.powers[0]
    changes = []
    for d in sweep.impact_epochs:
        delta_length = sweep.length_delta_fraction * point.mean_epoch_length
        delta_packet = sweep.packet_delta_fraction * scenario.packets[d - 1][1]
        change = simulator.future_impact_probe(
            scenario, circuit, d, delta_length, delta_packet,
            run_config.rate_model, run_config.link)
        changes.append(change)
        moved = _perturbed(scenario, d, delta_length, delta_packet)
        shifted = simulator.optimal_schedule(moved, circuit)
        expected = abs(shifted.schedule.powers[0] - p1) / p1
        good = (good and _schedule_holds(shifted, moved, circuit)
                and abs(change - expected) <= REL_MARGIN * max(expected, 1e-12))
    return " ".join(repr(c) for c in changes), 0 if good else 1


def sweep_ref(root, seed) -> Workload:
    """fig5 (both axes), fig6 and fig8 of the reference config.

    Each sweep point is one monte_carlo call, so the program's own axis
    scaling applies; one op is one generated scenario.  fig7 repeats
    fig6's computation and is left out.
    """
    run_config = _load_reference(root, seed)
    point = config.experiment_config(run_config)
    sweep = run_config.sweep

    def points(figure, names, axis, values):
        return [Unit(f"{figure}/{axis}={v!r}", point.runs,
                     partial(attempt, point.runs, partial(_sweep_point, point, names, axis, v)))
                for v in values]

    fig8 = [Unit(f"fig8/scenario={i}", 1,
                 partial(attempt, 1, partial(_impact, run_config, point, i)))
            for i in range(sweep.scenarios)]
    units = _interleave(
        points("fig5", ("optimal",), "mean_epoch_length", sweep.epoch_lengths),
        points("fig5", ("optimal",), "capacitance", sweep.capacitances),
        points("fig6", FIG6_STRATEGIES, "mean_epoch_length", sweep.epoch_lengths),
        fig8,
    )
    return Workload("sweep_ref", units, trace_passes=1)


# -- solve_stress ------------------------------------------------------------

def _hetero_scenario(rng, circuit):
    """N in 1..5, log-uniform epochs and charge durations, any start energy."""
    n = int(rng.integers(1, 6))
    lengths = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n + 1))
    durations = circuit.tau * np.exp(rng.uniform(math.log(1e-4), math.log(3.0), n))
    initial = float(rng.uniform(0.0, circuit.e_max))
    bounds = np.cumsum(lengths)
    return scheduling.EnergyScenario(initial_energy=initial,
                                     packets=tuple(zip(bounds[:-1], durations)),
                                     deadline=float(bounds[-1]))


def _solve_and_replay(scenario, circuit, samples):
    start = time.perf_counter()
    try:
        report = simulator.optimal_schedule(scenario, circuit)
    except Exception:
        samples.append((1e3 * (time.perf_counter() - start), True))
        raise
    samples.append((1e3 * (time.perf_counter() - start), False))
    good = _schedule_holds(report, scenario, circuit)
    return f"{report.throughput!r}", 0 if good else 1


def solve_stress(root, seed) -> Workload:
    """optimal_schedule then replay, on long reference horizons and on a
    heterogeneous short-horizon family; one op is one scenario.  The
    scenarios are drawn here, in setup."""
    run_config = _load_reference(root, seed)
    point = config.experiment_config(run_config)
    circuit = run_config.circuit
    workload = Workload("solve_stress", [], trace_passes=1)
    groups = []
    for family, (packets, count) in STRESS_SIZES.items():
        sized = replace(point, packet_count=packets)
        samples = workload.solve_ms.setdefault(family, [])
        group = []
        for k in range(count):
            scenario, _ = simulator.generate_scenario(sized, np.random.default_rng([seed, packets, k]))
            group.append(Unit(f"{family}/{k}", 1, partial(
                attempt, 1, partial(_solve_and_replay, scenario, circuit, samples))))
        groups.append(group)
    rng = np.random.default_rng([seed, 0])
    samples = workload.solve_ms.setdefault("hetero", [])
    groups.append([Unit(f"hetero/{k}", 1, partial(
        attempt, 1, partial(_solve_and_replay, _hetero_scenario(rng, circuit), circuit, samples)))
        for k in range(HETERO_SCENARIOS)])
    workload.units = _interleave(*groups)
    return workload


# -- baselines ---------------------------------------------------------------

def _baseline_batch(point) -> Outcome:
    """One monte_carlo call; every trace it replays is checked on the way.

    monte_carlo keeps only averages, so the check wraps
    simulator.evaluate_strategy for the length of the call.
    """
    checks = []
    original = simulator.evaluate_strategy

    def checked(name, scenario, classic, cfg):
        trace, bits = original(name, scenario, classic, cfg)
        checks.append(_trace_holds(trace, bits, scenario, cfg.circuit))
        return trace, bits

    def body():
        simulator.evaluate_strategy = checked
        try:
            rows = simulator.monte_carlo(point, BASELINE_STRATEGIES)
        finally:
            simulator.evaluate_strategy = original
        per_op = len(BASELINE_STRATEGIES)
        if len(checks) != point.runs * per_op:
            raise RuntimeError(f"saw {len(checks)} replayed traces, expected "
                               f"{point.runs * per_op}; the ops went unchecked")
        wrong = {k // per_op for k, good in enumerate(checks) if not good}
        return _rows_text(rows), len(wrong)

    return attempt(point.runs, body)


def baselines(root, seed) -> Workload:
    """max_harvest, tight_string and online at N = 1024; no solve at all."""
    run_config = _load_reference(root, seed)
    point = replace(config.experiment_config(run_config),
                    packet_count=BASELINE_PACKETS, runs=BASELINE_RUNS)
    unit = Unit(f"monte_carlo/N={BASELINE_PACKETS}", point.runs, partial(_baseline_batch, point))
    return Workload("baselines", [unit], trace_passes=2)


# -- oracle_check ------------------------------------------------------------

def _oracle_run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise Refused(f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return stdout.getvalue(), 0


def oracle_check(root, seed) -> Workload:
    """``rfharvest oracle-check`` in process; one op is one instance."""
    path = root / "configs" / "oracle_check.yaml"
    ops = config.load_config(path).runs
    argv = ["oracle-check", "--config", str(path), "--seed", str(seed),
            "--out", str(root / "bench" / "out")]
    unit = Unit("oracle-check", ops, partial(attempt, ops, partial(_oracle_run, argv)))
    return Workload("oracle_check", [unit], trace_passes=4)


BUILDERS = {
    "sweep_ref": sweep_ref,
    "solve_stress": solve_stress,
    "baselines": baselines,
    "oracle_check": oracle_check,
}


def build(name, root, seed) -> Workload:
    """Set up a workload: load its config and make its fixed inputs."""
    return BUILDERS[name](root, seed)
