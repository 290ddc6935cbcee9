"""Offline-optimal transmission scheduling under the feedback harvest model.

The problem: a transmitter holding ``initial_energy`` joules receives N
energy packets at known times with known charge durations and must pick
a piecewise-constant power profile (one level per epoch, an epoch being
the interval between consecutive arrivals) that maximizes

    sum_i (l_i / 2) * log2(1 + g * p_i)

subject to never consuming energy it does not hold and never exceeding
the battery, where the energy captured from packet i depends on the
residual energy at its arrival and therefore on all earlier powers.
The link gain g is the SNR per watt; g = 1 gives normalized SNR units,
and any other g keeps powers in watts and energies in joules.

The stationarity conditions of the corresponding KKT system collapse to
a one-variable problem: fixing the residual energy at the first arrival
determines every later power through the recursion

    1/g + p_{m+1} = (1/g + p_m) * (X_m + 1),

with X_m the harvest sensitivity at arrival m.  One array function runs
it from any number of first residuals at once.  Candidate optima are the
roots of the terminal-residual function J(r1) = residual at the deadline;
the solver brackets them on a grid, refines each bracket, filters
infeasible candidates, and keeps the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charge import (
    ChargeCircuit,
    _harvest_curve,
    _harvest_slope,
    _harvest_value,
    harvested_energy,
    optimal_residual,
)
from .exceptions import SolverError

__all__ = [
    "EnergyScenario",
    "TransmissionSchedule",
    "HarvestTrace",
    "FeasibilityReport",
    "SolveReport",
    "propagate",
    "terminal_residual",
    "find_candidates",
    "check_feasibility",
    "throughput",
    "solve",
]

# Uniform samples of the terminal-residual function used to bracket roots.
ROOT_SCAN_POINTS = 2000
MAX_NEWTON_STEPS = 10
# Bound on |terminal residual| for an accepted root, joules.
DEFAULT_TOLERANCE = 1e-10
# Powers this far below zero are treated as roundoff on an exact zero.
POWER_SLACK = 1e-12


@dataclass(frozen=True)
class EnergyScenario:
    """Energy arrival process and transmission deadline.

    ``packets`` is an ordered tuple of (arrival_time, charge_duration)
    pairs, both in seconds.  Epoch i is the interval between arrivals
    i-1 and i (with t_0 = 0 and t_{N+1} = deadline), so there are
    len(packets) + 1 epochs and every epoch must have positive length.
    """

    initial_energy: float                      # joules in the battery at t = 0
    packets: tuple                             # ((arrival, charge_duration), ...)
    deadline: float                            # seconds

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple((float(t), float(d)) for t, d in self.packets))
        if self.initial_energy < 0:
            raise ValueError(f"initial_energy must be >= 0, got {self.initial_energy}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        prev = 0.0
        for arrival, duration in self.packets:
            if arrival <= prev:
                raise ValueError("arrival times must be strictly increasing from 0 "
                                 "(zero-length epochs are not allowed)")
            if duration < 0:
                raise ValueError(f"packet charge duration must be >= 0, got {duration}")
            prev = arrival
        if self.packets and self.packets[-1][0] >= self.deadline:
            raise ValueError("all arrivals must precede the deadline")

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    @property
    def arrival_times(self) -> np.ndarray:
        return np.array([t for t, _ in self.packets], dtype=float)

    @property
    def packet_lengths(self) -> np.ndarray:
        return np.array([d for _, d in self.packets], dtype=float)

    @property
    def epoch_bounds(self) -> np.ndarray:
        """Grid [0, t_1, ..., t_N, deadline] of epoch boundaries."""
        return np.concatenate(([0.0], self.arrival_times, [self.deadline]))

    @property
    def epoch_lengths(self) -> np.ndarray:
        return np.diff(self.epoch_bounds)


@dataclass(frozen=True)
class TransmissionSchedule:
    """One transmission power per epoch, constant within the epoch."""

    powers: tuple        # watts (normalized SNR units), one per epoch
    epoch_bounds: tuple  # seconds, length len(powers) + 1

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        object.__setattr__(self, "epoch_bounds", tuple(float(t) for t in self.epoch_bounds))
        if len(self.epoch_bounds) != len(self.powers) + 1:
            raise ValueError("epoch_bounds must have one more entry than powers")

    @property
    def epoch_lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.epoch_bounds))


@dataclass(frozen=True)
class HarvestTrace:
    """Per-epoch energy bookkeeping of one schedule execution.

    ``residuals[i]`` is the stored energy at the end of epoch i+1 (at
    arrival i+1, before its harvest; the last entry is the residual at
    the deadline).  ``harvested[i]`` is the energy captured from packet
    i+1 and ``consumed[i]`` the energy spent during epoch i+1.  Energy
    conservation holds link by link:

        residuals[i+1] = residuals[i] + harvested[i] - consumed[i+1].

    ``infeasible_from`` marks the 1-based epoch at which a propagation
    hit the depleted-battery singularity (entries beyond it are NaN);
    ``clamped`` flags epochs where a replay had to cut power to avoid
    consuming energy it did not have.
    """

    residuals: tuple
    harvested: tuple
    consumed: tuple
    infeasible_from: Optional[int] = None
    clamped: tuple = ()

    def __post_init__(self):
        for name in ("residuals", "harvested", "consumed"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        object.__setattr__(self, "clamped", tuple(bool(x) for x in self.clamped))

    @property
    def terminal_residual(self) -> float:
        return self.residuals[-1]

    @property
    def total_harvested(self) -> float:
        return float(np.sum(self.harvested))


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the constraint check on a schedule/trace pair."""

    ok: bool
    violated: Optional[str] = None   # "causality" or "capacity"
    epoch: Optional[int] = None      # 1-based epoch of the first violation


@dataclass(frozen=True)
class SolveReport:
    """Winning schedule plus solver bookkeeping."""

    schedule: TransmissionSchedule
    trace: HarvestTrace
    throughput: float                # bits (normalized when gain = 1)
    candidates_examined: int
    terminal_residual_error: float   # |residual at deadline|, joules
    first_residual: float            # the winning root of J


def _packet_curves(scenario: EnergyScenario, circuit: ChargeCircuit):
    return [_harvest_curve(d, circuit) for d in scenario.packet_lengths]


def _shoot(first_residuals, scenario: EnergyScenario, curves, gain: float,
           history: bool = True):
    """Run the stationarity recursion from one or many first-arrival residuals.

    Sets p_1 = (initial_energy - r_1) / l_1 and then applies
    1/g + p_{m+1} = (1/g + p_m)(X_m + 1) across arrivals, carrying the
    energy balance forward, for every start at once.  A scalar start
    runs on numpy scalars, an array of starts elementwise.

    Returns (powers, residuals, harvests, depleted): one row per epoch
    (per arrival for harvests), and per start the first arrival, 1-based,
    whose residual is not positive (the sensitivity X is singular there),
    or 0.  A depleted start's rows from that arrival on mean nothing.
    Without ``history`` only the last rows are kept, so a scan over
    thousands of starts and arrivals stays small.
    """
    r = np.asarray(first_residuals, dtype=float)[()]
    valid = np.isfinite(r) & (r >= 0)
    if not np.all(valid):
        raise ValueError(f"first_residual must be finite and >= 0, got {r[~valid][0]}")
    lengths = scenario.epoch_lengths
    inverse = 1.0 / gain
    p = (scenario.initial_energy - r) / lengths[0]
    alive, reached = True, 0
    powers, residuals, harvests = [p], [r], []
    # Depleted starts run on through square roots of negative residuals
    # and divisions by zero; their results are discarded.
    with np.errstate(all="ignore"):
        for m, curve in enumerate(curves, start=1):
            alive = alive & (r > 0.0)
            reached = reached + alive
            harvest = _harvest_value(curve, r)
            p = (inverse + p) * (_harvest_slope(curve, r) + 1.0) - inverse
            r = r + harvest - p * lengths[m]
            if not history:
                powers, residuals, harvests = [], [], []
            powers.append(p)
            residuals.append(r)
            harvests.append(harvest)
    depleted = np.where(alive, 0, reached + 1)
    return (np.array(powers), np.array(residuals),
            np.reshape(harvests, (-1,) + np.shape(r)), depleted)


def _terminal(first_residuals, scenario: EnergyScenario, curves, gain: float):
    _, residuals, _, depleted = _shoot(first_residuals, scenario, curves, gain, history=False)
    return np.where(depleted == 0, residuals[-1], -np.inf)


def propagate(first_residual: float, scenario: EnergyScenario, circuit: ChargeCircuit,
              gain: float = 1.0):
    """Run the stationarity recursion from a fixed first-arrival residual.

    Sets p_1 = (initial_energy - first_residual) / l_1 and then applies
    1/g + p_{m+1} = (1/g + p_m)(X_m + 1) across arrivals, with g the
    link gain.  Intermediate residuals are allowed to go negative only
    at the deadline; a non-positive residual at an arrival (where the
    sensitivity X is singular) marks the propagation infeasible from
    that epoch instead of raising, and every later entry is NaN.

    Returns:
        (TransmissionSchedule, HarvestTrace)
    """
    powers, residuals, harvests, depleted = _shoot(
        first_residual, scenario, _packet_curves(scenario, circuit), gain)
    infeasible_from = int(depleted) or None
    if infeasible_from:
        powers[infeasible_from:] = np.nan
        residuals[infeasible_from:] = np.nan
        harvests[infeasible_from - 1:] = np.nan
    schedule = TransmissionSchedule(powers=tuple(powers), epoch_bounds=tuple(scenario.epoch_bounds))
    trace = HarvestTrace(
        residuals=tuple(residuals),
        harvested=tuple(harvests),
        consumed=tuple(powers * scenario.epoch_lengths),
        infeasible_from=infeasible_from,
    )
    return schedule, trace


def terminal_residual(first_residual: float, scenario: EnergyScenario,
                      circuit: ChargeCircuit) -> float:
    """Residual energy left at the deadline, as a function of the first one.

    This is the scalar function J whose roots are the KKT candidates.
    Infeasible propagations map to -inf, strictly below any root.
    """
    return float(_terminal(first_residual, scenario, _packet_curves(scenario, circuit), 1.0))


def _scan_upper_bound(scenario: EnergyScenario, circuit: ChargeCircuit) -> float:
    """Upper end of the root scan: initial energy plus best-case harvest."""
    best = sum(
        harvested_energy(optimal_residual(d, circuit), d, circuit)
        for d in scenario.packet_lengths
    )
    return scenario.initial_energy + best


def find_candidates(scenario: EnergyScenario, circuit: ChargeCircuit,
                    gain: float = 1.0) -> list:
    """All roots of the terminal-residual function J.

    Samples J on a uniform grid over [0, initial_energy + max harvest],
    brackets every sign change, and refines each bracket by bisection
    followed by a few Newton polish steps with a finite-difference
    derivative.  Grid points where |J| is already within
    ``DEFAULT_TOLERANCE`` are accepted directly (this catches the
    boundary root of packet-free scenarios).  Returns distinct roots in
    increasing order; empty when J never changes sign.
    """
    hi = _scan_upper_bound(scenario, circuit)
    if hi <= 0.0:
        # No energy at all: the only schedule is all-zero power.
        return [0.0]
    curves = _packet_curves(scenario, circuit)
    grid = np.linspace(0.0, hi, ROOT_SCAN_POINTS)
    values = _terminal(grid, scenario, curves, gain)

    def j(x):
        return float(_terminal(x, scenario, curves, gain))

    roots = grid[np.isfinite(values) & (np.abs(values) <= DEFAULT_TOLERANCE)].tolist()
    # Exact zeros were collected above; NaN ends bracket nothing.
    va, vb = values[:-1], values[1:]
    brackets = np.flatnonzero(~np.isnan(va) & ~np.isnan(vb) & (va != 0.0) & (vb != 0.0)
                              & ((va < 0) != (vb < 0)))
    for k in brackets:
        a, b = float(grid[k]), float(grid[k + 1])
        fa = va[k]
        x, fx = 0.5 * (a + b), np.inf
        # The recursion can be violently unstable (its sensitivity
        # compounds across arrivals), leaving a root band far narrower
        # than the nominal width target, so keep halving past it down to
        # machine spacing until the residual tolerance is met.
        while b - a > 4.0 * np.spacing(max(abs(a), abs(b))):
            mid = 0.5 * (a + b)
            fm = j(mid)
            if np.isfinite(fm) and abs(fm) < abs(fx):
                x, fx = mid, fm
            if abs(fm) <= DEFAULT_TOLERANCE:
                break
            if (fm < 0) == (fa < 0):
                a, fa = mid, fm
            else:
                b = mid
        step = max(1e-9 * circuit.e_max, 1e-6 * abs(x))
        for _ in range(MAX_NEWTON_STEPS):
            if abs(fx) <= DEFAULT_TOLERANCE or not np.isfinite(fx):
                break
            derivative = (j(x + step) - j(x - step)) / (2.0 * step)
            if not np.isfinite(derivative) or derivative == 0.0:
                break
            x_new = x - fx / derivative
            if not (grid[k] <= x_new <= grid[k + 1]) or not np.isfinite(x_new):
                break
            f_new = j(x_new)
            if not np.isfinite(f_new) or abs(f_new) >= abs(fx):
                break
            x, fx = x_new, f_new
        if np.isfinite(fx) and abs(fx) <= DEFAULT_TOLERANCE:
            roots.append(float(x))

    # Deduplicate: sign-change refinement and direct grid hits can land
    # on the same root from both sides.
    roots.sort()
    merged = []
    merge_width = 1e-9 * hi
    for r in roots:
        if not merged or r - merged[-1] > merge_width:
            merged.append(r)
    return merged


def check_feasibility(schedule: TransmissionSchedule, trace: HarvestTrace,
                      circuit: ChargeCircuit) -> FeasibilityReport:
    """Verify energy causality and battery capacity on a propagated trace.

    Causality: the stored energy (the residual at each arrival and at
    the deadline) may never be negative.  Capacity: the stored energy
    right after each harvest may never exceed e_max.  Both checks carry
    an additive slack of 1e-9 * e_max for roundoff.
    """
    slack = 1e-9 * circuit.e_max
    if trace.infeasible_from is not None:
        return FeasibilityReport(ok=False, violated="causality", epoch=trace.infeasible_from)
    residuals = np.asarray(trace.residuals)
    harvested = np.asarray(trace.harvested)
    for i, r in enumerate(residuals, start=1):
        if r < -slack:
            return FeasibilityReport(ok=False, violated="causality", epoch=i)
    for i, (r, h) in enumerate(zip(residuals[:-1], harvested), start=1):
        if r + h > circuit.e_max + slack:
            return FeasibilityReport(ok=False, violated="capacity", epoch=i)
    return FeasibilityReport(ok=True)


def throughput(schedule: TransmissionSchedule, gain: float = 1.0) -> float:
    """Objective value sum_i (l_i/2) * log2(1 + g * p_i) in bits.

    ``gain`` is the SNR per watt; the default 1 gives normalized bits.
    """
    snr = gain * np.asarray(schedule.powers)
    if np.any(snr < -POWER_SLACK) or np.any(~np.isfinite(snr)):
        raise ValueError("schedule powers must be finite and non-negative")
    lengths = schedule.epoch_lengths
    return float(np.sum(0.5 * lengths * np.log2(1.0 + snr)))


def solve(scenario: EnergyScenario, circuit: ChargeCircuit,
          gain: float = 1.0) -> SolveReport:
    """Compute the throughput-maximizing schedule.

    ``gain`` is the link's SNR per watt (1 for normalized units); the
    schedule and trace are in watts and joules and the throughput in
    bits either way.

    Enumerates the roots of the terminal-residual function, always
    appending the two boundary candidates (almost-zero and almost-full
    first residual) in case every interior KKT point is infeasible,
    propagates each candidate, drops any with negative powers or
    constraint violations, and returns the feasible candidate with the
    highest objective.  Ties within 1e-12 relative go to the smallest
    first residual, keeping the output deterministic.

    Raises:
        SolverError: when no candidate survives filtering.
    """
    if scenario.initial_energy > circuit.e_max:
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    roots = find_candidates(scenario, circuit, gain)
    eps = 1e-12 * circuit.e_max
    candidates = list(roots)
    for boundary in (eps, scenario.initial_energy - eps):
        if boundary > 0:
            candidates.append(boundary)
    candidates = sorted(set(candidates))

    best = None
    best_throughput = -np.inf
    rejected = {"infeasible_propagation": 0, "negative_power": 0, "constraints": 0}
    for first_residual in candidates:
        schedule, trace = propagate(first_residual, scenario, circuit, gain)
        if trace.infeasible_from is not None:
            rejected["infeasible_propagation"] += 1
            continue
        if min(schedule.powers) * gain < -POWER_SLACK:
            rejected["negative_power"] += 1
            continue
        verdict = check_feasibility(schedule, trace, circuit)
        if not verdict.ok:
            rejected["constraints"] += 1
            continue
        value = throughput(schedule, gain)
        # Strictly-better-beyond-roundoff wins; candidates are visited in
        # increasing first_residual order, so ties keep the smallest one.
        tie_width = 1e-12 * max(1.0, abs(value), abs(best_throughput))
        if value - best_throughput > tie_width or best is None:
            best = (schedule, trace, value, first_residual)
            best_throughput = value
    if best is None:
        raise SolverError(
            "no feasible candidate schedule",
            diagnostics={
                "roots_found": len(roots),
                "candidates": len(candidates),
                "rejected": rejected,
                "scan_upper_bound": _scan_upper_bound(scenario, circuit),
            },
        )
    schedule, trace, value, first_residual = best
    return SolveReport(
        schedule=schedule,
        trace=trace,
        throughput=value,
        candidates_examined=len(candidates),
        terminal_residual_error=abs(trace.terminal_residual),
        first_residual=first_residual,
    )
