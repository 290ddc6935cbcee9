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

The solver's unknowns are the residuals r_1..r_N at the arrivals.  With
G_k(r) = (sqrt(e_max) q_k + s_k sqrt(r))^2 the store right after
arrival k ((q_k, s_k) the packet's charge map in ``charge``),
p_1 = (E0 - r_1) / l_1, p_{k+1} = (G_k(r_k) - r_{k+1}) / l_{k+1} and
p_{N+1} = G_N(r_N) / l_{N+1}.
G_k is concave and increasing, so the objective is concave in r with a
tridiagonal Hessian: damped Newton steps of one O(N) sweep each reach
the optimum.  Each step is Newton's in root energy u = sqrt(r), where
G_k is the quadratic (a_k + s_k u)^2, from the better of two starts:
half the store kept at every arrival, or the store spent evenly over
the time left (the optimum when the harvest is negligible).  An active
set keeps p >= 0: an idle epoch ties its residual to the store before
it, so its power is exactly 0, until its multiplier turns negative.
r >= 0 binds only where G_k is flat (s_k below about 1e-16).  On the
other epochs the optimum satisfies

    1/g + p_{m+1} = (1/g + p_m) * (X_m + 1),

with X_m the harvest sensitivity at arrival m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .charge import ChargeCircuit, _charge_maps, _harvest_step
from .exceptions import SolverError

__all__ = [
    "EnergyScenario",
    "TransmissionSchedule",
    "HarvestTrace",
    "FeasibilityReport",
    "SolveReport",
    "check_feasibility",
    "throughput",
    "solve",
]

# Status of an arrival's residual: a Newton unknown, tied to the store
# before it (the epoch ending there is idle), or 0 (G is flat).
FREE, IDLE, EMPTY = 0, 1, 2

# Powers this far below zero are treated as roundoff on an exact zero.
POWER_SLACK = 1e-12
MAX_ITERATIONS = 200
# A free residual has converged when it is stationary to this many times
# the rounding of its epochs' powers, or its Newton step leaves it as is.
STATIONARITY_TOL = 2e-15
# An idle epoch is released when its relative multiplier is below -this.
RELEASE_TOL = 1e-9
# Armijo fraction of the predicted rise a step must reach, up to this
# relative rounding of the objective; steps are halved down to MIN_STEP.
ARMIJO = 1e-4
OBJECTIVE_ROUNDING = 1e-14
MIN_STEP = 1e-16
# A step may shrink a free residual to this fraction of itself at most.
BOUNDARY_FRACTION = 0.01


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
        if not 0 <= self.initial_energy < math.inf:
            raise ValueError(f"initial_energy must be finite and >= 0, "
                             f"got {self.initial_energy}")
        if not 0 < self.deadline < math.inf:
            raise ValueError(f"deadline must be finite and > 0, got {self.deadline}")
        prev = 0.0
        for arrival, duration in self.packets:
            if not arrival > prev:
                raise ValueError("arrival times must be strictly increasing from 0 "
                                 "(zero-length epochs are not allowed)")
            if not duration >= 0:
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

    ``clamped`` flags epochs where a replay had to cut power to avoid
    consuming energy it did not have.
    """

    residuals: tuple
    harvested: tuple
    consumed: tuple
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
    iterations: int                  # Newton steps taken
    newton_decrement: float          # last step's predicted rise of sum l ln(1 + g p)
    terminal_residual_error: float   # |residual at deadline|, joules


def check_feasibility(schedule: TransmissionSchedule, trace: HarvestTrace,
                      circuit: ChargeCircuit) -> FeasibilityReport:
    """Verify energy causality and battery capacity on a schedule's trace.

    Causality: the stored energy (the residual at each arrival and at
    the deadline) may never be negative.  Capacity: the stored energy
    right after each harvest may never exceed e_max.  Both checks carry
    an additive slack of 1e-9 * e_max for roundoff.
    """
    slack = 1e-9 * circuit.e_max
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
    Summed as log1p(g p) / ln 2, which keeps its relative precision
    where g p is far below 1.
    """
    snr = gain * np.asarray(schedule.powers)
    if np.any(snr < -POWER_SLACK) or np.any(~np.isfinite(snr)):
        raise ValueError("schedule powers must be finite and non-negative")
    lengths = schedule.epoch_lengths
    return float(np.sum(0.5 * lengths * np.log1p(snr))) / math.log(2.0)


def _forward(residuals, status, initial_energy, lengths, curves):
    """(residuals, powers, status) of the point the free residuals set.

    An idle arrival takes the store before it, an empty one 0.  A free
    residual at or above the store before it would leave its epoch no
    power, so it turns idle (in a new status list); so does one at 0,
    where the Newton step is undefined.
    """
    n = len(status)
    status = list(status)
    out, powers = [0.0] * n, [0.0] * (n + 1)
    stored = initial_energy
    for i, (a, s) in enumerate(curves):
        r = residuals[i]
        if status[i] == FREE and not 0.0 < r < stored:
            status[i] = IDLE
        if status[i] == IDLE:
            r = stored
        elif status[i] == EMPTY:
            r = 0.0
        powers[i] = (stored - r) / lengths[i]
        root = a + s * math.sqrt(r)
        stored = root * root
        out[i] = r
    powers[n] = stored / lengths[n]
    return out, powers, status


def _objective(powers, lengths, gain):
    """sum_i l_i ln(1 + g p_i): the throughput in bits times 2 ln 2."""
    return sum(l * math.log1p(gain * p) for l, p in zip(lengths, powers))


def _newton(residuals, powers, status, lengths, curves, gain):
    """Gradient and Newton step of F = sum_e l_e ln(1 + g p_e) in r.

    With w_e = 1 / (1/g + p_e): a free or idle arrival i feeds the store
    of the next non-idle epoch e = nxt[i], through G_i and the idle
    arrivals after it, as T_i(r_i); dF/dr_i = T'_i w_e - w_i, at an idle
    arrival the multiplier of its p >= 0.  Returns (w, grad, step, free,
    nxt, slope): ``step`` is 0 off the ``free`` arrivals, slope is T'.
    """
    n = len(status)
    w = [gain / (1.0 + gain * p) for p in powers]
    slope, bend, nxt = [0.0] * n, [0.0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        r, (a, s) = residuals[i], curves[i]
        c = a * s                        # G'(r) = c / sqrt(r) + s^2
        if c == 0.0:
            g1, g2 = s * s, 0.0
        elif r == 0.0:
            # only where no free residual feeds the store (it stays 0)
            g1, g2 = math.inf, -math.inf
        else:
            g1 = c / math.sqrt(r)
            g2 = -0.5 * g1 / r
            g1 += s * s
        if i + 1 < n and status[i + 1] == IDLE:
            bend[i] = bend[i + 1] * g1 * g1 + slope[i + 1] * g2
            slope[i] = slope[i + 1] * g1
            nxt[i] = nxt[i + 1]
        else:
            slope[i], bend[i], nxt[i] = g1, g2, i + 1
    grad = [slope[i] * w[nxt[i]] - w[i] for i in range(n)]

    # Over the free residuals -Hessian is tridiagonal: sum_e D_e q_e q_e^T
    # plus -T''_i w_e on the diagonal, D_e = w_e^2/l_e, q_e the gradient of
    # epoch e's spend (-1 at its own residual, T' at the one feeding its
    # store).  The Thomas sweep merges each epoch into the stiffness P
    # before it like springs in series, D / (1 + D T'^2 / P), so no pivot
    # cancels however stiff an epoch is (near idle at a large gain), and
    # carries 1/P, so a curvature that overflows near r = 0 gives a step
    # of 0, not NaN.  The step is Newton's in u = sqrt(r): the u-curvature
    # adds -grad_i / (2 r_i), kept where positive, so y = u / u* goes to
    # 2y - y^2 from below on F = c sqrt(r) - b r (an r step triples r).
    free = [i for i in range(n) if status[i] == FREE]
    shift, pull, merged = [], [], []
    compliance = 0.0
    for j, i in enumerate(free):
        own = w[i] * w[i] / lengths[i]
        t = slope[free[j - 1]] if j and nxt[free[j - 1]] == i else 0.0
        link = own * t * compliance if t else 0.0
        pull.append(link)
        merged.append(1.0 + link * t)
        e = nxt[i]
        curvature = own / merged[-1] - bend[i] * w[e]
        if grad[i] < 0.0:
            curvature -= 0.5 * grad[i] / residuals[i]
        if e == n or status[e] != FREE:
            curvature += slope[i] * slope[i] * w[e] * w[e] / lengths[e]
        force = grad[i] + shift[-1] * own * t / merged[-1] if t else grad[i]
        compliance = 1.0 / curvature
        shift.append(force * compliance)
    pull.append(0.0)
    merged.append(1.0)
    step = [0.0] * n
    following = 0.0
    for j in range(len(free) - 1, -1, -1):
        following = (shift[j] + pull[j + 1] * following) / merged[j + 1]
        step[free[j]] = following
    return w, grad, step, free, nxt, slope


def _schedule(residuals, status, scenario: EnergyScenario, circuit: ChargeCircuit, maps):
    """Powers that leave the given arrival residuals, and their trace.

    One pass through the store with replay's arithmetic over each
    packet's charge map in ``maps``; each power is set from the store this
    pass carries, (store - residual) / l, so rounding does not build up
    along the horizon, and an idle epoch's power is exactly 0.  The last
    epoch drains the store.
    """
    n = len(maps)
    e_max, root_e_max = circuit.e_max, math.sqrt(circuit.e_max)
    stored = scenario.initial_energy
    powers, out, harvested, consumed = [], [], [], []
    for i, length in enumerate(scenario.epoch_lengths.tolist()):
        if i < n and status[i] == IDLE:
            power = 0.0
        else:
            power = max((stored - (residuals[i] if i < n else 0.0)) / length, 0.0)
        spend = power * length
        residual = stored - spend
        powers.append(power)
        consumed.append(spend)
        out.append(residual)
        if i < n:
            carried = max(residual, 0.0)
            harvest = _harvest_step(maps[i], e_max, root_e_max, carried)
            harvested.append(harvest)
            stored = min(carried + harvest, e_max)
    schedule = TransmissionSchedule(powers=powers, epoch_bounds=tuple(scenario.epoch_bounds))
    return schedule, HarvestTrace(residuals=out, harvested=harvested, consumed=consumed)


def _line_search(residuals, powers, status, value, free, step, slope, nxt, decrement,
                 initial_energy, lengths, curves, gain):
    """Damped Newton step: (residuals, powers, status, value), or None.

    A step t moves u = sqrt(r) by t z / (2u), r by t z + (t z)^2 / (4r).
    Starts from the longest step keeping every free residual above
    ``BOUNDARY_FRACTION`` of itself and, to first order, every free
    epoch's power non-negative; the epoch that limits it lands on p = 0
    and turns idle, however short the step.  Halves the step until the
    objective rises by an Armijo fraction of the predicted increase, up
    to its own rounding; None below ``MIN_STEP``.
    """
    t, blocking = 1.0, -1
    reach = 2.0 * (1.0 - math.sqrt(BOUNDARY_FRACTION))    # u to sqrt(fraction) u
    change = [0.0] * len(powers)
    for i in free:
        if step[i] < 0.0:
            t = min(t, reach * residuals[i] / -step[i])
        change[i] -= step[i] / lengths[i]
        change[nxt[i]] += slope[i] * step[i] / lengths[nxt[i]]
    for i in free:
        if change[i] < 0.0 and powers[i] < -t * change[i]:
            t, blocking = powers[i] / -change[i], i
    while t >= MIN_STEP or blocking >= 0:
        trial = [r + t * d + 0.25 * (t * d) ** 2 / r if d else r
                 for r, d in zip(residuals, step)]
        if blocking >= 0:
            trial[blocking] = math.inf    # at or above the store: idle
        trial, trial_powers, trial_status = _forward(trial, status, initial_energy,
                                                     lengths, curves)
        trial_value = _objective(trial_powers, lengths, gain)
        if trial_value >= value + ARMIJO * t * decrement - OBJECTIVE_ROUNDING * value:
            return trial, trial_powers, trial_status, trial_value
        t, blocking = 0.5 * t, -1
    return None


def _optimal_residuals(initial_energy, lengths, curves, gain, e_max_root):
    """The Newton method of :func:`solve`.

    Returns (residuals, status, iterations, last Newton decrement).
    """
    # Where G is flat in floating point, whatever is left at the arrival
    # is lost to the full charge, so the residual there is 0.
    status = [EMPTY if a + s * e_max_root == a else FREE for a, s in curves]
    left = list(accumulate(reversed(lengths)))[::-1]    # time left at each epoch's start
    best = (-math.inf,)
    for kept in ([0.5] * len(curves), [1.0 - l / rest for l, rest in zip(lengths, left)]):
        start, stored = [], initial_energy
        for (a, s), share in zip(curves, kept):
            start.append(share * stored)
            stored = (a + s * math.sqrt(start[-1])) ** 2
        point = _forward(start, status, initial_energy, lengths, curves)
        value = _objective(point[1], lengths, gain)
        if value > best[-1]:
            best = (*point, value)
    residuals, powers, status, value = best

    decrement = math.inf
    for iteration in range(1, MAX_ITERATIONS + 1):
        w, grad, step, free, nxt, slope = _newton(residuals, powers, status, lengths,
                                                  curves, gain)
        decrement = sum(grad[i] * step[i] for i in free)
        # relative rounding of each epoch's w: 1 + (store at its start) w / l
        rounding = [1.0 + (r + p * l) * x / l
                    for r, p, l, x in zip(residuals + [0.0], powers, lengths, w)]
        if all(abs(grad[i]) <= STATIONARITY_TOL * w[i] * (rounding[i] + rounding[nxt[i]])
               or residuals[i] + step[i] == residuals[i] for i in free):
            worst, i = min(((grad[i] / w[i], i) for i, state in enumerate(status)
                            if state == IDLE), default=(0.0, -1))
            if worst >= -RELEASE_TOL:
                return residuals, status, iteration, decrement
            status[i] = FREE
            continue

        moved = _line_search(residuals, powers, status, value, free, step, slope, nxt,
                             decrement, initial_energy, lengths, curves, gain)
        if moved is None:
            break
        residuals, powers, status, value = moved
        # Drop this step's vectors before the next one builds its own.
        del w, grad, step, free, nxt, slope, rounding
    raise SolverError("Newton method did not converge",
                      diagnostics={"iterations": iteration, "newton_decrement": decrement})


def solve(scenario: EnergyScenario, circuit: ChargeCircuit,
          gain: float = 1.0) -> SolveReport:
    """Compute the throughput-maximizing schedule.

    ``gain`` is the link's SNR per watt (1 for normalized units); the
    schedule and trace are in watts and joules and the throughput in
    bits either way.

    Damped Newton steps over the arrival residuals (module docstring);
    a step that would take a free epoch's power below 0 stops there and
    makes the epoch idle.  Once the free residuals are stationary, the
    idle epoch with the most negative multiplier is released, and with
    none left the point is optimal.  One pass through the store turns it
    into powers and a trace, which :func:`check_feasibility` checks.

    Raises:
        SolverError: after ``MAX_ITERATIONS`` steps or a step cut below
            ``MIN_STEP`` without convergence, or when the trace fails the
            check; its diagnostics hold ``iterations`` and the last
            ``newton_decrement``.
    """
    if scenario.initial_energy > circuit.e_max:
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    e_max_root = math.sqrt(circuit.e_max)
    maps = _charge_maps(scenario.packet_lengths.tolist(), circuit)
    # (a, s) of G(r) = (a + s sqrt r)^2
    curves = [(e_max_root * q, s) for q, s in maps]
    residuals, status, iterations, decrement = _optimal_residuals(
        scenario.initial_energy, scenario.epoch_lengths.tolist(), curves, gain, e_max_root)
    schedule, trace = _schedule(residuals, status, scenario, circuit, maps)
    verdict = check_feasibility(schedule, trace, circuit)
    if not verdict.ok:
        raise SolverError("optimum fails the feasibility check",
                          diagnostics={"iterations": iterations, "newton_decrement": decrement,
                                       "violated": verdict.violated, "epoch": verdict.epoch})
    return SolveReport(
        schedule=schedule,
        trace=trace,
        throughput=throughput(schedule, gain),
        iterations=iterations,
        newton_decrement=decrement,
        terminal_residual_error=abs(trace.terminal_residual),
    )
