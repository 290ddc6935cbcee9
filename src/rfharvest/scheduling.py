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
it, so its power is exactly 0.  The steps are projected Newton steps
(Bertsekas 1982): a step is not cut where an epoch's power reaches 0,
and every free epoch it drains turns idle at once.  Once the free
residuals are stationary, or after a full step, every idle epoch whose
multiplier is negative is released at once.
r >= 0 binds only where G_k is flat (s_k below about 1e-16).  On the
other epochs the optimum satisfies

    1/g + p_{m+1} = (1/g + p_m) * (X_m + 1),

with X_m the harvest sensitivity at arrival m.

A flat charge map ends a segment: the store is emptied into the epoch
before it, and what follows does not depend on anything before it.  So
each segment steps exactly as it would alone: it picks its own start
(the even spend over the time left in the segment), takes its own step
length with its own Armijo test, releases its own idle epochs once it
is stationary or after its own full step, and stops on its own, with
its own iteration count and last Newton decrement; its sums run left to
right, in the order a lone solve adds them.  A Monte Carlo point solves
its scenarios, which share N, as one horizon (:func:`_solve_batch`):
each member's epochs, then a flat map that empties the store, and the
next member's epochs from its own initial energy E0.  So each member
gets its lone solve's report, bit for bit.

The horizon picks how a step is computed.  A lone horizon of one
segment and fewer than ``ARRAY_MIN_PACKETS`` arrivals steps with
kernels that loop over Python floats.  Every other horizon, lone or
joined, steps with kernels that work on numpy arrays along the horizon,
all its segments at once, with the same arithmetic elementwise; a lone
long horizon is their one-segment case, with no code of its own.  Only
the idle runs stay loops there, and the O(N) sweep of a segment with
fewer than ``SCAN_MIN_ROWS`` free rows; a longer segment takes its
Newton step from log-depth scans of the sweep's own recurrences
(:func:`_scan_sweep`), laid out so that it steps the same joined or
alone.  A batch whose joined horizon would be shorter than
``ARRAY_MIN_PACKETS`` arrivals is not joined: each member is solved
alone.  Both kernel sets share one Newton loop, :func:`_newton_method`,
and one Thomas sweep, :func:`_sweep`, and each has one kernel per part
of a step: the start, which builds both starts and keeps the better,
the forward pass, which also projects and scores the point, the Newton
step, the convergence and release test, and the line search, which
bounds the step and tests its trial points.  The scalar start builds
and scores both starts in one walk, and the scalar forward pass moves
to each trial point itself.  The solve returns the point the loop
stopped at: its powers, and its residuals as the trace.  The set's last
kernel builds that report in its own containers: a short solve's stays
in Python floats, its bits summed by the same numpy ufuncs over the
floats' lists as :func:`_bits` runs over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .charge import ChargeCircuit, _charge_map, _harvest_value
from .exceptions import SolverError

__all__ = [
    "EnergyScenario",
    "TransmissionSchedule",
    "HarvestTrace",
    "SolveReport",
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
# A lone horizon of one segment steps with _ScalarSteps below this many
# arrivals; every other horizon, lone or joined, steps with _ArraySteps,
# all its segments at once, and a batch joined below it is solved member
# by member.  A lone solve is faster on the scalar kernels up to about
# 128 packets, but short members joined from 64 arrivals on solve faster
# than alone: oracle-check's 20 runs of N = 3 take 1.2 ms, not 2.0.
ARRAY_MIN_PACKETS = 64
# A segment with this many free rows or more takes its Newton step from
# the log-depth scans of _scan_sweep, a shorter one from _sweep's loop.
SCAN_MIN_ROWS = 1536


def _record(cls, **fields):
    """A frozen record of ``cls`` holding ``fields`` as given, built
    without ``__init__`` or ``__post_init__``.

    For the package's own producers alone (the draw, ``replay`` and
    :func:`_solve_batch`), whose every entry is already an exact Python
    float (or bool) in a tuple and meets the record's invariants, so the
    public constructor's conversion and checks would only copy them.
    """
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


@dataclass(frozen=True)
class EnergyScenario:
    """Energy arrival process and transmission deadline.

    ``packets`` is an ordered tuple of (arrival_time, charge_duration)
    pairs, both in seconds.  Epoch i is the interval between arrivals
    i-1 and i (with t_0 = 0 and t_{N+1} = deadline), so there are
    len(packets) + 1 epochs and every epoch must have positive length.

    The constructor checks its fields and stores every number as a Python
    float.  The scenario draw builds its scenarios with :func:`_record`
    instead: its floats are handed over once, and the draw's own tests
    keep every invariant checked here.

    The packets' charge maps are kept, per time constant tau, in a memo
    that is a plain attribute and not a dataclass field (so ``repr``,
    equality, hashing and ``dataclasses.replace`` see the three fields
    alone, and a replaced scenario starts an empty memo): the solver,
    ``replay``, the greedy policy and the oracle read them through
    :meth:`_maps`, and the scenario draw seeds them with the maps its
    inversion computed.
    """

    initial_energy: float                      # joules in the battery at t = 0
    packets: tuple                             # ((arrival, charge_duration), ...)
    deadline: float                            # seconds

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple((float(t), float(d)) for t, d in self.packets))
        object.__setattr__(self, "_charge_memo", {})
        if not 0 <= self.initial_energy < math.inf:
            raise ValueError(f"initial_energy must be finite and >= 0, "
                             f"got {self.initial_energy}")
        if not 0 < self.deadline < math.inf:
            raise ValueError(f"deadline must be finite and > 0, got {self.deadline}")
        object.__setattr__(self, "initial_energy", float(self.initial_energy))
        object.__setattr__(self, "deadline", float(self.deadline))
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

    def _maps(self, tau: float) -> list:
        """Each packet's charge map (q, s) under time constant ``tau``, as
        :func:`~rfharvest.charge._charge_map` gives it; computed on the
        first call for ``tau`` (unless the draw seeded it) and kept."""
        maps = self._charge_memo.get(tau)
        if maps is None:
            maps = self._charge_memo[tau] = [_charge_map(d, tau) for _, d in self.packets]
        return maps

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    @property
    def packet_lengths(self) -> np.ndarray:
        return np.array([d for _, d in self.packets], dtype=float)

    @property
    def epoch_bounds(self) -> np.ndarray:
        """Grid [0, t_1, ..., t_N, deadline] of epoch boundaries."""
        return np.concatenate(([0.0], [t for t, _ in self.packets], [self.deadline]))

    @property
    def epoch_lengths(self) -> np.ndarray:
        return np.diff(self.epoch_bounds)


@dataclass(frozen=True)
class TransmissionSchedule:
    """One transmission power per epoch, constant within the epoch.

    The constructor stores both sequences as tuples of Python floats.
    The scenario draw (each tight string) and :func:`_solve_batch` (each
    report's schedule) build theirs with :func:`_record` from floats they
    hand over once.
    """

    powers: tuple        # watts (normalized SNR units), one per epoch
    epoch_bounds: tuple  # seconds, length len(powers) + 1

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(map(float, self.powers)))
        object.__setattr__(self, "epoch_bounds", tuple(map(float, self.epoch_bounds)))
        if len(self.epoch_bounds) != len(self.powers) + 1:
            raise ValueError("epoch_bounds must have one more entry than powers")


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

    The constructor stores the entries as tuples of Python floats and
    bools.  ``replay`` and :func:`_solve_batch` build their traces with
    :func:`_record` from floats and bools they hand over once.
    """

    residuals: tuple
    harvested: tuple
    consumed: tuple
    clamped: tuple = ()

    def __post_init__(self):
        for name in ("residuals", "harvested", "consumed"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "clamped", tuple(map(bool, self.clamped)))

    @property
    def terminal_residual(self) -> float:
        return self.residuals[-1]


@dataclass(frozen=True)
class SolveReport:
    """Winning schedule plus solver bookkeeping."""

    schedule: TransmissionSchedule
    trace: HarvestTrace
    throughput: float                # bits (normalized when gain = 1)
    iterations: int                  # Newton steps taken
    newton_decrement: float          # last step's predicted rise of sum l ln(1 + g p)
    terminal_residual_error: float   # |residual at deadline|, joules


def _violations(residuals, harvested, e_max):
    """The solver's self-check: (causality, capacity) flags, one per epoch
    along the last axis of a trace's residuals and harvests.  A store below
    0, or above e_max right after a harvest, is flagged past 1e-9 * e_max."""
    slack = 1e-9 * e_max
    return residuals < -slack, residuals[..., :-1] + harvested > e_max + slack


def _bits(powers, lengths, gain):
    """Bits sum_i (l_i/2) log2(1 + g p_i) of each row of powers over its
    epoch lengths, summed along the last axis (rows of a C-contiguous array
    sum as a lone row) as log1p(g p) / ln 2, precise where g p << 1."""
    snr = gain * powers
    if not ((snr >= -POWER_SLACK) & (snr < math.inf)).all():
        raise ValueError("schedule powers must be finite and non-negative")
    return np.sum(0.5 * lengths * np.log1p(snr), axis=-1) / math.log(2.0)


def _sweep(rows):
    """The Newton step of the free residuals, in order, from one Thomas sweep.

    Over the free residuals -Hessian is tridiagonal: sum_e D_e q_e q_e^T
    plus -T''_i w_e on the diagonal, D_e = w_e^2/l_e, q_e the gradient of
    epoch e's spend (-1 at its own residual, T' at the one feeding its
    store).  Each row (own, t, bend_w, soft, stiff, g) is one free residual
    i: own = D_i; t = T' of the free residual before it where that feeds
    epoch i's store, else 0; bend_w = T''_i w_e; soft = grad_i / (2 r_i)
    where grad_i < 0, else 0; stiff = D_e T'_i^2 where e is not free,
    else 0; g = grad_i.  The sweep merges each epoch into the stiffness P
    before it like springs in series, D / (1 + D T'^2 / P), so no pivot
    cancels however stiff an epoch is (near idle at a large gain), and
    carries 1/P, so a curvature that overflows near r = 0 gives a step of
    0, not NaN.  The step is Newton's in u = sqrt(r): the u-curvature adds
    -grad_i / (2 r_i), kept where positive, so y = u / u* goes to 2y - y^2
    from below on F = c sqrt(r) - b r (an r step triples r).  A row with
    t = 0, as the first after a flat map, starts a new chain from zero
    carries, and the back substitution does not multiply through its zero
    link: a NaN or inf in one chain stays in that chain.  A zero pivot
    (every term is >= 0, so it is 0.0) gives a compliance of inf, as
    numpy's float division does; w^2 / l underflows to 0 on epochs of
    1e-300 s.  A segment of the array kernels with ``SCAN_MIN_ROWS`` free
    rows or more takes these recurrences as scans instead, in
    :func:`_scan_sweep`.
    """
    shift, pull, merged = [], [], []
    compliance = force = 0.0
    for own, t, bend_w, soft, stiff, g in rows:
        if t:
            link = own * t * compliance
            near = 1.0 + link * t
            carried = force * own * t / near
        else:
            link, near, carried = 0.0, 1.0, 0.0
        try:
            compliance = 1.0 / (own / near - bend_w - soft + stiff)
        except ZeroDivisionError:       # a pivot of 0.0, as numpy divides it
            compliance = math.inf
        force = (g + carried) * compliance
        pull.append(link)
        merged.append(near)
        shift.append(force)
    pull.append(0.0)
    merged.append(1.0)
    following, out = 0.0, []
    for force, link, near in zip(shift[::-1], pull[:0:-1], merged[:0:-1]):
        following = (force + link * following) / near if link else force
        out.append(following)
    out.reverse()
    return out


# (own, t, bend_w, soft, stiff, g) of a pad row: its map leaves nothing
# before it in play, and its step is 0.
_NEUTRAL_ROW = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _scan_sweep(columns, starts, counts):
    """:func:`_sweep`'s steps of the free rows of whole segments, from
    log-depth scans over numpy arrays (Blelloch 1990), with no Python
    float walk.

    ``columns`` holds :func:`_sweep`'s six columns as numpy arrays, one
    entry per free residual, and segment k's entries are
    ``starts[k]:starts[k] + counts[k]``; the steps come back in the same
    order.  Each segment is laid out in its own line of a 2-D array from
    column 0, padded at its tail with ``_NEUTRAL_ROW``, and reversed from
    column 0 for the back substitution.  A scan's value at a column
    depends on that column and the ones before it alone, so a segment's
    steps are the same bit for bit whatever else is laid out with it.

    With b = own t^2 and K = stiff - bend_w - soft (both >= 0), the
    compliance c_j = (1 + b c_{j-1}) / ((own + K) + K b c_{j-1}) is the
    Möbius map of [[b, 1], [K b, own + K]] on (c, 1), composed as
    renormalised products of non-negative matrices.  The compliance
    before each row gives its link and merge as in :func:`_sweep`, and
    with them its own compliance 1 / (own / merge + K); the force and the
    back substitution are affine scans.  A row whose map leaves nothing
    before it in play (t = 0; an infinite curvature, whose compliance is
    0; a zero link back) starts a new chain, as in :func:`_sweep`.
    """
    size, width = len(starts), int(counts.max())
    spans = list(zip(starts.tolist(), counts.tolist()))

    def lines(column, pad):
        out = np.full((size, width), pad)
        for k, (start, count) in enumerate(spans):
            out[k, :count] = column[start:start + count]
        return out

    own, t, bend_w, soft, stiff, g = map(lines, columns, _NEUTRAL_ROW)
    valid = np.arange(width) < counts[:, None]
    coupling = own * t
    curvature = stiff - bend_w
    curvature -= soft                           # K
    maps = np.empty((2, 2, size, width))
    (b, one), (kb, pivot) = maps
    np.multiply(coupling, t, out=b)
    one[...] = 1.0
    np.multiply(curvature, b, out=kb)
    np.add(own, curvature, out=pivot)
    stuck = pivot == math.inf                   # compliance 0 whatever came before
    maps[:, :, stuck] = np.array([[0.0, 0.0], [0.0, 1.0]])[:, :, None]
    fresh = t == 0.0
    states = _scan(_mobius, _mobius_apply, maps, _MOBIUS_START,
                   _interior(fresh | stuck, valid))
    # each row's link and merge from the compliance before it; a row with
    # t = 0, a segment's first or a pad, has link 0 and merge 1
    link = states[0, :, :-1] / states[1, :, :-1]
    link *= coupling
    np.copyto(link, 0.0, where=fresh)
    near = link * t
    near += 1.0
    compliance = own / near
    compliance += curvature
    np.divide(1.0, compliance, out=compliance)
    # force_j = compliance_j (g_j + own_j t_j / near_j force_{j-1}), with
    # nothing carried into a row with t = 0
    maps = np.empty((2, size, width))
    np.divide(coupling, near, out=maps[0])
    maps[0] *= compliance
    np.copyto(maps[0], 0.0, where=fresh)
    np.multiply(g, compliance, out=maps[1])
    force = _scan(_affine, _affine_apply, maps, 0.0, _interior(fresh, valid))[:, 1:]
    # following_j = force_j / near_{j+1} + link_{j+1} / near_{j+1}
    # following_{j+1}, from each segment's last row back, where the pad
    # after it has link 0 and merge 1
    ahead = np.empty((2, size, width))
    np.divide(link[:, 1:], near[:, 1:], out=ahead[0, :, :-1])
    np.divide(force[:, :-1], near[:, 1:], out=ahead[1, :, :-1])
    ahead[0, :, -1], ahead[1, :, -1] = 0.0, force[:, -1]
    maps = np.empty((2, size, width))
    for k, (_, count) in enumerate(spans):
        maps[:, k, :count] = ahead[:, k, count - 1::-1]
        maps[:, k, count:] = 0.0
    fresh = maps[0] == 0.0
    following = _scan(_affine, _affine_apply, maps, 0.0, _interior(fresh, valid))[:, 1:]
    return np.concatenate([following[k, count - 1::-1] for k, (_, count) in enumerate(spans)])


# The start of a compliance chain, c = 0, as the vector (c, 1).
_MOBIUS_START = np.array([0.0, 1.0])[:, None, None]


def _interior(fresh, valid):
    """``fresh`` where a segment's chain restarts past its first row, else
    None: a scan applies each line's first map to the start anyway."""
    return fresh if (fresh[:, 1:] & valid[:, 1:]).any() else None


def _scan(compose, apply, maps, start, fresh):
    """The states x_j = maps_j(x_{j-1}) along the last axis, x_{-1} =
    ``start``, by the odd-even recursion: compose adjacent pairs of maps,
    scan the pairs, and apply each even map to the state before it.  Work
    O(n), depth O(log n).  Returns x_{-1}, x_0, ..., x_{n-1}.

    A map where ``fresh`` holds is applied to ``start`` instead of the
    state before it, so nothing before it carries past it; None means at
    no map after the first.
    """
    n = maps.shape[-1]
    states = np.empty(maps.shape[1:-1] + (n + 1,))
    states[..., :1] = start
    if n > 1:
        half = n // 2
        later, earlier = maps[..., 1::2], maps[..., :2 * half:2]
        pairs = compose(later, earlier)
        inner = None
        if fresh is not None:
            np.copyto(pairs, later, where=fresh[..., 1::2])
            inner = fresh[..., 1::2] | fresh[..., :2 * half:2]
        states[..., 2::2] = _scan(compose, apply, pairs, start, inner)[..., 1:]
    before = states[..., :n:2]
    if fresh is not None:
        before = np.where(fresh[..., ::2], start, before)
    states[..., 1::2] = apply(maps[..., ::2], before)
    return states


def _mobius(later, earlier):
    """later o earlier of Möbius maps, 2 x 2 matrices on the first two
    axes, scaled so the product's entries sum to 1."""
    out = later[:, :1] * earlier[:1]
    out += later[:, 1:] * earlier[1:]
    out /= out.sum(axis=(0, 1))
    return out


def _mobius_apply(maps, states):
    """Möbius maps applied to states (c, 1) stacked on the first axis,
    scaled so each result's two entries sum to 1."""
    out = maps[:, 0] * states[0]
    out += maps[:, 1] * states[1]
    out /= out[0] + out[1]
    return out


def _affine(later, earlier):
    """later o earlier of affine maps x -> A x + B stacked as (A, B)."""
    out = later[0] * earlier
    out[1] += later[1]
    return out


def _affine_apply(maps, states):
    """Affine maps (A, B) applied to states x."""
    out = maps[0] * states
    out += maps[1]
    return out


class _ScalarSteps:
    """Step kernels that walk a lone horizon of one segment and fewer
    than ``ARRAY_MIN_PACKETS`` arrivals one arrival at a time in Python
    floats: on a short horizon a loop costs less than numpy's calls.  No
    arrival here is empty; every other horizon steps with
    :class:`_ArraySteps`.

    Every kernel takes and returns the point in the containers it built:
    lists here, numpy arrays in :class:`_ArraySteps`.  What a kernel gives
    per segment (a value, a decrement, whether the segment is done or
    failed) comes in a list or array with one entry per segment, here a
    list of one.
    """

    def __init__(self, initial_energy, lengths, curves, gain):
        self.initial_energy, self.lengths, self.curves, self.gain = (
            initial_energy, lengths, curves, gain)
        # (c, s^2) of each arrival: G'(r) = c / sqrt(r) + s^2
        self.slopes = [(a * s, s * s) for a, s in curves]

    def start(self, status):
        """The point of the better start, half on a tie, both built and
        scored in one walk: half the store kept at every arrival, or the
        store spent evenly over the time left.  Each start's walk keeps its
        own store from its own residuals; each start's point projects those
        residuals as :meth:`forward` does, from the store its point holds,
        and the two stores part only where a residual is projected.  Every
        arrival is free in ``status``."""
        lengths, curves, gain, log1p, sqrt = (self.lengths, self.curves, self.gain, math.log1p,
                                              math.sqrt)
        n = len(status)
        half, even = [0.0] * n, [0.0] * n
        half_powers, even_powers = [0.0] * (n + 1), [0.0] * (n + 1)
        half_status, even_status = list(status), list(status)
        # each start's store as its walk keeps it, and as its point holds it
        kept = spread = held = stock = self.initial_energy
        half_value = even_value = 0.0
        left = [*accumulate(reversed(lengths))][::-1]     # the time left from each epoch on
        for i in range(n):
            a, s = curves[i]
            l = lengths[i]
            r = 0.5 * kept
            root = a + s * sqrt(r)
            kept = root * root
            if not 0.0 < r < held:
                half_status[i] = IDLE
                r = held
                root = a + s * sqrt(r)
            half_powers[i] = p = (held - r) / l
            half_value += l * log1p(gain * p)
            held = root * root
            half[i] = r
            r = (1.0 - l / left[i]) * spread
            root = a + s * sqrt(r)
            spread = root * root
            if not 0.0 < r < stock:
                even_status[i] = IDLE
                r = stock
                root = a + s * sqrt(r)
            even_powers[i] = p = (stock - r) / l
            even_value += l * log1p(gain * p)
            stock = root * root
            even[i] = r
        l = lengths[n]
        half_powers[n] = p = held / l
        half_value += l * log1p(gain * p)
        even_powers[n] = p = stock / l
        even_value += l * log1p(gain * p)
        if even_value > half_value:
            return even, even_powers, even_status, [even_value]
        return half, half_powers, half_status, [half_value]

    def forward(self, residuals, status, step, t):
        """(residuals, powers, status, value) of the point a step t along
        ``step`` reaches from ``residuals``, its value sum_i l_i ln(1 + g p_i)
        (the throughput in bits times 2 ln 2) added up from the first epoch
        on.  The step moves u = sqrt(r) by t d / (2u): a residual r with a
        step d goes to r + t d + (t d)^2 / (4r), the square a product, as
        numpy's (``x ** 2`` goes through ``pow``, which may round it
        differently); one with no step stays as it is.

        An idle arrival takes the store before it.  A free residual at or
        above the store before it would leave its epoch no power, so it
        turns idle (in a new status list); so does one at 0, where the
        Newton step is undefined.
        """
        lengths, curves, gain, log1p, sqrt = (self.lengths, self.curves, self.gain, math.log1p,
                                              math.sqrt)
        n = len(status)
        out, powers, projected = [0.0] * n, [0.0] * (n + 1), list(status)
        stored, value = self.initial_energy, 0.0
        for i in range(n):
            r, d = residuals[i], step[i]
            if d:
                d *= t
                r = r + d + 0.25 * (d * d) / r
            if status[i] == IDLE:
                r = stored
            elif not 0.0 < r < stored:
                projected[i] = IDLE
                r = stored
            l = lengths[i]
            powers[i] = p = (stored - r) / l
            value += l * log1p(gain * p)
            a, s = curves[i]
            root = a + s * sqrt(r)
            stored = root * root
            out[i] = r
        l = lengths[n]
        powers[n] = p = stored / l
        value += l * log1p(gain * p)
        return out, powers, projected, [value]

    def newton(self, residuals, powers, status, live):
        """Gradient and Newton step of F = sum_e l_e ln(1 + g p_e) in r, of
        the ``live`` segments (here the one, while the solve runs).

        With w_e = 1 / (1/g + p_e): a free or idle arrival i feeds the store
        of the next non-idle epoch e = nxt[i], through G_i and the idle
        arrivals after it, as T_i(r_i); dF/dr_i = T'_i w_e - w_i, at an idle
        arrival the multiplier of its p >= 0.  Returns (w, grad, step, free,
        nxt, decrement): ``step`` is 0 off the ``free`` arrivals, decrement
        the step's predicted rise grad . step, summed from the first free
        arrival on.
        """
        lengths, slopes, gain, sqrt = self.lengths, self.slopes, self.gain, math.sqrt
        n = len(status)
        w, nxt, grad = [0.0] * (n + 1), [0] * n, [0.0] * n
        w[n] = we = gain / (1.0 + gain * powers[n])
        # One backward pass.  T', T'' and e chain back through each idle run
        # from the arrival after it, and each free arrival adds its row of
        # _sweep.  No arrival is empty, so e is the next free arrival or the
        # last epoch, and a row's t is the T' of the free arrival before it.
        rows, free = [], []
        g1 = g2 = 0.0
        e, chained = n, False           # arrival i + 1's e, and whether it is idle
        for i in range(n - 1, -1, -1):
            r, (c, ss) = residuals[i], slopes[i]
            if c == 0.0:
                h1, h2 = ss, 0.0
            elif r == 0.0:
                # only where no free residual feeds the store (it stays 0)
                h1, h2 = math.inf, -math.inf
            else:
                h1 = c / sqrt(r)
                h2 = -0.5 * h1 / r
                h1 += ss
            if chained:
                g1, g2 = g1 * h1, g2 * h1 * h1 + g1 * h2
            else:
                g1, g2, e = h1, h2, i + 1
                we = w[e]
            nxt[i] = e
            w[i] = wi = gain / (1.0 + gain * powers[i])
            grad[i] = g = g1 * we - wi
            chained = status[i] == IDLE
            if not chained:
                if rows:
                    rows[-1][1] = g1
                rows.append([wi * wi / lengths[i], 0.0, g2 * we, 0.5 * g / r if g < 0.0 else 0.0,
                             g1 * g1 * we * we / lengths[e] if e == n else 0.0, g])
                free.append(i)
        rows.reverse()
        free.reverse()
        step, decrement = [0.0] * n, 0.0
        for i, d in zip(free, _sweep(rows)):
            step[i] = d
            decrement += grad[i] * d
        return w, grad, step, free, nxt, [decrement]

    def settle(self, residuals, powers, status, w, grad, step, free, nxt, taken, live):
        """(done, released): the segments that are optimal, here [0] where the
        free residuals have converged (``STATIONARITY_TOL``) with nothing to
        release, and, once they have converged or after a full step (the
        last step ``taken`` was t = 1), the idle arrivals whose relative
        multiplier is below -RELEASE_TOL."""
        lengths, n = self.lengths, len(residuals)
        converged = True
        for i in free:
            r = residuals[i]
            if r + step[i] == r:
                continue
            # the relative rounding of epoch e's w is 1 + (store at its
            # start) w / l, taken for epoch i and the epoch after its arrival
            e, l, wi = nxt[i], lengths[i], w[i]
            rounding = 1.0 + (r + powers[i] * l) * wi / l
            l = lengths[e]
            stored = (residuals[e] if e < n else 0.0) + powers[e] * l
            rounding_next = 1.0 + stored * w[e] / l
            if not abs(grad[i]) <= STATIONARITY_TOL * wi * (rounding + rounding_next):
                converged = False
                break
        if not (converged or taken[0] == 1.0):
            return [], []
        released = []
        if IDLE in status:
            released = [i for i, state in enumerate(status)
                        if state == IDLE and grad[i] / w[i] < -RELEASE_TOL]
        return [0] if converged and not released else [], released

    def line_search(self, point, free, step, decrement, live):
        """Damped projected Newton step: (point, taken, failed).

        From the longest step, at most 1, that keeps every free residual
        above ``BOUNDARY_FRACTION`` of itself, t is halved until the point
        that :meth:`forward` moves to and projects passes :func:`_armijo`;
        the projection turns idle every free epoch the step drains, however
        many in one step.  ``taken`` holds the step t the segment took;
        below ``MIN_STEP`` it takes none, keeps ``point`` and is ``failed``.
        """
        residuals, _, status, (value,) = point
        decrement = decrement[0]
        reach = 2.0 * (1.0 - math.sqrt(BOUNDARY_FRACTION))    # u to sqrt(fraction) u
        t = 1.0
        for r, d in zip(residuals, step):       # d is 0 off the free arrivals
            if d < 0.0:
                bound = reach * r / -d
                if bound < t:
                    t = bound
        while t >= MIN_STEP:
            trial = self.forward(residuals, status, step, t)
            if _armijo(trial[3][0], value, t, decrement):
                return trial, [t], []
            t *= 0.5
        return point, [0.0], [0]

    def report(self, residuals, powers, maps, initial_energies, e_max, converged):
        """The lone member's row (powers, residuals, harvested, consumed,
        bits), as :func:`_solve_batch` reports it, with bits None where
        :func:`_violations` flags the trace, in a list of one; [None] where
        it did not converge.  One loop takes the harvests
        (:func:`_harvest_value`'s operations in ``math``), the spends,
        :func:`_violations`' tests and :func:`_bits`' range test in floats.
        The bits are :func:`_bits`' sum, from the same numpy ufuncs over
        the loop's lists.
        """
        if not converged[0]:
            return [None]
        root_e_max, slack, gain, sqrt = math.sqrt(e_max), 1e-9 * e_max, self.gain, math.sqrt
        top = e_max + slack
        harvested, consumed, snrs, halves = [], [], [], []
        feasible = in_range = True
        held = self.initial_energy          # the store the last epoch starts from
        for r, (q, s), p, l in zip(residuals, maps[0], powers, self.lengths):
            u = sqrt(r)
            captured = q * (root_e_max - u) * (root_e_max * q + (1.0 + s) * u)
            full = q * (e_max - r)
            h = captured if captured < full else full      # np.minimum's pick
            held = r + h
            if r < -slack or held > top:
                feasible = False
            snr = gain * p
            if not -POWER_SLACK <= snr < math.inf:
                in_range = False
            harvested.append(h)
            consumed.append(p * l)
            snrs.append(snr)
            halves.append(0.5 * l)
        p, l = powers[-1], self.lengths[-1]
        spent = p * l
        kept = [*residuals, held - spent]
        if kept[-1] < -slack:
            feasible = False
        snr = gain * p
        if not -POWER_SLACK <= snr < math.inf:
            in_range = False
        consumed.append(spent)
        snrs.append(snr)
        halves.append(0.5 * l)
        bits = None
        if feasible:
            if not in_range:
                raise ValueError("schedule powers must be finite and non-negative")
            bits = float(np.add.reduce(np.multiply(halves, np.log1p(snrs)))) / math.log(2.0)
        return [(powers, kept, harvested, consumed, bits)]


class _ArraySteps:
    """The kernels of :class:`_ScalarSteps` over whole numpy arrays along
    the horizon, with the same arithmetic elementwise.  The idle runs stay
    sequential: the store passes through them in root energy as u_{k+1} =
    a_k + s_k u_k, walked in Python over the idle arrivals only.  So does
    the Thomas sweep of a segment with fewer than ``SCAN_MIN_ROWS`` free
    rows, the loop of :func:`_sweep` over its coefficients as floats; a
    longer segment takes the sweep from :func:`_scan_sweep`'s log-depth
    scans.

    These kernels alone know segments: ``firsts`` holds each segment's
    first epoch, and a kernel that tests, bounds or sums does so segment
    by segment, in one pass over the horizon with each epoch's segment an
    index.  Each segment's sums run left to right, as the scalar kernels
    add them.  A segment that is no longer ``live`` drops out of the
    Newton step.  ``opening`` gives the store at the start of some
    epochs: the first, and in a joined batch each member's first, which
    starts from its own initial energy.  A horizon of one segment runs the
    same code as a joined batch.

    :func:`_newton_method` runs every kernel under
    ``np.errstate(all="ignore")``: the scalar kernels' floats overflow to
    inf and turn inf - inf into NaN without a warning, and so do these.
    """

    def __init__(self, opening, lengths, curves, gain, firsts):
        self.opening, self.curves, self.gain, self.firsts = opening, curves, gain, firsts
        self.opens, self.stores = np.array(list(opening)), np.array(list(opening.values()))
        self.lengths = np.array(lengths)
        self.a, self.s = np.array(curves, dtype=float).reshape(-1, 2).T
        self.c, self.ss = self.a * self.s, self.s * self.s
        self.flat = (self.c == 0.0).nonzero()[0]
        self.empty = np.array(firsts[1:], dtype=np.intp) - 1     # each ends a segment
        n = len(curves)
        # each epoch's segment, which is also the segment of the arrival
        # that ends the epoch
        self.segment = np.searchsorted(firsts, np.arange(n + 1), side="right") - 1

    def _mask(self, segments):
        """A mask over the segments, true at the given ones."""
        if len(segments) == len(self.firsts):
            return np.ones(len(self.firsts), bool)
        mask = np.zeros(len(self.firsts), bool)
        mask[segments] = True
        return mask

    def _sums(self, terms):
        """Each segment's sum of ``terms``, one per epoch: added left to
        right from 0.0, as the scalar kernels add, since ``np.bincount``
        adds each bin's weights in index order where ``np.sum`` adds in
        pairs."""
        return np.bincount(self.segment, weights=terms, minlength=len(self.firsts))

    def forward(self, residuals, status):
        n, curves = len(self.curves), self.curves
        status = np.array(status, dtype=np.int8)
        out = np.array(residuals, dtype=float)
        out[self.empty] = 0.0
        stored = np.empty(n + 1)     # the store before each epoch
        root = self.a + self.s * np.sqrt(out)
        stored[1:] = root * root
        stored[self.opens] = self.stores
        # Where the arrival before is not idle, its store and idle test (as
        # _ScalarSteps.forward's) are right as computed.  Each idle run is
        # walked from its first arrival to the first one after it that is
        # not idle.
        idle = (status == IDLE) | (status == FREE) & ~((0.0 < out) & (out < stored[:n]))
        end = 0
        for i in idle.nonzero()[0].tolist():
            if i < end:
                continue
            store = float(stored[i])
            while i < n and (status[i] == IDLE
                             or status[i] == FREE and not 0.0 < out[i] < store):
                status[i], out[i] = IDLE, store
                a, s = curves[i]
                root = a + s * math.sqrt(store)
                store = root * root
                i += 1
                stored[i] = store
            end = i
        stored[:n] -= out                       # the last epoch drains the store
        powers = stored / self.lengths
        return out, powers, status, self._sums(self.lengths * np.log1p(self.gain * powers))

    def newton(self, residuals, powers, status, live):
        n, lengths = len(self.curves), self.lengths
        w = self.gain / (1.0 + self.gain * powers)
        slope = self.c / np.sqrt(residuals)     # inf at r = 0, as in the scalar kernel
        bend = -0.5 * slope / residuals
        slope[self.flat], bend[self.flat] = 0.0, 0.0
        slope += self.ss
        nxt = np.arange(1, n + 1)
        # an idle arrival passes its store on: chain back through each idle run
        for i in (status[1:] == IDLE).nonzero()[0][::-1].tolist():
            bend[i] = bend[i + 1] * slope[i] * slope[i] + slope[i + 1] * bend[i]
            slope[i] = slope[i + 1] * slope[i]
            nxt[i] = nxt[i + 1]
        grad = slope * w[nxt] - w[:n]

        free = status == FREE
        if len(live) < len(self.firsts):
            free &= self._mask(live)[self.segment[:n]]
        free = free.nonzero()[0]
        step = np.zeros(n)
        rise = np.zeros(n + 1)
        if free.size:
            e, r, g = nxt[free], residuals[free], grad[free]
            own, ahead, pull = w[free], w[e], slope[free]
            t = np.zeros(free.size)
            linked = e[:-1] == free[1:]
            t[1:][linked] = pull[:-1][linked]
            tail = np.concatenate((status != FREE, [True]))[e]
            columns = (own * own / lengths[free], t, bend[free] * ahead,
                       np.where(g < 0.0, 0.5 * g / r, 0.0),
                       np.where(tail, pull * pull * ahead * ahead / lengths[e], 0.0), g)
            d = self._step(columns, free)
            step[free] = d
            rise[free] = g * d
        return w, grad, step, free, nxt, self._sums(rise)

    def _step(self, columns, free):
        """The Newton step of the ``free`` residuals from :func:`_sweep`'s
        ``columns``: each segment with ``SCAN_MIN_ROWS`` free rows or more
        from :func:`_scan_sweep`, the others from :func:`_sweep`, which
        takes them in one walk, since each segment's first row has t = 0."""
        if free.size >= SCAN_MIN_ROWS:
            # free is sorted, so a segment's free rows are one run of it
            segment = self.segment[free]
            starts = np.flatnonzero(np.diff(segment, prepend=-1))
            counts = np.diff(starts, append=free.size)
            long = counts >= SCAN_MIN_ROWS
            if long.all():
                return _scan_sweep(columns, starts, counts)
            if long.any():
                d = np.empty(free.size)
                scanned = np.repeat(long, counts)
                looped = ~scanned
                d[scanned] = _scan_sweep(columns, starts[long], counts[long])
                d[looped] = _sweep(zip(*(column[looped].tolist() for column in columns)))
                return d
        return np.array(_sweep(zip(*(column.tolist() for column in columns))))

    def settle(self, residuals, powers, status, w, grad, step, free, nxt, taken, live):
        """Segment by segment: each live one releases once its own free
        residuals have converged or after its own full step, and is done
        once they have converged with none to release."""
        lengths, n = self.lengths, len(self.curves)
        stored = powers * lengths
        stored[:-1] += residuals
        rounding = 1.0 + stored * w / lengths
        r = residuals[free]
        tolerance = STATIONARITY_TOL * w[free] * (rounding[free] + rounding[nxt[free]])
        converged = (np.abs(grad[free]) <= tolerance) | (r + step[free] == r)
        live = self._mask(live)
        settled = live.copy()
        settled[self.segment[free[~converged]]] = False
        idle, released = status == IDLE, []
        if np.count_nonzero(idle):
            loose = settled | np.equal(taken, 1.0) & live
            released = (idle & (grad / w[:-1] < -RELEASE_TOL)
                        & loose[self.segment[:n]]).nonzero()[0].tolist()
            settled[self.segment[released]] = False
        return settled.nonzero()[0].tolist(), released

    def _merge(self, point, other, taken):
        """``point`` with the part of each segment ``taken`` (a mask) from
        ``other``."""
        count = np.count_nonzero(taken)     # cheaper than all() and any()
        if count == len(taken):
            return other
        if not count:
            return point
        epochs = taken[self.segment]
        arrivals = epochs[:-1]
        return (np.where(arrivals, other[0], point[0]), np.where(epochs, other[1], point[1]),
                np.where(arrivals, other[2], point[2]), np.where(taken, other[3], point[3]))

    def start(self, status):
        """Each segment's better start, half on a tie: both starts from one
        walk in Python floats, then each start's point from ``forward``.  A
        flat map leaves both starts' walks the same store, and a member's
        first segment starts from the member's own."""
        half, even, sqrt = [], [], math.sqrt
        lengths, opening = self.lengths.tolist(), self.opening
        for lo, hi in zip(self.firsts, [*self.firsts[1:], len(lengths)]):
            if lo in opening:
                kept = spread = opening[lo]     # each start's store
            left = list(accumulate(reversed(lengths[lo:hi])))[::-1]
            for (a, s), l, rest in zip(self.curves[lo:hi], lengths[lo:hi], left):
                r = 0.5 * kept
                root = a + s * sqrt(r)
                kept = root * root
                half.append(r)
                r = (1.0 - l / rest) * spread
                root = a + s * sqrt(r)
                spread = root * root
                even.append(r)
        point, other = self.forward(half, status), self.forward(even, status)
        return self._merge(point, other, other[3] > point[3])

    def line_search(self, point, free, step, decrement, live):
        """Each live segment's own line search, as the scalar kernels' and
        in the same floats, all segments in one pass per halving: each
        segment starts from its own bound, 1 where it has no free residual.
        A segment that is not live neither steps nor fails, though it may
        still have free rows: one found optimal in this iteration keeps
        the rows of the Newton step it settled on."""
        residuals, _, status, value = point
        t = np.ones(len(self.firsts))
        segment, r, d = self.segment[free], residuals[free], step[free]
        if free.size:
            # free is sorted, so a segment's free arrivals are one run of it
            opens = np.empty(free.size, bool)
            opens[0] = True
            np.not_equal(segment[1:], segment[:-1], out=opens[1:])
            starts = opens.nonzero()[0]
            reach = 2.0 * (1.0 - math.sqrt(BOUNDARY_FRACTION))
            t[segment[starts]] = np.minimum(np.minimum.reduceat(
                np.where(d < 0.0, reach * r / -d, 1.0), starts), 1.0)
        live = self._mask(live)
        trying = live & (t >= MIN_STEP)
        while np.count_nonzero(trying):
            trial = residuals.copy()
            moved = t[segment] * d
            trial[free] = r + moved + 0.25 * (moved * moved) / r
            trial = self.forward(trial, status)
            rose = trying & _armijo(trial[3], value, t, decrement)
            point = self._merge(point, trial, rose)
            trying ^= rose
            t[trying] *= 0.5
            trying &= t >= MIN_STEP
        return point, t, (live & (t < MIN_STEP)).nonzero()[0].tolist()

    def report(self, residuals, powers, maps, initial_energies, e_max, converged):
        """Each member's row, from B x (N + 1) arrays of the joined horizon:
        a member's last column holds its residual at the deadline.  The row
        of a member that did not converge is never read; its bits are None
        and nothing of it warns."""
        size, n = len(maps), len(maps[0])
        residuals = np.concatenate((residuals, (0.0,))).reshape(size, n + 1)
        powers = powers.reshape(size, n + 1)
        lengths = self.lengths.reshape(size, n + 1)
        with np.errstate(all="ignore"):
            harvested = _harvest_value(np.array(maps).reshape(size, n, 2).transpose(2, 0, 1),
                                       e_max, math.sqrt(e_max), residuals[:, :-1])
            consumed = powers * lengths
            held = residuals[:, -2] + harvested[:, -1] if n else np.array(initial_energies)
            residuals[:, -1] = held - consumed[:, -1]
            causality, capacity = _violations(residuals, harvested, e_max)
        feasible = np.array(converged) & ~(causality.any(axis=1) | capacity.any(axis=1))
        bits = _bits(np.where(feasible[:, None], powers, 0.0), lengths, self.gain)
        return [(*row, total if ok else None) for *row, total, ok in zip(
            powers.tolist(), residuals.tolist(), harvested.tolist(), consumed.tolist(),
            bits.tolist(), feasible.tolist())]


def _armijo(trial_value, value, t, decrement):
    """Whether a step t rose the objective from ``value`` to ``trial_value``
    by an Armijo fraction of its predicted rise ``t * decrement``, up to
    the objective's own rounding; elementwise on arrays."""
    return trial_value >= value + ARMIJO * t * decrement - OBJECTIVE_ROUNDING * value


def _newton_method(opening, lengths, curves, gain, e_max_root):
    """The Newton method of :func:`solve` on any horizon, lone or joined:
    damped projected Newton steps of every segment, each as it would
    step alone, with every kernel run under ``np.errstate(all="ignore")``
    (see :class:`_ArraySteps`).

    ``opening`` maps epochs to the store at their start: epoch 0 to the
    initial energy, and in a joined batch each member's first epoch to its
    own.  A lone horizon of one segment and fewer than
    ``ARRAY_MIN_PACKETS`` arrivals steps with :class:`_ScalarSteps`; every
    other one steps with :class:`_ArraySteps`, all its segments in one
    run, a flat map's segment from the store the map leaves, (a + 0)^2.

    Each segment starts from the better of its two starts, which the
    kernels' ``start`` builds and scores.  Each iteration asks the
    kernels' ``settle`` which live segments are optimal (stationary with
    nothing to release) and which idle epochs to release: those with a
    negative multiplier in a stationary segment, or in one whose last
    line search took its full step (t = 1).  A release
    takes the step again from the new active set in the same iteration.
    A segment stops once it is optimal, its line search finds no step, or
    after ``MAX_ITERATIONS``; it then drops out of the steps, and the
    others go on.  Returns (kernels, residuals, powers, ends): the
    kernels, for their ``report``, the point as they built it, lists or
    arrays, and per segment, by its first epoch, (iterations, last Newton
    decrement, whether it converged).
    """
    # Where G is flat in floating point, whatever is left at the arrival
    # is lost to the full charge: the residual there is 0, and the
    # arrival ends a segment.
    status = [EMPTY if a + s * e_max_root == a else FREE for a, s in curves]
    # each segment's first epoch
    firsts = [0, *[i + 1 for i, state in enumerate(status) if state == EMPTY]]
    if len(curves) < ARRAY_MIN_PACKETS and len(firsts) == 1:
        steps = _ScalarSteps(opening[0], lengths, curves, gain)
    else:
        steps = _ArraySteps(opening, lengths, curves, gain, firsts)
    with np.errstate(all="ignore"):
        point = steps.start(status)

        live = list(range(len(firsts)))     # the segments that still step
        taken = [0.0] * len(firsts)         # the step t each took last
        ends = dict.fromkeys(firsts)
        for iteration in range(1, MAX_ITERATIONS + 1):
            residuals, powers, status, _ = point
            w, grad, step, free, nxt, decrement = steps.newton(residuals, powers, status, live)
            done, released = steps.settle(residuals, powers, status, w, grad, step, free, nxt,
                                          taken, live)
            if done:
                for k in done:
                    ends[firsts[k]] = (iteration, float(decrement[k]), True)
                live = [k for k in live if ends[firsts[k]] is None]
                if not live:
                    break
            if released:
                for i in released:
                    status[i] = FREE
                w, grad, step, free, nxt, decrement = steps.newton(residuals, powers, status,
                                                                   live)
            point, taken, failed = steps.line_search(point, free, step, decrement, live)
            if failed:
                for k in failed:
                    ends[firsts[k]] = (iteration, float(decrement[k]), False)
                live = [k for k in live if ends[firsts[k]] is None]
                if not live:
                    break
            # Drop this step's vectors before the next one builds its own.
            del w, grad, step, free, nxt
        else:
            for k in live:
                ends[firsts[k]] = (MAX_ITERATIONS, float(decrement[k]), False)
    return steps, point[0], point[1], ends


def solve(scenario: EnergyScenario, circuit: ChargeCircuit,
          gain: float = 1.0) -> SolveReport:
    """Compute the throughput-maximizing schedule.

    ``gain`` is the link's SNR per watt (1 for normalized units); the
    schedule and trace are in watts and joules and the throughput in
    bits either way.

    Damped projected Newton steps over the arrival residuals (module
    docstring), run as a batch of one (:func:`_solve_batch`), each segment
    of the horizon on its own: every free epoch whose power a step would
    take below 0 turns idle.  Once the free residuals are stationary, or
    after a full step, every idle epoch whose multiplier is below
    ``-RELEASE_TOL`` is released; stationary with none left, the point is
    optimal.  The iterations are the slowest segment's, and the Newton
    decrement is the segments' last ones summed in order.  The schedule
    holds that point's powers, and the trace its residuals, each packet's
    harvest at them and p l; the residual at the deadline is the trace's
    own balance, what the last epoch leaves of the store after the last
    harvest.  The trace passes the solver's self-check,
    :func:`_violations`.

    Raises:
        ValueError: unless 0 < gain < inf, or if the initial energy
            exceeds the battery capacity e_max.
        SolverError: after ``MAX_ITERATIONS`` steps or a step cut below
            ``MIN_STEP`` without convergence, or when the trace fails the
            check; its diagnostics hold ``iterations`` and the last
            ``newton_decrement``.
    """
    report, = _solve_batch([scenario], circuit, gain)
    if isinstance(report, SolverError):
        raise report
    return report


def _solve_batch(scenarios, circuit: ChargeCircuit, gain: float = 1.0) -> list:
    """:func:`solve` on scenarios with the same number of packets, in one
    run of :func:`_newton_method` over one horizon: each member's N + 1
    epochs, then a flat charge map that empties the store, and the next
    member's epochs from its own initial energy (module docstring).  A
    batch whose joined horizon would be shorter than ``ARRAY_MIN_PACKETS``
    arrivals solves each member alone instead, on the scalar kernels where
    it is one segment.

    Every segment steps as it would alone, so each member gets what
    :func:`solve` gives it alone: a SolveReport, whose iterations are its
    slowest segment's and whose Newton decrement is its segments' last
    ones summed in order, or the SolverError its lone solve raises.
    Raises ValueError as :func:`solve` does.
    """
    if not 0.0 < gain < math.inf:
        raise ValueError(f"gain must be finite and > 0, got {gain}")
    if any(scenario.initial_energy > circuit.e_max for scenario in scenarios):
        raise ValueError("initial_energy exceeds the battery capacity e_max")
    width = scenarios[0].n_packets + 1
    if len(scenarios) > 1 and len(scenarios) * width <= ARRAY_MIN_PACKETS:
        return [report for scenario in scenarios
                for report in _solve_batch([scenario], circuit, gain)]
    e_max_root = math.sqrt(circuit.e_max)
    maps = [scenario._maps(circuit.tau) for scenario in scenarios]
    bounds = [(0.0, *(t for t, _ in scenario.packets), scenario.deadline)
              for scenario in scenarios]
    lengths = [b - a for row in bounds for a, b in zip(row, row[1:])]   # np.diff's bits
    curves = []         # (a, s) of G(r) = (a + s sqrt r)^2
    for k, charges in enumerate(maps):
        if k:
            curves.append((0.0, 0.0))
        curves += [(e_max_root * q, s) for q, s in charges]
    energies = [scenario.initial_energy for scenario in scenarios]
    steps, residuals, powers, ends = _newton_method(
        {k * width: energy for k, energy in enumerate(energies)}, lengths, curves, gain,
        e_max_root)
    runs = [[0, 0.0, True] for _ in scenarios]     # iterations, decrement, converged
    for first, (iterations, decrement, converged) in ends.items():
        run = runs[first // width]
        run[0] = max(run[0], iterations)
        run[1] += decrement
        run[2] = run[2] and converged
    # The trace holds the residuals, each packet's harvest at them and
    # p l; the residual at the deadline is the trace's own balance.
    rows = steps.report(residuals, powers, maps, energies, circuit.e_max,
                        [converged for *_, converged in runs])
    out = []
    for epoch_bounds, (iterations, decrement, converged), row in zip(bounds, runs, rows):
        if not converged:
            out.append(SolverError("Newton method did not converge", diagnostics={
                "iterations": iterations, "newton_decrement": decrement}))
            continue
        powers, residuals, harvested, consumed, bits = row
        if bits is None:
            # causality over the whole horizon first, then capacity
            causality, capacity = _violations(np.array(residuals), np.array(harvested),
                                              circuit.e_max)
            violated, flags = (("causality", causality) if causality.any()
                               else ("capacity", capacity))
            out.append(SolverError("optimum fails the feasibility check", diagnostics={
                "iterations": iterations, "newton_decrement": decrement, "violated": violated,
                "epoch": int(flags.argmax()) + 1}))
            continue
        # every entry is already a Python float
        schedule = _record(TransmissionSchedule, powers=tuple(powers),
                           epoch_bounds=epoch_bounds)
        trace = _record(HarvestTrace, residuals=tuple(residuals), harvested=tuple(harvested),
                        consumed=tuple(consumed), clamped=())
        out.append(SolveReport(
            schedule=schedule,
            trace=trace,
            throughput=bits,
            iterations=iterations,
            newton_decrement=decrement,
            terminal_residual_error=abs(trace.terminal_residual),
        ))
    return out
