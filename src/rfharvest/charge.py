"""Nonlinear charge physics of an RC-coupled supercapacitor harvester.

All quantities are SI: energies in joules, times in seconds, double
precision throughout.  The model is an ideal RC charging circuit: a
capacitor of capacitance ``C`` charged through a series resistance ``R``
by an ambient field that can push it at most to ``v_max`` volts.  The
energy captured from an incoming energy packet therefore depends not
only on the packet's charge duration but also on how much energy is
already sitting in the capacitor, which is what couples transmission
scheduling back into the harvesting process.

A packet of charge duration T maps the root of the stored energy
affinely: sqrt(stored) = sqrt(e_max) q + s sqrt(r), with the packet's
charge map (q, s) = (-expm1(-T/tau), exp(-T/tau)) and r the residual at
its arrival.  Every quantity here comes from that one map, in forms
that do not subtract nearly equal numbers, so short packets (q far
below 1) keep full relative precision; with u = sqrt(r):

* harvest:  q (sqrt(e_max) - u) (sqrt(e_max) q + (1 + s) u), at most
  q (e_max - r);
* its slope in r:  q (sqrt(e_max) s / u - (1 + s));
* the residual that maximizes it:  e_max (s / (1 + s))^2;
* the charge duration that harvests h from r:
  -tau log1p(-h / ((sqrt(r + h) + u) (sqrt(e_max) - u))).

Every public function is pure and accepts either scalars or numpy
arrays for the residual-energy argument; broadcasting follows numpy
rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleError

__all__ = [
    "ChargeCircuit",
    "harvested_energy",
    "optimal_residual",
    "harvest_sensitivity",
    "packet_length_for",
]

# Beyond this many time constants the charge curve is flat to machine
# precision, so longer charge times are reported as infeasible.
MAX_CHARGE_TIME_CONSTANTS = 50.0


@dataclass(frozen=True)
class ChargeCircuit:
    """Physical parameters of the harvesting RC circuit.

    The derived constants are set once, at construction, as plain
    attributes that are not dataclass fields (so ``asdict``, ``repr``,
    equality and hashing see the three parameters alone, and
    ``dataclasses.replace`` recomputes them):

    * ``tau``: the charging time constant R*C in seconds;
    * ``e_max``: the highest storable energy 0.5*C*v_max^2 in joules.

    Each parameter and derived constant (a product may overflow or
    underflow) must be finite and > 0; a ``ValueError`` names any other.
    """

    resistance: float   # ohms
    capacitance: float  # farads
    v_max: float        # volts; highest chargeable voltage in the ambient field

    def __post_init__(self):
        # read once per harvest, replay and online epoch
        object.__setattr__(self, "tau", self.resistance * self.capacitance)
        try:
            e_max = 0.5 * self.capacitance * self.v_max ** 2
        except OverflowError:
            e_max = math.inf
        object.__setattr__(self, "e_max", e_max)
        for name in ("resistance", "capacitance", "v_max", "tau", "e_max"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def _charge_map(packet_length: float, tau: float) -> tuple:
    """(q, s) = (-expm1(-T/tau), exp(-T/tau)) of a packet of duration T."""
    if not packet_length >= 0:
        raise ValueError(f"packet_length must be >= 0, got {packet_length}")
    x = -packet_length / tau
    return -math.expm1(x), math.exp(x)


def _harvest_value(charge_map, e_max, root_e_max, residual):
    """Harvest of a packet's charge map (q, s) at residual; no domain
    check, array friendly.

    The product is non-negative on [0, e_max].  The store after the
    packet, (sqrt(e_max) q + s sqrt(r))^2, is at most q e_max + s r by
    convexity, so the harvest is capped at q (e_max - r): a full charge
    from empty then gives e_max exactly, not the rounding of
    root_e_max ** 2, and a zero-length packet (q = 0) gives 0 at any r.
    """
    q, s = charge_map
    u = np.sqrt(residual)
    return np.minimum(q * (root_e_max - u) * (root_e_max * q + (1.0 + s) * u),
                      q * (e_max - residual))


def harvested_energy(residual, packet_length: float, circuit: ChargeCircuit):
    """Energy captured from a packet given the pre-arrival residual energy.

    Args:
        residual: stored energy in joules at the arrival instant, in
            [0, e_max]; scalar or ndarray.
        packet_length: charge duration of the packet in seconds.
        circuit: harvesting circuit.

    Returns:
        Harvested energy in joules, in [0, e_max - residual].
    """
    residual = np.asarray(residual, dtype=float)
    if np.any(residual < 0) or np.any(residual > circuit.e_max):
        raise ValueError("residual must lie in [0, e_max]")
    e_max = circuit.e_max
    value = _harvest_value(_charge_map(packet_length, circuit.tau), e_max,
                           math.sqrt(e_max), residual)
    if value.ndim == 0:
        return float(value)
    return value


def optimal_residual(packet_length: float, circuit: ChargeCircuit) -> float:
    """Residual energy that maximizes the harvest from a packet.

    Equal to e_max (s / (1 + s))^2 with s = exp(-T/tau); tends to
    e_max/4 for very short packets and to 0 for packets much longer than
    the time constant.
    """
    if not packet_length >= 0:
        raise ValueError(f"packet_length must be >= 0, got {packet_length}")
    s = math.exp(-packet_length / circuit.tau)
    return circuit.e_max * (s / (1.0 + s)) ** 2


def harvest_sensitivity(residual, packet_length: float, circuit: ChargeCircuit):
    """Derivative of harvested energy with respect to residual energy.

    Positive below the optimal residual, zero exactly at it, negative
    above; always > -1.  Singular at residual = 0, which is refused;
    callers needing behavior near depletion clamp at ~1e-12 * e_max.  A
    residual above e_max is refused, as :func:`harvested_energy` does.
    """
    residual = np.asarray(residual, dtype=float)
    if np.any(residual <= 0):
        raise ValueError("residual must be > 0 (sensitivity is singular at 0)")
    if np.any(residual > circuit.e_max):
        raise ValueError("residual must lie in [0, e_max]")
    q, s = _charge_map(packet_length, circuit.tau)
    value = q * (math.sqrt(circuit.e_max) * s / np.sqrt(residual) - (1.0 + s))
    if value.ndim == 0:
        return float(value)
    return value


def packet_length_for(residual_before: float, harvested: float, circuit: ChargeCircuit) -> float:
    """Charge duration needed to harvest a given energy from a given start.

    Inverts the charge map: q = h / ((sqrt(r + h) + sqrt(r)) (sqrt(e_max)
    - sqrt(r))) and T = -tau log1p(-q).  Round trip with
    :func:`harvested_energy` to rounding.

    Raises:
        InfeasibleError: if the target state reaches or exceeds e_max,
            or needs more than ``MAX_CHARGE_TIME_CONSTANTS`` time
            constants (the curve is flat there).
    """
    if not residual_before >= 0:
        raise ValueError(f"residual_before must be >= 0, got {residual_before}")
    if not harvested >= 0:
        raise ValueError(f"harvested must be >= 0, got {harvested}")
    (duration,), _ = _charge_durations(residual_before, (0.0,), (harvested,), circuit)
    return duration


def _charge_durations(initial_energy: float, spends, harvests, circuit: ChargeCircuit) -> tuple:
    """Charge durations that make a store walk capture the given harvests,
    and their charge maps.

    The store starts at ``initial_energy``.  Epoch i spends spends[i],
    floored at a residual r of 0, and packet i must then capture exactly
    harvests[i] from r; the store carried on is r plus the harvest of
    the packet's charge map (q, s) at r, as :func:`harvested_energy`
    computes it from the duration found.  One loop in Python floats,
    with no call per arrival: the inversion of :func:`packet_length_for`
    (one step of this walk) and the harvest of :func:`_harvest_value`,
    in the same operations and order, with ``math`` in place of numpy
    (its sqrt is correctly rounded too).  The residual never leaves
    [0, e_max): it is floored at 0 and lies below a target under e_max.

    Returns:
        (durations, maps): the list of charge durations and the list of
        their charge maps (q, s), each what :func:`_charge_map` gives
        for its duration, bit for bit, so a drawn scenario's maps need
        not be computed again.

    Raises:
        InfeasibleError: as :func:`packet_length_for`, for the first
            packet whose target reaches e_max or whose duration exceeds
            ``MAX_CHARGE_TIME_CONSTANTS`` time constants.
    """
    tau, e_max = circuit.tau, circuit.e_max
    root_e_max = math.sqrt(e_max)
    longest = MAX_CHARGE_TIME_CONSTANTS * tau
    sqrt, log1p, expm1, exp = math.sqrt, math.log1p, math.expm1, math.exp
    stored, durations, maps = initial_energy, [], []
    for spend, harvest in zip(spends, harvests):
        residual = stored - spend
        if not residual > 0.0:
            residual = 0.0
        target = residual + harvest
        if target >= e_max:
            raise InfeasibleError(f"cannot charge to {target} J: capacity is {e_max} J "
                                  "and a full charge takes infinite time")
        u = sqrt(residual)
        if harvest == 0:    # the quotient below is 0 / 0 at r = 0
            duration = 0.0
        else:
            q = harvest / ((sqrt(target) + u) * (root_e_max - u))
            # q reaches 1 only by rounding, within an ulp of a full charge
            duration = -tau * log1p(-q) if q < 1.0 else math.inf
            if duration > longest:
                raise InfeasibleError(f"charge duration {duration:.3g} s exceeds "
                                      f"{MAX_CHARGE_TIME_CONSTANTS:g} time constants")
        x = -duration / tau
        q, s = -expm1(x), exp(x)
        captured = q * (root_e_max - u) * (root_e_max * q + (1.0 + s) * u)
        full = q * (e_max - residual)
        stored = residual + (full if full < captured else captured)
        durations.append(duration)
        maps.append((q, s))
    return durations, maps
