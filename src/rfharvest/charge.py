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
    """Physical parameters of the harvesting RC circuit."""

    resistance: float   # ohms
    capacitance: float  # farads
    v_max: float        # volts; highest chargeable voltage in the ambient field

    def __post_init__(self):
        for name in ("resistance", "capacitance", "v_max"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def tau(self) -> float:
        """Charging time constant R*C in seconds."""
        return self.resistance * self.capacitance

    @property
    def e_max(self) -> float:
        """Highest storable energy 0.5*C*v_max^2 in joules."""
        return 0.5 * self.capacitance * self.v_max ** 2


def _charge_map(packet_length: float, tau: float) -> tuple:
    """(q, s) = (-expm1(-T/tau), exp(-T/tau)) of a packet of duration T."""
    if not packet_length >= 0:
        raise ValueError(f"packet_length must be >= 0, got {packet_length}")
    x = -packet_length / tau
    return -math.expm1(x), math.exp(x)


def _charge_maps(packet_lengths, circuit: ChargeCircuit) -> list:
    """Each packet's charge map (q, s), as a list."""
    tau = circuit.tau
    return [_charge_map(d, tau) for d in packet_lengths]


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


def _harvest_step(charge_map: tuple, e_max: float, root_e_max: float,
                  residual: float) -> float:
    """Harvest from one packet at one residual, as a Python float.

    The scalar form of :func:`harvested_energy` on a packet's charge map,
    for every loop that carries a store from one arrival to the next:
    the same domain test (NaN passes), and the operations of
    :func:`_harvest_value` in the same order, with ``math.sqrt`` in
    place of ``np.sqrt`` (both are correctly rounded), so the result is
    the same bit for bit.
    """
    residual = float(residual)
    if residual < 0 or residual > e_max:
        raise ValueError("residual must lie in [0, e_max]")
    q, s = charge_map
    u = math.sqrt(residual)
    return min(q * (root_e_max - u) * (root_e_max * q + (1.0 + s) * u),
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
    callers needing behavior near depletion clamp at ~1e-12 * e_max.
    """
    residual = np.asarray(residual, dtype=float)
    if np.any(residual <= 0):
        raise ValueError("residual must be > 0 (sensitivity is singular at 0)")
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
    if residual_before < 0:
        raise ValueError(f"residual_before must be >= 0, got {residual_before}")
    if harvested < 0:
        raise ValueError(f"harvested must be >= 0, got {harvested}")
    target = residual_before + harvested
    if target >= circuit.e_max:
        raise InfeasibleError(
            f"cannot charge to {target} J: capacity is {circuit.e_max} J "
            "and a full charge takes infinite time"
        )
    if harvested == 0:    # the quotient below is 0 / 0 at r = 0
        return 0.0
    root = math.sqrt(residual_before)
    q = harvested / ((math.sqrt(target) + root) * (math.sqrt(circuit.e_max) - root))
    # q reaches 1 only by rounding, within an ulp of a full charge
    duration = -circuit.tau * math.log1p(-q) if q < 1.0 else math.inf
    if duration > MAX_CHARGE_TIME_CONSTANTS * circuit.tau:
        raise InfeasibleError(
            f"charge duration {duration:.3g} s exceeds "
            f"{MAX_CHARGE_TIME_CONSTANTS:g} time constants"
        )
    return duration
