"""Nonlinear charge physics of an RC-coupled supercapacitor harvester.

All quantities are SI: energies in joules, times in seconds, double
precision throughout.  The model is an ideal RC charging circuit: a
capacitor of capacitance ``C`` charged through a series resistance ``R``
by an ambient field that can push it at most to ``v_max`` volts.  The
energy captured from an incoming energy packet therefore depends not
only on the packet's charge duration but also on how much energy is
already sitting in the capacitor, which is what couples transmission
scheduling back into the harvesting process.

Every function is pure and accepts either scalars or numpy arrays for
the residual-energy argument; broadcasting follows numpy rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _exp(x: float) -> float:
    """exp() that saturates to +inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ChargeCircuit:
    """Physical parameters of the harvesting RC circuit."""

    resistance: float   # ohms
    capacitance: float  # farads
    v_max: float        # volts; highest chargeable voltage in the ambient field

    def __post_init__(self):
        if self.resistance <= 0:
            raise ValueError(f"resistance must be > 0, got {self.resistance}")
        if self.capacitance <= 0:
            raise ValueError(f"capacitance must be > 0, got {self.capacitance}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")

    @property
    def tau(self) -> float:
        """Charging time constant R*C in seconds."""
        return self.resistance * self.capacitance

    @property
    def e_max(self) -> float:
        """Highest storable energy 0.5*C*v_max^2 in joules."""
        return 0.5 * self.capacitance * self.v_max ** 2


class _HarvestCurve(NamedTuple):
    """Internal harvest evaluation in the decay parameterization.

    With s = exp(-T/tau) the harvest polynomial reads

        e_max*(1-s)^2 + 2*sqrt(e_max)*s*(1-s)*sqrt(r) + (s^2 - 1)*r,

    which stays finite for every T: s underflows to 0 for absurdly long
    packets, yielding the exact full-charge limit e_max - r.
    """

    decay: float       # exp(-T/tau), in [0, 1]
    e_max: float
    root_e_max: float


def _harvest_curve(packet_length: float, circuit: ChargeCircuit) -> _HarvestCurve:
    if packet_length < 0:
        raise ValueError(f"packet_length must be >= 0, got {packet_length}")
    decay = _exp(-packet_length / circuit.tau)
    e_max = circuit.e_max
    return _HarvestCurve(decay=decay, e_max=e_max, root_e_max=math.sqrt(e_max))


def _harvest_value(curve: _HarvestCurve, residual):
    """Raw harvest polynomial; no domain checks, array friendly.

    Valid as an analytic expression for any residual >= 0; callers that
    stray outside [0, e_max] (the propagation scan does) interpret the
    negative values themselves.
    """
    s = curve.decay
    return (curve.e_max * (1.0 - s) ** 2
            + 2.0 * curve.root_e_max * s * (1.0 - s) * np.sqrt(residual)
            + (s * s - 1.0) * residual)


def _decays(packet_lengths, circuit: ChargeCircuit) -> list:
    """Each packet's decay, as :func:`_harvest_curve` computes it."""
    tau = circuit.tau
    return [_exp(-d / tau) for d in packet_lengths]


def _harvest_step(decay: float, e_max: float, root_e_max: float, residual: float) -> float:
    """Harvest from one packet at one residual, as a Python float.

    The scalar form of :func:`harvested_energy` on the fields of a
    :class:`_HarvestCurve`, for every loop that carries a store from one
    arrival to the next: the same domain test (NaN passes), and the
    operations of :func:`_harvest_value` in the same order, with
    ``math.sqrt`` in place of ``np.sqrt`` (both are correctly rounded),
    so the result is the same bit for bit.
    """
    residual = float(residual)
    if residual < 0 or residual > e_max:
        raise ValueError("residual must lie in [0, e_max]")
    value = (e_max * (1.0 - decay) ** 2
             + 2.0 * root_e_max * decay * (1.0 - decay) * math.sqrt(residual)
             + (decay * decay - 1.0) * residual)
    return max(value, 0.0)


def _harvest_slope(curve: _HarvestCurve, residual):
    """Raw d(harvest)/d(residual); singular at residual = 0, array friendly."""
    s = curve.decay
    return curve.root_e_max * s * (1.0 - s) / np.sqrt(residual) + (s * s - 1.0)


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
    curve = _harvest_curve(packet_length, circuit)
    # Within the domain the true value is non-negative; the polynomial
    # cancels exactly at residual = e_max, where roundoff may leave -0.
    value = np.maximum(_harvest_value(curve, residual), 0.0)
    if value.ndim == 0:
        return float(value)
    return value


def optimal_residual(packet_length: float, circuit: ChargeCircuit) -> float:
    """Residual energy that maximizes the harvest from a packet.

    Equal to e_max / (1 + exp(T/tau))^2; tends to e_max/4 for very short
    packets and to 0 for packets much longer than the time constant.
    """
    if packet_length < 0:
        raise ValueError(f"packet_length must be >= 0, got {packet_length}")
    g = 1.0 + _exp(packet_length / circuit.tau)
    try:
        return circuit.e_max / g ** 2
    except OverflowError:
        # g ** 2 overflows while g is finite (about 355 to 710 tau); the
        # true value is subnormal or zero.
        return circuit.e_max / g / g


def harvest_sensitivity(residual, packet_length: float, circuit: ChargeCircuit):
    """Derivative of harvested energy with respect to residual energy.

    Positive below the optimal residual, zero exactly at it, negative
    above; always > -1.  Singular at residual = 0, which is refused;
    callers needing behavior near depletion clamp at ~1e-12 * e_max.
    """
    residual = np.asarray(residual, dtype=float)
    if np.any(residual <= 0):
        raise ValueError("residual must be > 0 (sensitivity is singular at 0)")
    curve = _harvest_curve(packet_length, circuit)
    value = _harvest_slope(curve, residual)
    if value.ndim == 0:
        return float(value)
    return value


def packet_length_for(residual_before: float, harvested: float, circuit: ChargeCircuit) -> float:
    """Charge duration needed to harvest a given energy from a given start.

    Inverts the RC charging curve: with start voltage V_r derived from
    ``residual_before``, the duration is tau * ln((v_max - V_r) /
    (v_max - V_r - dv)).  Exact round trip with :func:`harvested_energy`.

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
    v_start = math.sqrt(2.0 * residual_before / circuit.capacitance)
    v_end = math.sqrt(2.0 * target / circuit.capacitance)
    duration = circuit.tau * math.log((circuit.v_max - v_start) / (circuit.v_max - v_end))
    if duration > MAX_CHARGE_TIME_CONSTANTS * circuit.tau:
        raise InfeasibleError(
            f"charge duration {duration:.3g} s exceeds "
            f"{MAX_CHARGE_TIME_CONSTANTS:g} time constants"
        )
    return duration
