"""The a1..a4 form of the harvest polynomial, as an independent reference.

For a packet of charge duration T and circuit time constant tau, with
s = exp(-T/tau):

    a1 = s^2 / 2
    a2 = sqrt(2*e_max) * (1/s - 1)
    a3 = 2^1.5 * a2
    a4 = 2 * (1 - 1/s^2)

and the harvested energy at residual r is a1*(a2^2 + a3*sqrt(r) + a4*r).
The library evaluates the same polynomial in the decay parameterization;
the tests cross-check one against the other.
"""

import math
from dataclasses import dataclass


def _exp(x: float) -> float:
    """exp() that saturates to +inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class HarvestCoefficients:
    a1: float
    a2: float
    a3: float
    a4: float


def harvest_coefficients(packet_length: float, circuit) -> HarvestCoefficients:
    """Coefficients of the harvest polynomial for a given charge duration."""
    if packet_length < 0:
        raise ValueError(f"packet_length must be >= 0, got {packet_length}")
    tau = circuit.tau
    a1 = 0.5 * _exp(-2.0 * packet_length / tau)
    growth = _exp(packet_length / tau) - 1.0
    a2 = math.sqrt(2.0 * circuit.e_max) * growth
    a3 = 2.0 ** 1.5 * a2
    a4 = 2.0 * (1.0 - _exp(2.0 * packet_length / tau))
    return HarvestCoefficients(a1=a1, a2=a2, a3=a3, a4=a4)
