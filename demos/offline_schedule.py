"""Offline-optimal schedule for a hand-sized two-packet scenario.

The solver runs a damped Newton method over the residual energies at
the arrivals; at its optimum the powers obey the stationarity recursion
p_{m+1} = (1 + p_m)(X_m + 1) - 1 across every arrival.  This script
solves one scenario, prints the schedule, the Newton steps it took and
the last Newton decrement, and verifies the structure the optimum must
have: stationarity across arrivals, a positive reserve until the
deadline, and exact depletion at it.

Run: python demos/offline_schedule.py
"""

from rfharvest import (
    ChargeCircuit,
    EnergyScenario,
    harvest_sensitivity,
    solve,
)

circuit = ChargeCircuit(resistance=750.0, capacitance=0.68, v_max=2.5)
scenario = EnergyScenario(
    initial_energy=0.5,
    packets=((10.0, 5.0), (20.0, 5.0)),   # (arrival s, charge duration s)
    deadline=30.0,
)

report = solve(scenario, circuit)
print(f"throughput {report.throughput:.6f} bits (normalized), "
      f"{report.iterations} Newton steps, last Newton decrement "
      f"{report.newton_decrement:.1e}")
print(f"terminal residual error: {report.terminal_residual_error:.2e} J\n")

print("epoch   power (W)   E_r at epoch end (J)   harvested (J)")
for i, power in enumerate(report.schedule.powers):
    harvested = (f"{report.trace.harvested[i]:.6f}"
                 if i < len(report.trace.harvested) else "       -")
    print(f"{i + 1:5d}   {power:9.6f}   {report.trace.residuals[i]:20.9f}   {harvested}")

print("\nstationarity check: (1 + p_next) / (1 + p) - 1 vs the harvest slope X")
for m in range(scenario.n_packets):
    x = harvest_sensitivity(report.trace.residuals[m],
                            scenario.packet_lengths[m], circuit)
    implied = (1.0 + report.schedule.powers[m + 1]) \
        / (1.0 + report.schedule.powers[m]) - 1.0
    print(f"arrival {m + 1}: X = {x:+.6e}, implied = {implied:+.6e}")
