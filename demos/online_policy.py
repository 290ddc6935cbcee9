"""The online policy: predict the next packet, park at its optimum.

After each arrival the device re-estimates the next packet's charge
duration and arrival time from the running means of what it has seen,
computes the residual that would maximize that packet's harvest, and
sheds exactly the excess over the predicted horizon.  On a perfectly
regular stream the prediction is exact and the policy coincides with the
greedy harvester; on random streams it degrades gracefully.

Run: python demos/online_policy.py
"""

import numpy as np

from rfharvest import (
    ChargeCircuit,
    EnergyScenario,
    ExperimentConfig,
    OnlinePredictivePolicy,
    generate_scenario,
    max_harvest_schedule,
    replay,
    solve,
)

circuit = ChargeCircuit(resistance=4000.0, capacitance=0.05, v_max=2.5)

# --- regular stream: prediction is exact -------------------------------
gap, duration, n = 5.0, 20.0, 4
scenario = EnergyScenario(
    initial_energy=0.05,
    packets=tuple((gap * (k + 1), duration) for k in range(n)),
    deadline=gap * (n + 1),
)
policy = OnlinePredictivePolicy(prior_length=duration, prior_gap=gap)
online_trace, online_bits = replay(policy, scenario, circuit)
greedy_trace, greedy_bits = replay(max_harvest_schedule(scenario, circuit),
                                   scenario, circuit)
print("regular stream (gap 5 s, duration 20 s):")
print(f"  online bits {online_bits:.6f}  vs greedy harvester {greedy_bits:.6f}")
print(f"  max |consumption difference| = "
      f"{max(abs(a - b) for a, b in zip(online_trace.consumed, greedy_trace.consumed)):.2e} J")

# --- random stream: prediction from running means -----------------------
config = ExperimentConfig(circuit=circuit, mean_epoch_length=0.01,
                          mean_harvest=0.05, packet_count=8,
                          initial_energy=0.05, runs=1, seed=3)
print("\nrandom streams (medium-length packets), online vs offline optimum:")
for seed in range(5):
    rng = np.random.default_rng([3, seed])
    random_scenario, _ = generate_scenario(config, rng)
    # no charge duration is known before the first packet
    policy = OnlinePredictivePolicy(prior_length=0.0, prior_gap=config.mean_epoch_length)
    _, online = replay(policy, random_scenario, circuit)
    offline = solve(random_scenario, circuit).throughput
    print(f"  seed {seed}: online/offline = {online / offline:6.2%}")
