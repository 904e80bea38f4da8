#!/usr/bin/env python3
"""From control schedule to gate list: slicing, synthesis, endpoint
accuracy against the dense propagator."""

import numpy as np

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    Schedule,
    enumerate_basis,
    gate_product,
    reconstruct,
    simulate,
    slice_mean,
    synthesize_gates,
    unitary_exp,
)


def main():
    config = MetricConfig(2, 1.0)
    drive = CoeffVector.from_words(2, {"XI": 0.8, "ZZ": 0.6})
    schedule = Schedule.constant(drive, 1.0)

    print("== one run of the pipeline (delta = 0.1) ==")
    result = simulate(schedule, config, 0.1)
    seq = result.gate_sequence
    print(f"gates: {result.gate_count}  (substep duration {seq.substep})")
    print(f"synthesized length L = {result.synthesized_length:.6f}")
    print(f"angle extremes: rho_inf = {result.rho_inf:.4f}, rho_sup = {result.rho_sup:.4f}")
    print(f"endpoint error vs dense propagator: {result.endpoint_error:.3e}")
    basis = enumerate_basis(2)
    first = zip(seq.gates[:4].tolist(), seq.angles[:4].tolist())
    print("first four gates:", [(str(basis[k]), round(angle, 4)) for k, angle in first])

    print("\n== error shrinks quadratically with the slice width ==")
    for delta in (0.2, 0.1, 0.05, 0.025):
        res = simulate(schedule, config, delta)
        print(f"  delta {delta:6.3f}: {res.gate_count:5d} gates, "
              f"endpoint error {res.endpoint_error:.3e}")

    print("\n== per-slice synthesis against the exact slice propagator ==")
    for delta in (0.2, 0.1, 0.05):
        mean = slice_mean(schedule, delta)[0]
        sequence = synthesize_gates([mean], delta, config)
        exact = unitary_exp(reconstruct(mean), delta)
        error = np.linalg.norm(gate_product(sequence).matrix - exact)
        print(f"  delta {delta:5.2f}: error {error:.3e} ({sequence.gates.size} gates)")

    print("\n== a time-dependent schedule ==")
    rng = np.random.default_rng(5)
    rows = rng.uniform(-0.7, 0.7, size=(4, 15))
    wobble = Schedule(2, np.array([0.0, 0.25, 0.5, 0.75]), rows, 1.0)
    res = simulate(wobble, config, 0.05)
    print(f"4-knot piecewise schedule -> {res.gate_count} gates, "
          f"endpoint error {res.endpoint_error:.3e}")


if __name__ == "__main__":
    main()
