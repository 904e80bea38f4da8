#!/usr/bin/env python3
"""Distance brackets: the chart lower bound, the one-parameter-subgroup
witness path, and how the penalty reprices many-body rotations."""

import numpy as np

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    Unitary,
    distance_upper,
    exp_coords,
    identity,
    path_length,
    unitary_exp,
)


def bracket(label, target, config, segments):
    estimate = distance_upper(target, config, segments)
    print(f"{label}: lower {estimate.lower:.6f}  upper {estimate.upper:.6f}  "
          f"(witness endpoint error {estimate.stats.endpoint_error:.1e})")
    return estimate


def main():
    segments = 4

    print("== single-axis rotation: both bounds pinch the angle ==")
    theta = 0.7
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    target = Unitary(1, unitary_exp(x, theta))
    estimate = bracket(f"exp(-i {theta} X)", target, MetricConfig(1, 2.0), segments)
    witness_len = path_length(estimate.witness, MetricConfig(1, 2.0))
    print(f"   witness has {len(estimate.witness.segments)} segments, "
          f"length {witness_len:.6f}")

    print("\n== generic two-qubit target ==")
    rng = np.random.default_rng(1)
    values = rng.normal(size=15)
    y = CoeffVector(2, 0.8 * values / np.linalg.norm(values))
    target = exp_coords(y, identity(2))
    bracket("random n=2 point", target, MetricConfig(2, 4.0), segments)

    print("\n== the penalty reprices a weight-3 rotation ==")
    heavy = exp_coords(CoeffVector.from_words(3, {"XXX": 0.4}), identity(3))
    for p in (1.0, 4.0, 8.0):
        config = MetricConfig(3, p)
        estimate = distance_upper(heavy, config, 1)
        print(f"  p = {p:3.0f}: lower {estimate.lower:.4f}, upper {estimate.upper:.4f} "
              f"(the straight path costs p * 0.4 = {p * 0.4:.1f})")


if __name__ == "__main__":
    main()
