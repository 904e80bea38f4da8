#!/usr/bin/env python3
"""The weight-penalty norm: what it charges, the sandwich against the
Euclidean norm, its quadratic form diag(w^2), and sampled distortion."""

import numpy as np

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    PenaltyNorm,
    default_penalty,
    distortion_constants,
    estimate_distortion,
)


def main():
    config = MetricConfig(3, 4.0)
    norm = PenaltyNorm(config)
    print(f"n = {config.n}, penalty p = {config.p} "
          f"(default for n = 3 would be {default_penalty(3)})")
    print(f"weight-<=2 block size k = {config.k} of {4**config.n - 1} directions")

    print("\n== pricing easy vs hard directions ==")
    light = CoeffVector.from_words(3, {"XII": 0.6})
    heavy = CoeffVector.from_words(3, {"XXX": 0.6})
    mixed = CoeffVector.from_words(3, {"XII": 0.6, "XXX": 0.8})
    for name, y in (("weight-1", light), ("weight-3", heavy), ("mixed", mixed)):
        print(f"  {name:9s} |y| = {y.norm:.4f}   F_p(y) = {norm(y):.4f}")

    print("\n== sandwich |y| <= F_p(y) <= p|y| on 10000 random directions ==")
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((10000, 63))
    norms = norm(draws)
    lengths = np.sqrt(np.sum(np.square(draws), axis=-1))
    print(f"  min ratio {np.min(norms / lengths):.4f}, "
          f"max ratio {np.max(norms / lengths):.4f}, "
          f"violations: {int(np.sum((norms < lengths) | (norms > 4 * lengths)))}")

    print("\n== Minkowski-norm credentials ==")
    gram = norm.weights**2
    print(f"  F_p^2 / 2 is the quadratic form of diag(w^2): Hessian entries "
          f"from {gram.min():.0f} to {gram.max():.0f} (p^2 = {config.p**2:.0f})")
    y = rng.standard_normal(63)
    print(f"  homogeneity |F_p(10 y) - 10 F_p(y)| = {abs(norm(10.0 * y) - 10.0 * norm(y)):.2e}")

    print("\n== distortion constants, exact and sampled ==")
    exact = distortion_constants(config)
    print(f"  exact  (m, M) = {exact}")
    for samples in (1000, 10000, 100000):
        low, high = estimate_distortion(norm, 3, samples, seed=0)
        print(f"  {samples:6d} samples -> ({low:.4f}, {high:.4f})")


if __name__ == "__main__":
    main()
