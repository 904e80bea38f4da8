#!/usr/bin/env python3
"""Exponential charts on SU(2^n): coordinates, round trips, the branch
cut, and phase-insensitive distance between group elements."""

import numpy as np

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    Unitary,
    ValidationError,
    distance_upper,
    exp_coords,
    identity,
    log_coords,
    phase_aligned_frobenius,
    unitary_exp,
)


def section(title):
    print(f"\n--- {title} ---")


def main():
    section("coordinates of a rotation")
    y = CoeffVector.from_words(1, {"X": 0.4, "Z": -0.3})
    point = exp_coords(y, identity(1))
    recovered = log_coords(point, identity(1))
    print("coordinates in:", y.to_words())
    print("coordinates out:", {w: round(v, 12) for w, v in recovered.to_words().items()})

    section("chart is anchored to its base point")
    base = exp_coords(CoeffVector.from_words(1, {"Y": 0.9}), identity(1))
    moved = exp_coords(y, base)
    relative = log_coords(moved, base)
    print(f"same coordinates at a translated base, error "
          f"{np.max(np.abs(relative.values - y.values)):.3e}")

    section("branch cut at eigenphase pi")
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    awkward = Unitary(2, np.diag(np.exp(1j * phases)))
    try:
        log_coords(awkward, identity(2))
    except ValidationError as exc:
        print("rejected as expected:", exc)
    print(f"its distance, from the shortest logarithm modulo global phase: "
          f"{distance_upper(awkward, MetricConfig(2, 1.0)).lower:.6f}")

    section("global phase is not geometry")
    a = unitary_exp(np.diag([1.0, -1.0]), 0.2)
    b = np.exp(1j * 1.3) * a
    print(f"plain Frobenius |a - b|: {np.linalg.norm(a - b):.6f}")
    print(f"phase-aligned distance:  {phase_aligned_frobenius(a, b):.3e}")


if __name__ == "__main__":
    main()
