#!/usr/bin/env python3
"""Pauli basis walkthrough: canonical ordering, the weight partition, and
the decompose/reconstruct round trip."""

import numpy as np

from circuit_geometry import (
    CoeffVector,
    decompose,
    partition_k,
    reconstruct,
    weight_vector,
)


def main():
    print("=== Canonical basis ordering (n = 2) ===")
    # to_words lists the nonzero coefficients in canonical order
    print("words:", " ".join(CoeffVector(2, np.arange(1.0, 16.0)).to_words()))
    k = partition_k(2)
    print(f"first {k} words have weight <= 2; for n = 2 that is all of them")

    print("\n=== Weight partition counts ===")
    for n in range(1, 6):
        weights = weight_vector(n)
        counted = int(np.sum(weights <= 2))
        print(f"n = {n}: {counted:4d} weight-<=2 words of {len(weights):5d} total "
              f"(formula gives {partition_k(n)})")

    print("\n=== Decomposing a hand-built Hamiltonian ===")
    h = reconstruct(CoeffVector.from_words(2, {"XZ": 0.7, "IY": 0.2}))
    coeffs = decompose(h, 2)
    print("nonzero coefficients:", coeffs.to_words())
    rebuilt = reconstruct(coeffs)
    print(f"reconstruction error: {np.max(np.abs(rebuilt - h)):.3e}")

    print("\n=== Round trip on a random traceless Hermitian matrix ===")
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (raw + raw.conj().T) / 2
    h -= np.trace(h) / 8 * np.eye(8)
    coeffs = decompose(h, 3)
    print(f"n = 3 vector has {np.count_nonzero(coeffs.values)} nonzero entries, "
          f"|y| = {coeffs.norm:.6f}")
    print(f"round-trip error: {np.max(np.abs(reconstruct(coeffs) - h)):.3e}")


if __name__ == "__main__":
    main()
