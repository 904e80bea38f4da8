"""Shared helpers for the test suite: seeded random matrices and schedules,
and dense oracles for the Pauli bitmask kernel."""

import itertools
import os

import numpy as np

from circuit_geometry import CoeffVector, Unitary, enumerate_basis


def random_traceless_hermitian(rng, n):
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h - (np.trace(h) / dim) * np.eye(dim)


def haar_unitary(rng, n):
    """Haar-ish random element of SU(2^n) via QR with phase fixing."""
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    det = np.linalg.det(q)
    q = q * np.exp(-1j * np.angle(det) / dim)
    return Unitary(n, q)


def brute_force_distance(target):
    """Least ``|K|`` over traceless ``K`` with ``exp(-i K) = omega target``, ``omega`` central.

    Tries every shift ``m`` in {-2..2}^dim of the eigenphases under each of the
    ``dim`` central phases ``omega = exp(2 pi i k / dim)``, keeps the lifts
    that sum to zero, and returns ``sqrt(sum phi^2 / dim)`` of the least one.
    """
    dim = len(target.matrix)
    theta = np.angle(np.linalg.eigvals(target.matrix))
    shifts = 2.0 * np.pi * np.array(list(itertools.product(range(-2, 3), repeat=dim)))
    best = np.inf
    for k in range(dim):
        lifts = theta - 2.0 * np.pi * k / dim + shifts
        traceless = np.abs(lifts.sum(axis=1)) < 1e-6
        best = min(best, float(np.min(np.sum(lifts[traceless] ** 2, axis=1))))
    return float(np.sqrt(best / dim))


def random_coeffs(rng, n, scale=1.0):
    values = rng.normal(size=4**n - 1)
    values = values / np.linalg.norm(values) * scale
    return CoeffVector(n, values)


def chain_schedule(rng, n, duration):
    """Schedule-format dict shaped like the benchmark's synthesis input.

    Four segments over the nearest-neighbour words (X and Z on each qubit;
    XX, YY and ZZ on each adjacent pair) with coefficients of magnitude
    0.6 to 0.9, plus 0.02 on the weight-3 word ZZZ on the first three qubits.
    """
    support = ["I" * q + a + "I" * (n - q - 1) for q in range(n) for a in "XZ"]
    support += ["I" * q + a * 2 + "I" * (n - q - 2) for q in range(n - 1) for a in "XYZ"]
    signs = rng.choice([-1.0, 1.0], size=len(support))
    segments = []
    for _ in range(4):
        y = dict(zip(support, (signs * rng.uniform(0.6, 0.9, size=len(support))).tolist()))
        if n >= 3:
            y["ZZZ" + "I" * (n - 3)] = 0.02
        segments.append({"tau": duration / 4, "y": y})
    return {"n": n, "segments": segments}


def dense_basis(n):
    """Stack of every basis word's dense matrix in canonical order, (4^n - 1, 2^n, 2^n)."""
    basis = enumerate_basis(n)
    stack = np.empty((len(basis), 2**n, 2**n), dtype=complex)
    for index, word in enumerate(basis):
        stack[index] = word.matrix()
    return stack


def dense_reconstruct(values, n):
    """``sum_k y_k sigma_k`` from the dense word matrices, one word at a time."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for value, word in zip(values, enumerate_basis(n)):
        if value != 0.0:
            out += value * word.matrix()
    return out


def dense_decompose(matrix, n):
    """``Re tr(sigma_k H) / 2^n`` for every word, from the dense word matrices."""
    return np.array([np.einsum("ij,ji->", word.matrix(), matrix).real for word in enumerate_basis(n)]) / 2**n


def dense_gate_product(sequence):
    """Gate product by a loop of dense matrix products.

    Each gate applies ``cos(a) S - i sin(a) (sigma @ S)``.  ``sigma @ S`` is
    exact whatever BLAS kernel forms it (one nonzero of modulus one per
    row), so this rounds as the rotation formula does and not as a
    kernel's fused multiply-adds do.
    """
    basis = enumerate_basis(sequence.n)
    state = np.eye(2**sequence.n, dtype=complex)
    for k, angle in zip(sequence.gates, sequence.angles):
        state = np.cos(angle) * state - 1j * np.sin(angle) * (basis[k].matrix() @ state)
    return state


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env():
    """Environment for a child interpreter: this checkout's ``src`` first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env
