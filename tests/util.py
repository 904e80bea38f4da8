"""Shared helpers for the test suite: seeded random matrices and schedules,
dense oracles for the Pauli bitmask kernel, and a reference encoder and a
trusted reader for the gates format, which the package only writes."""

import itertools
import json
import os

import numpy as np

from circuit_geometry import CoeffVector, GateSequence, Unitary
from circuit_geometry.pauli import _words


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


#: The single-qubit letters as dense 2 x 2 matrices.
LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def word_matrix(letters):
    """Dense (2^n, 2^n) matrix of a tensor word like ``"XZI"``, qubit 0 leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for letter in letters:
        out = np.kron(out, LETTER_MATRICES[letter])
    return out


def dense_basis(n):
    """Stack of every basis word's dense matrix in canonical order, (4^n - 1, 2^n, 2^n)."""
    return np.array([word_matrix(letters) for letters in _words(n)[0]])


def dense_reconstruct(values, n):
    """``sum_k y_k sigma_k`` from the dense word matrices, one word at a time."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for value, letters in zip(values, _words(n)[0]):
        if value != 0.0:
            out += value * word_matrix(letters)
    return out


def dense_decompose(matrix, n):
    """``Re tr(sigma_k H) / 2^n`` for every word, from the dense word matrices."""
    return np.array([np.einsum("ij,ji->", word_matrix(letters), matrix).real for letters in _words(n)[0]]) / 2**n


def dense_gate_product(sequence):
    """Gate product by a loop of dense matrix products.

    Each gate applies ``cos(a) S - i sin(a) (sigma @ S)``.  ``sigma @ S`` is
    exact whatever BLAS kernel forms it (one nonzero of modulus one per
    row), so this rounds as the rotation formula does and not as a
    kernel's fused multiply-adds do.
    """
    letters = _words(sequence.n)[0]
    state = np.eye(2**sequence.n, dtype=complex)
    for k, angle in zip(sequence.gates, sequence.angles):
        state = np.cos(angle) * state - 1j * np.sin(angle) * (word_matrix(letters[k]) @ state)
    return state


def gates_payload(sequence):
    """The gates format of ``sequence`` as a dict, each position written as its word's letters;
    ``save_gates`` must write its ``write_report`` encoding byte for byte."""
    letters = _words(sequence.n)[0]
    pairs = zip(sequence.gates.tolist(), sequence.angles.tolist())
    gates = [{"pauli": letters[k], "angle": angle} for k, angle in pairs]
    return {"n": sequence.n, "delta": sequence.delta, "gates": gates}


def read_gates(path):
    """The :class:`GateSequence` in a gates file.  The file is trusted: nothing is refused
    beyond what the constructor refuses."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    positions = {letters: k for k, letters in enumerate(_words(payload["n"])[0])}
    gates = payload["gates"]
    return GateSequence(payload["n"], [positions[gate["pauli"]] for gate in gates],
                        [gate["angle"] for gate in gates], payload["delta"])


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


#: The modules that hold the package's numerical work, each loaded on first use.
COMPUTE_MODULES = ["bounds", "charts", "io", "metric", "pauli", "paths", "simulation"]


def subprocess_env():
    """Environment for a child interpreter: this checkout's ``src`` first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env
