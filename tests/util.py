"""Shared helpers for the test suite: seeded random matrices and schedules."""

import os

import numpy as np

from circuit_geometry import CoeffVector, Unitary


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


def random_coeffs(rng, n, scale=1.0):
    values = rng.normal(size=4**n - 1)
    values = values / np.linalg.norm(values) * scale
    return CoeffVector(n, values)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env():
    """Environment for a child interpreter: this checkout's ``src`` first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env
