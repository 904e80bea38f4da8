"""Exponential charts on SU(2^n) and their principal logarithms.

A point ``x`` near a base point ``b`` is coordinatized by the traceless
Hermitian generator ``K`` of the relative rotation, ``x = exp(-i K) b``,
expanded over the Pauli basis.  The logarithm uses the principal branch
(eigenphases in (-pi, pi]) and is defined only while no eigenvalue of the
relative rotation sits on the branch cut at -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import CoeffVector, _check_qubit_count, decompose, reconstruct

UNITARY_TOL = 1e-9
DET_TOL = 1e-8
BRANCH_GAP = 1e-8
ROUNDTRIP_TOL = 1e-9

@dataclass(frozen=True, eq=False)
class Unitary:
    """Element of SU(2^n) held as a dense matrix.

    Construction validates unitarity (to ``UNITARY_TOL``) and unit
    determinant (to ``DET_TOL``); the stored matrix is read-only.
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        matrix = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n
        if matrix.shape != (dim, dim):
            raise ValidationError(
                f"unitary for n={self.n} must have shape ({dim}, {dim}), got {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("matrix entries must be finite")
        # entries near 1e300 overflow U U^dagger to inf or nan: refuse either, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            defect = float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(dim))))
        if not defect <= UNITARY_TOL:
            raise ValidationError(f"matrix is not unitary: max |U U^dagger - I| = {defect:.3e}")
        det = complex(np.linalg.det(matrix))
        if abs(det - 1.0) > DET_TOL:
            raise ValidationError(f"determinant {det:.8f} is not 1; not in the special unitary group")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


def identity(n: int) -> Unitary:
    """The identity element of SU(2^n)."""
    return Unitary(n, np.eye(2**n, dtype=complex))


def unitary_exp(hermitian: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(-i t H)`` for Hermitian ``H`` via eigendecomposition.

    Exactly unitary up to rounding (phases lie on the unit circle by
    construction), unlike a truncated series.
    """
    evals, vecs = np.linalg.eigh(hermitian)
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


def phase_aligned_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """``min_phi || a - e^{i phi} b ||_F`` for two matrices.

    The minimizing phase is ``e^{i phi} = conj(t) / |t|`` with
    ``t = tr(a^dagger b)`` (any phase when ``t`` is 0; 1 is used), and the
    distance is taken directly from the aligned difference, not from the
    expansion ``|a|^2 + |b|^2 - 2 |t|``, which cancels and loses half the
    digits of a small distance.  Group elements that differ only by a global
    phase compare as equal.  A NaN entry gives NaN, so it never counts as
    reaching a target.
    """
    trace = np.trace(a.conj().T @ b)
    # np.angle(0) is 0, so a zero trace aligns with phase 1
    phase = np.exp(-1j * np.angle(trace))
    # with an axis, norm sums |x|^2; the plain form's dot product can move the last bit
    return float(np.linalg.norm(a - phase * b, axis=(-2, -1)))


def exp_coords(y: CoeffVector, base: Unitary) -> Unitary:
    """Map chart coordinates to the group: ``exp(-i sum_i y_i sigma_i) @ base``."""
    if y.n != base.n:
        raise ValidationError(f"coordinate qubit count {y.n} does not match base {base.n}")
    return Unitary(base.n, unitary_exp(reconstruct(y)) @ base.matrix)


def log_coords(x: Unitary, base: Unitary) -> CoeffVector:
    """Principal-branch chart coordinates of ``x`` in the chart at ``base``.

    Returns ``y`` with ``exp_coords(y, base) == x`` up to roundoff.  The
    relative rotation ``x @ base^dagger`` is diagonalized by ``eig``; a QR
    of the eigenvectors makes them orthonormal inside degenerate
    eigenspaces, which ``eig`` does not promise (eigenvectors of distinct
    eigenvalues of a normal matrix are orthogonal already, so QR only mixes
    near-degenerate ones, at about rounding cost).  Eigenphases are taken
    in (-pi, pi], and the traceful part of the resulting generator is
    removed -- the group carries no identity direction, so only the
    traceless part is a coordinate.

    Raises
    ------
    ValidationError
        If any eigenvalue of the relative rotation lies within
        ``BRANCH_GAP`` of -1, where the principal branch is discontinuous,
        or if the principal branch fails to reproduce ``x`` to
        ``ROUNDTRIP_TOL`` (a global-phase obstruction: the traceful part
        removed was not an integer multiple of a representable phase).
    """
    if x.n != base.n:
        raise ValidationError(f"point qubit count {x.n} does not match base {base.n}")
    dim = 2**x.n
    relative = x.matrix @ base.matrix.conj().T
    eigenvalues, vectors = np.linalg.eig(relative)
    frame = np.linalg.qr(vectors)[0]
    gaps = np.abs(eigenvalues + 1.0)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] < BRANCH_GAP:
        raise ValidationError(f"eigenvalue {eigenvalues[nearest]:.12f} lies within {BRANCH_GAP:.1e} of -1; "
                              "the principal logarithm is not defined here")
    theta = np.angle(eigenvalues)
    generator = (frame * (-theta)) @ frame.conj().T
    alpha = float(np.trace(generator).real) / dim
    generator = generator - alpha * np.eye(dim)
    y = decompose(generator, x.n)
    residual = float(np.max(np.abs(unitary_exp(reconstruct(y)) @ base.matrix - x.matrix)))
    if residual > ROUNDTRIP_TOL:
        raise ValidationError(
            f"principal logarithm does not reproduce the input (residual {residual:.3e}); "
            "the point carries a global phase off the principal branch"
        )
    return y


def _shortest_log(x: Unitary) -> CoeffVector:
    """Coordinates of the shortest traceless logarithm of ``x`` modulo global phase.

    Sorts the eigenphases, lifts the ``r`` smallest by ``2 pi`` for each
    ``r`` and keeps the centred lift of least sum of squares (``r = 0`` on a
    tie).  Shifting ``x`` by the measured mean of that lift makes it the
    principal logarithm, with every phase within ``pi (1 - 1/dim)`` of 0;
    :func:`log_coords` computes and checks it.  The mean is ``2 pi k / dim``
    up to the determinant error that :class:`Unitary` admits, and shifting
    by the measured value, not the exact root of unity, removes that error
    with the central phase.
    """
    dim = 2**x.n
    theta = np.sort(np.angle(np.linalg.eigvals(x.matrix)))
    lifts = theta + 2.0 * np.pi * np.tri(dim, k=-1)
    best = int(np.argmin(np.sum((lifts - lifts.mean(axis=1, keepdims=True)) ** 2, axis=1)))
    return log_coords(Unitary(x.n, x.matrix * np.exp(-1j * lifts[best].mean())), identity(x.n))
