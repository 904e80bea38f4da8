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
import scipy.linalg

from .errors import BranchCutError, DomainError, ValidationError
from .pauli import CoeffVector, _check_qubit_count, decompose, reconstruct

UNITARY_TOL = 1e-9
DET_TOL = 1e-8
BRANCH_GAP = 1e-8
ROUNDTRIP_TOL = 1e-9

#: Euclidean coordinate radius beyond which chart points are rejected; the
#: principal ball never extends past |theta| = pi in any eigenphase.
CHART_RADIUS = float(np.pi)


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
        defect = float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(dim))))
        if defect > UNITARY_TOL:
            raise ValidationError(f"matrix is not unitary: max |U U^dagger - I| = {defect:.3e}")
        det = complex(np.linalg.det(matrix))
        if abs(det - 1.0) > DET_TOL:
            raise ValidationError(f"determinant {det:.8f} is not 1; not in the special unitary group")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def dagger(self) -> "Unitary":
        return Unitary(self.n, self.matrix.conj().T)


def identity(n: int) -> Unitary:
    """The identity element of SU(2^n)."""
    return Unitary(n, np.eye(2**n, dtype=complex))


def eigen_exp(evals: np.ndarray, vecs: np.ndarray, t=1.0) -> np.ndarray:
    """``V diag(exp(-i t lambda)) V^dagger`` from eigenpairs, over leading axes.

    ``t`` is a scalar or an array that broadcasts against ``evals`` (one
    duration per matrix as ``t[..., None]``).  Each matrix of a stack is
    computed with exactly the operations of the unstacked call.
    """
    return (vecs * np.exp(-1j * t * evals)[..., None, :]) @ np.swapaxes(vecs.conj(), -2, -1)


def unitary_exp(hermitian: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(-i t H)`` for Hermitian ``H`` via eigendecomposition.

    Exactly unitary up to rounding (phases lie on the unit circle by
    construction), unlike a truncated series.
    """
    return eigen_exp(*np.linalg.eigh(hermitian), t)


def phase_aligned_frobenius(a: np.ndarray, b: np.ndarray):
    """``min_phi || a - e^{i phi} b ||_F`` over the last two axes.

    Equals ``sqrt(||a||^2 + ||b||^2 - 2 |tr(a^dagger b)|)``; group elements
    that differ only by a global phase compare as equal.  Returns a float
    for two matrices and an array for stacks (leading axes broadcast).
    A NaN entry gives NaN, so it never counts as reaching a target.
    """
    na = np.sum(np.abs(a) ** 2, axis=(-2, -1))
    nb = np.sum(np.abs(b) ** 2, axis=(-2, -1))
    trace = np.trace(np.swapaxes(a.conj(), -2, -1) @ b, axis1=-2, axis2=-1)
    # hypot, not np.abs: numpy's complex absolute rounds differently from
    # Python's abs(complex), which the unstacked form has always used
    overlap = np.hypot(trace.real, trace.imag)
    out = np.sqrt(np.maximum(0.0, na + nb - 2.0 * overlap))
    return float(out) if out.ndim == 0 else out


def exp_coords(y: CoeffVector, base: Unitary) -> Unitary:
    """Map chart coordinates to the group: ``exp(-i sum_i y_i sigma_i) @ base``."""
    if y.n != base.n:
        raise DomainError(f"coordinate qubit count {y.n} does not match base {base.n}")
    return Unitary(base.n, unitary_exp(reconstruct(y)) @ base.matrix)


def log_coords(x: Unitary, base: Unitary) -> CoeffVector:
    """Principal-branch chart coordinates of ``x`` in the chart at ``base``.

    Returns ``y`` with ``exp_coords(y, base) == x`` up to roundoff.  The
    relative rotation ``x @ base^dagger`` is diagonalized (complex Schur;
    unitary input makes the triangular factor diagonal), eigenphases are
    taken in (-pi, pi], and the traceful part of the resulting generator
    is removed -- the group carries no identity direction, so only the
    traceless part is a coordinate.

    Raises
    ------
    BranchCutError
        If any eigenvalue of the relative rotation lies within
        ``BRANCH_GAP`` of -1.
    ValidationError
        If the principal branch fails to reproduce ``x`` to
        ``ROUNDTRIP_TOL`` (a global-phase obstruction: the traceful part
        removed was not an integer multiple of a representable phase).
    """
    if x.n != base.n:
        raise DomainError(f"point qubit count {x.n} does not match base {base.n}")
    dim = 2**x.n
    relative = x.matrix @ base.matrix.conj().T
    triangular, frame = scipy.linalg.schur(relative, output="complex")
    eigenvalues = np.diag(triangular)
    gaps = np.abs(eigenvalues + 1.0)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] < BRANCH_GAP:
        raise BranchCutError(eigenvalues[nearest], BRANCH_GAP)
    theta = np.angle(eigenvalues)
    generator = (frame * (-theta)) @ frame.conj().T
    alpha = float(np.trace(generator).real) / dim
    alpha -= 2.0 * np.pi * np.round(alpha / (2.0 * np.pi))
    generator = generator - alpha * np.eye(dim)
    y = decompose(generator, x.n)
    residual = float(np.max(np.abs(unitary_exp(reconstruct(y)) @ base.matrix - x.matrix)))
    if residual > ROUNDTRIP_TOL:
        raise ValidationError(
            f"principal logarithm does not reproduce the input (residual {residual:.3e}); "
            "the point carries a global phase off the principal branch"
        )
    return y


def chart_segment_rho(x_from: Unitary, x_to: Unitary) -> float:
    """Euclidean chart length of one segment: ``|log_coords(x_to, x_from)|``.

    Right-invariant: translating both endpoints by a common unitary on the
    right leaves the value unchanged.
    """
    return log_coords(x_to, x_from).norm


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A group element carried in the chart of a base point."""

    base: Unitary
    coords: CoeffVector

    def __post_init__(self):
        if self.base.n != self.coords.n:
            raise ValidationError(
                f"base qubit count {self.base.n} does not match coordinates {self.coords.n}"
            )
        if self.coords.norm >= CHART_RADIUS:
            raise ValidationError(
                f"coordinate norm {self.coords.norm:.6f} is not below pi; "
                "outside the principal chart ball"
            )

    @classmethod
    def from_group_point(cls, base: Unitary, x: Unitary) -> "ChartPoint":
        return cls(base, log_coords(x, base))

    def to_group_point(self) -> Unitary:
        return exp_coords(self.coords, self.base)
