"""Minkowski norms on tangent coordinates, chiefly the weight-penalty norm.

The penalty norm charges a factor ``p >= 1`` on every coordinate whose
Pauli word has weight three or more:

    F_p(y) = sqrt( sum_{weight<=2} y_i^2  +  p^2 sum_{weight>=3} y_i^2 ).

It is quadratic, hence a smooth Minkowski norm with positive-definite
Hessian of F_p^2 / 2, and it sandwiches the Euclidean norm as
``|y| <= F_p(y) <= p |y|``.  The checks in this module are empirical
(finite differences at trial points) so they also apply to user-supplied
norm callables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, ValidationError
from .pauli import CoeffVector, partition_k, weight_vector

#: Pauli weight at which the penalty starts to apply.
PENALIZED_WEIGHT = 3

HOMOGENEITY_SCALES = (0.5, 2.0, 10.0)
HOMOGENEITY_TOL = 1e-9
SMOOTHNESS_RTOL = 1e-5
HESSIAN_EIG_MIN = 1e-6
FD_STEP_FACTOR = 1e-4


def default_penalty(n: int) -> float:
    """Default penalty factor ``2^n``: many-body directions priced out exponentially."""
    return float(2**n)


@dataclass(frozen=True)
class MetricConfig:
    """Penalty-norm parameters for a fixed qubit count."""

    n: int
    p: float

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p < 1.0:
            raise ValidationError(f"penalty factor must be a finite number >= 1, got {self.p}")
        partition_k(self.n)  # validates n
        object.__setattr__(self, "p", float(self.p))

    @property
    def k(self) -> int:
        """Size of the unpenalized (weight-at-most-2) coordinate block."""
        return partition_k(self.n)


def penalty_weights(config: MetricConfig) -> np.ndarray:
    """Per-coordinate weights: 1 on weight-<=2 words, p on weight->=3 words."""
    return np.where(weight_vector(config.n) >= PENALIZED_WEIGHT, config.p, 1.0)


def _coerce_values(y, n: int) -> np.ndarray:
    values = y.values if isinstance(y, CoeffVector) else np.asarray(y, dtype=float)
    if values.shape[-1] != 4**n - 1:
        raise DomainError(
            f"coordinate vector for n={n} must have last dimension {4**n - 1}, "
            f"got shape {values.shape}"
        )
    return values


def _weighted_norm(weights: np.ndarray, values: np.ndarray):
    """``sqrt(sum((w * y)^2))`` over the last axis, the one penalty-norm reduction.

    Every penalty-norm evaluation goes through here, so algebraically
    equal inputs produce bit-identical outputs whichever entry point
    computed them.
    """
    return np.sqrt(np.sum(np.square(weights * values), axis=-1))


def minkowski_norm(y, config: MetricConfig):
    """Penalty norm of ``y`` (a CoeffVector or array; batches over leading axes)."""
    values = _coerce_values(y, config.n)
    out = _weighted_norm(penalty_weights(config), values)
    return float(out) if out.ndim == 0 else out


class PenaltyNorm:
    """Callable form of the penalty norm.

    Instances evaluate single coordinate vectors or batches (coordinates on
    the last axis) and expose the coordinate partition, which samplers use
    to stratify draws between the unit and penalty blocks.
    """

    def __init__(self, config: MetricConfig):
        self.config = config
        self.weights = penalty_weights(config)
        self.weights.flags.writeable = False
        mask = weight_vector(config.n) >= PENALIZED_WEIGHT
        mask = mask.copy()
        mask.flags.writeable = False
        #: Boolean mask of penalized coordinates in canonical order.
        self.penalized_mask = mask

    @property
    def dimension(self) -> int:
        return self.weights.size

    def __call__(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.dimension:
            raise DomainError(
                f"expected last dimension {self.dimension}, got shape {values.shape}"
            )
        return _weighted_norm(self.weights, values)

    def __repr__(self) -> str:
        return f"PenaltyNorm(n={self.config.n}, p={self.config.p})"


def distortion_constants(config: MetricConfig) -> tuple[float, float]:
    """Exact extrema (m, M) of ``F_p(y) / |y|`` over nonzero ``y``.

    The ratio is 1 on the unpenalized block and ``p`` on the penalized
    block; when no penalized coordinates exist (k = 4^n - 1, i.e. n <= 2)
    both extrema are 1.
    """
    if config.k == 4**config.n - 1:
        return (1.0, 1.0)
    return (1.0, config.p)


def _evaluate(norm, points: np.ndarray) -> np.ndarray:
    """Evaluate a norm callable on a (m, d) batch.

    Falls back to one row at a time when the batched call raises
    ``TypeError`` or ``ValueError`` or returns the wrong shape; any other
    failure propagates.
    """
    out = None
    try:
        candidate = np.asarray(norm(points), dtype=float)
        if candidate.shape == (points.shape[0],):
            out = candidate
    except (TypeError, ValueError):
        out = None
    if out is None:
        out = np.array([float(norm(p)) for p in points])
    if not np.all(np.isfinite(out)):
        raise EvaluationError("norm evaluated to a non-finite value")
    return out


def half_square_hessian(norm, point: np.ndarray, step: float | None = None) -> np.ndarray:
    """Finite-difference Hessian of ``norm(y)^2 / 2`` at ``point``.

    Central second differences with step ``1e-4 * max(1, |point|)`` by
    default.  All evaluations are gathered into a single batched call.
    """
    point = np.asarray(point, dtype=float)
    d = point.size
    if step is None:
        step = FD_STEP_FACTOR * max(1.0, float(np.linalg.norm(point)))
    rows, cols = np.triu_indices(d, k=1)
    pairs = rows.size
    points = np.repeat(point[None, :], 4 * pairs + 2 * d + 1, axis=0)
    offset = 4 * np.arange(pairs)
    points[offset + 0, rows] += step
    points[offset + 0, cols] += step
    points[offset + 1, rows] += step
    points[offset + 1, cols] -= step
    points[offset + 2, rows] -= step
    points[offset + 2, cols] += step
    points[offset + 3, rows] -= step
    points[offset + 3, cols] -= step
    diag = np.arange(d)
    points[4 * pairs + diag, diag] += step
    points[4 * pairs + d + diag, diag] -= step
    values = 0.5 * _evaluate(norm, points) ** 2
    quads = values[: 4 * pairs].reshape(pairs, 4)
    off_diag = (quads[:, 0] - quads[:, 1] - quads[:, 2] + quads[:, 3]) / (4.0 * step * step)
    plus = values[4 * pairs : 4 * pairs + d]
    minus = values[4 * pairs + d : 4 * pairs + 2 * d]
    center = values[-1]
    hessian = np.zeros((d, d))
    hessian[rows, cols] = off_diag
    hessian[cols, rows] = off_diag
    hessian[diag, diag] = (plus - 2.0 * center + minus) / (step * step)
    return hessian


def _central_gradient(norm, point: np.ndarray, step: float) -> np.ndarray:
    d = point.size
    points = np.repeat(point[None, :], 2 * d, axis=0)
    diag = np.arange(d)
    points[diag, diag] += step
    points[d + diag, diag] -= step
    values = _evaluate(norm, points)
    return (values[:d] - values[d:]) / (2.0 * step)


@dataclass(frozen=True)
class NormPropertyReport:
    """Outcome of the empirical Minkowski-norm checks at a set of trial points.

    The recorded extrema are the worst cases over all trial points.
    """

    homogeneity_pass: bool
    smoothness_pass: bool
    hessian_pass: bool
    max_homogeneity_error: float
    max_gradient_mismatch: float
    min_hessian_eigenvalue: float

    @property
    def all_pass(self) -> bool:
        return self.homogeneity_pass and self.smoothness_pass and self.hessian_pass


def check_finsler_properties(norm, n: int, trial_points) -> NormPropertyReport:
    """Empirically test positive homogeneity, smoothness, and strong convexity.

    * homogeneity: ``|norm(s y) - s norm(y)| <= 1e-9`` for s in {0.5, 2, 10};
    * smoothness proxy: central-difference gradients at steps h and h/2
      agree to 1e-5 relative, h = 1e-4 * max(1, |y|);
    * strong convexity: the finite-difference Hessian of ``norm^2 / 2``
      has minimum eigenvalue above 1e-6 at every trial point.

    ``trial_points`` must be nonzero coordinate vectors (CoeffVector or
    array-like of length 4^n - 1).
    """
    d = 4**n - 1
    points = []
    for raw in trial_points:
        values = raw.values if isinstance(raw, CoeffVector) else np.asarray(raw, dtype=float)
        if values.shape != (d,):
            raise DomainError(f"trial point must have shape ({d},), got {values.shape}")
        if not np.any(values):
            raise DomainError("trial points must be nonzero")
        points.append(values.astype(float))
    if not points:
        raise DomainError("at least one trial point is required")

    max_homogeneity = 0.0
    max_mismatch = 0.0
    min_eigenvalue = np.inf
    for point in points:
        base = float(_evaluate(norm, point[None, :])[0])
        scaled = _evaluate(norm, np.array([s * point for s in HOMOGENEITY_SCALES]))
        for s, value in zip(HOMOGENEITY_SCALES, scaled):
            max_homogeneity = max(max_homogeneity, abs(value - s * base))

        step = FD_STEP_FACTOR * max(1.0, float(np.linalg.norm(point)))
        grad_h = _central_gradient(norm, point, step)
        grad_h2 = _central_gradient(norm, point, step / 2.0)
        scale = max(1.0, float(np.linalg.norm(grad_h2)))
        max_mismatch = max(max_mismatch, float(np.linalg.norm(grad_h - grad_h2)) / scale)

        eigenvalues = np.linalg.eigvalsh(half_square_hessian(norm, point, step))
        min_eigenvalue = min(min_eigenvalue, float(eigenvalues[0]))

    return NormPropertyReport(
        homogeneity_pass=max_homogeneity <= HOMOGENEITY_TOL,
        smoothness_pass=max_mismatch <= SMOOTHNESS_RTOL,
        hessian_pass=min_eigenvalue > HESSIAN_EIG_MIN,
        max_homogeneity_error=max_homogeneity,
        max_gradient_mismatch=max_mismatch,
        min_hessian_eigenvalue=min_eigenvalue,
    )
