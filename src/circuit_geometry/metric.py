"""The weight-penalty norm on tangent coordinates.

The penalty norm charges a factor ``p >= 1`` on every coordinate whose
Pauli word has weight three or more:

    F_p(y) = sqrt( sum_{weight<=2} y_i^2  +  p^2 sum_{weight>=3} y_i^2 ).

It is Riemannian: ``F_p(y)^2 / 2`` is the quadratic form of diag(w^2),
with w the per-coordinate weights (1, or p on penalized words), so its
Hessian is diag(w^2) everywhere, with smallest eigenvalue 1.  It
sandwiches the Euclidean norm as ``|y| <= F_p(y) <= p |y|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import CoeffVector, _as_float, _check_qubit_count, partition_k, weight_vector

#: Pauli weight at which the penalty starts to apply.
PENALIZED_WEIGHT = 3


def default_penalty(n: int) -> float:
    """Default penalty factor ``2^n``: many-body directions priced out exponentially."""
    return float(2**n)


@dataclass(frozen=True)
class MetricConfig:
    """Penalty-norm parameters for a fixed qubit count."""

    n: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float(self.p))
        if not np.isfinite(self.p) or self.p < 1.0:
            raise ValidationError(f"penalty factor must be a finite number >= 1, got {self.p}")
        _check_qubit_count(self.n)

    @property
    def k(self) -> int:
        """Size of the unpenalized (weight-at-most-2) coordinate block."""
        return partition_k(self.n)


class PenaltyNorm:
    """The penalty norm ``F_p`` of one configuration.

    Called on a :class:`CoeffVector` it returns a Python float; called on an
    array it batches over the leading axes (coordinates on the last axis).
    It also exposes the coordinate partition as ``penalized_mask``.
    """

    def __init__(self, config: MetricConfig):
        self.config = config
        #: Boolean mask of penalized coordinates in canonical order.
        self.penalized_mask = weight_vector(config.n) >= PENALIZED_WEIGHT
        #: Per-coordinate weights: 1 on weight-<=2 words, p on weight->=3 words.
        self.weights = np.where(self.penalized_mask, config.p, 1.0)
        self.penalized_mask.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.weights.size

    def __call__(self, y):
        """``sqrt(sum((w * y)^2))`` over the last axis of ``y``."""
        values = y.values if isinstance(y, CoeffVector) else np.asarray(y, dtype=float)
        if values.shape[-1] != self.dimension:
            raise ValidationError(
                f"expected last dimension {self.dimension}, got shape {values.shape}"
            )
        scaled = self.weights * values
        out = np.sqrt(np.sum(np.square(scaled, out=scaled), axis=-1))
        return float(out) if isinstance(y, CoeffVector) else out

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
