"""Path lengths on SU(2^n) and two-sided distance estimates.

A path is a piecewise-constant :class:`~circuit_geometry.simulation.Schedule`;
its length is the sum of penalty-norm segment lengths, and the distance
from the identity to a target is bracketed by a chart lower bound and the
length of the witness ``exp(-i t K)``, ``K`` the shortest traceless
logarithm of the target modulo global phase, which reaches the target by
construction (Nielsen-Dowling-Gu-Doherty, quant-ph/0603161).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .charts import Unitary, _shortest_log, phase_aligned_frobenius
from .errors import ValidationError
from .metric import MetricConfig, PenaltyNorm, distortion_constants
from .simulation import MAX_WITNESS_COEFFICIENTS, Schedule, schedule_endpoint

#: Phase-aligned Frobenius distance at which a schedule counts as reaching
#: its target; also the slack allowed between the lower and upper estimate
#: before the pair is rejected as inconsistent.
ENDPOINT_TOL = 1e-6

#: An endpoint already this close to the target is treated as reached.
IDENTITY_SHORTCUT = 1e-12


def path_length(path: Schedule, config: MetricConfig) -> float:
    """Penalty-norm length of a schedule: ``sum_j F_p(y_j) * tau_j``.

    Summed with :func:`math.fsum` so the value depends only on the multiset
    of segment terms, not on how the path was assembled.
    """
    if path.n != config.n:
        raise ValidationError(f"path qubit count {path.n} does not match config {config.n}")
    taus = np.diff(np.append(path.times, path.duration))
    return math.fsum(PenaltyNorm(config)(path.values) * taus)


def distance_lower(target: Unitary, config: MetricConfig) -> float:
    """Chart lower bound on the distance from the identity to ``target``.

    Equal to ``m * |K|``, ``K`` the shortest traceless logarithm of ``target``
    modulo global phase and ``m`` the lower distortion constant (1 for the
    penalty norm): every target has one, on the projective group.
    """
    if target.n != config.n:
        raise ValidationError(f"target qubit count {target.n} does not match config {config.n}")
    m_lower, _ = distortion_constants(config)
    return m_lower * _shortest_log(target).norm


@dataclass(frozen=True)
class WitnessStats:
    """Witness accounting: runs (0 for a target at the identity, else 1),
    endpoint evaluations (likewise), and the witness endpoint error."""

    runs: int
    evaluations: int
    endpoint_error: float


@dataclass(frozen=True, eq=False)
class DistanceEstimate:
    """Two-sided distance bracket with the feasible witness schedule."""

    lower: float
    upper: float
    witness: Schedule
    stats: WitnessStats

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValidationError("distance estimates must be finite")
        if self.lower < 0 or self.upper < 0:
            raise ValidationError("distance estimates must be nonnegative")
        if self.lower > self.upper + ENDPOINT_TOL:
            raise ValidationError(
                f"lower estimate {self.lower:.9f} exceeds upper estimate "
                f"{self.upper:.9f} beyond the allowed slack"
            )


def distance_upper(target: Unitary, config: MetricConfig, segments: int = 8) -> DistanceEstimate:
    """Length of a feasible schedule reaching ``target``, plus the chart lower bound.

    Every target gets a bracket, on the projective group: the witness is
    ``exp(-i t K)``, ``K`` the shortest traceless logarithm modulo global
    phase, split into ``segments`` equal legs ``y_j = K / segments``,
    ``tau_j = 1``; the split sets the legs that ``verify`` checks one by one.
    The returned upper value is the exact length of that witness, ``F_p(K)``
    up to roundoff, so it bounds the true distance from above.  A target
    within ``IDENTITY_SHORTCUT`` of the identity gets the empty witness.

    Raises ``ValidationError`` unless ``segments`` is an integer (not a bool)
    of at least 1, and, before building the witness, for a witness above
    :data:`MAX_WITNESS_COEFFICIENTS` coefficients.  A witness endpoint that
    misses the target by more than ``ENDPOINT_TOL`` is a fault of the
    package and raises ``RuntimeError``.
    """
    if isinstance(segments, bool) or not isinstance(segments, numbers.Integral) or segments < 1:
        raise ValidationError(f"segments must be an integer of at least 1, got {segments!r}")
    if target.n != config.n:
        raise ValidationError(f"target qubit count {target.n} does not match config {config.n}")
    n_segments = int(segments)
    coefficients = n_segments * (4**config.n - 1)
    if coefficients > MAX_WITNESS_COEFFICIENTS:
        raise ValidationError(f"a witness of {n_segments} segments at n = {config.n} holds {coefficients} "
                          f"coefficients; the limit is {MAX_WITNESS_COEFFICIENTS} coefficients")

    subgroup = _shortest_log(target)
    m_lower, _ = distortion_constants(config)
    lower = m_lower * subgroup.norm

    empty_error = phase_aligned_frobenius(np.eye(2**config.n, dtype=complex), target.matrix)
    if empty_error <= IDENTITY_SHORTCUT:
        stats = WitnessStats(runs=0, evaluations=0, endpoint_error=empty_error)
        return DistanceEstimate(lower, 0.0, Schedule.from_segments(config.n, [], []), stats)

    witness = Schedule.from_segments(
        config.n, [subgroup.values / n_segments] * n_segments, [1.0] * n_segments
    )
    error = phase_aligned_frobenius(schedule_endpoint(witness).matrix, target.matrix)
    if not error <= ENDPOINT_TOL:
        raise RuntimeError(
            f"the subgroup witness misses the target by {error:.3e}, "
            f"beyond the tolerance {ENDPOINT_TOL:.1e}"
        )
    stats = WitnessStats(runs=1, evaluations=1, endpoint_error=error)
    return DistanceEstimate(lower, path_length(witness, config), witness, stats)
