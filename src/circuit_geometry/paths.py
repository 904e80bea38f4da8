"""Path lengths on SU(2^n) and two-sided distance estimates.

A path is a piecewise-constant :class:`~circuit_geometry.simulation.Schedule`;
its length is the sum of penalty-norm segment lengths, and the distance
from the identity to a target is bracketed by a chart lower bound and the
length of the one-parameter-subgroup witness ``exp(-i t log U)``, which
reaches the target by construction (Nielsen-Dowling-Gu-Doherty,
quant-ph/0603161).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .charts import Unitary, identity, log_coords, phase_aligned_frobenius
from .errors import BranchCutError, DomainError, InfeasibleError, ValidationError
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
        raise DomainError(f"path qubit count {path.n} does not match config {config.n}")
    taus = np.diff(np.append(path.times, path.duration))
    return math.fsum(PenaltyNorm(config)(path.values) * taus)


def distance_lower(target: Unitary, config: MetricConfig) -> float:
    """Chart lower bound on the distance from the identity to ``target``.

    Equal to ``m * |log_coords(target, I)|`` where ``m`` is the lower
    distortion constant (1 for the penalty norm).  Propagates
    ``BranchCutError`` when the target sits on the chart boundary.
    """
    if target.n != config.n:
        raise DomainError(f"target qubit count {target.n} does not match config {config.n}")
    m_lower, _ = distortion_constants(config)
    return m_lower * log_coords(target, identity(target.n)).norm


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

    The witness is the one-parameter subgroup through ``target``, split into
    ``segments`` equal legs ``y_j = log_coords(target) / segments``,
    ``tau_j = 1``; the split sets the legs that ``verify`` checks one by one.
    The returned upper value is the exact length of that witness,
    ``F_p(log U)`` up to roundoff, so it bounds the true distance from above.
    Endpoints compare modulo global phase; a target within
    ``IDENTITY_SHORTCUT`` of the identity gets the empty witness.

    Raises ``ValidationError`` unless ``segments`` is an integer (not a bool)
    of at least 1, ``DomainError``, before building the witness, for a witness
    above :data:`MAX_WITNESS_COEFFICIENTS` coefficients, and ``InfeasibleError``
    when the target has no principal logarithm (branch cut or global-phase
    obstruction) or the witness endpoint misses it by more than ``ENDPOINT_TOL``.
    """
    if isinstance(segments, bool) or not isinstance(segments, numbers.Integral) or segments < 1:
        raise ValidationError(f"segments must be an integer of at least 1, got {segments!r}")
    if target.n != config.n:
        raise DomainError(f"target qubit count {target.n} does not match config {config.n}")
    n_segments = int(segments)
    coefficients = n_segments * (4**config.n - 1)
    if coefficients > MAX_WITNESS_COEFFICIENTS:
        raise DomainError(f"a witness of {n_segments} segments at n = {config.n} holds {coefficients} "
                          f"coefficients; the limit is {MAX_WITNESS_COEFFICIENTS} coefficients")

    try:
        subgroup = log_coords(target, identity(config.n))
    except (BranchCutError, ValidationError) as exc:
        subgroup, obstruction = None, exc
    m_lower, _ = distortion_constants(config)
    lower = 0.0 if subgroup is None else m_lower * subgroup.norm

    empty_error = phase_aligned_frobenius(np.eye(2**config.n, dtype=complex), target.matrix)
    if empty_error <= IDENTITY_SHORTCUT:
        stats = WitnessStats(runs=0, evaluations=0, endpoint_error=empty_error)
        return DistanceEstimate(lower, 0.0, Schedule.from_segments(config.n, [], []), stats)
    if subgroup is None:
        raise InfeasibleError(f"no feasible schedule found: {obstruction}")

    witness = Schedule.from_segments(
        config.n, [subgroup.values / n_segments] * n_segments, [1.0] * n_segments
    )
    error = phase_aligned_frobenius(schedule_endpoint(witness).matrix, target.matrix)
    if not error <= ENDPOINT_TOL:
        raise InfeasibleError(
            f"no feasible schedule found: the subgroup witness misses the target by "
            f"{error:.3e}, beyond the tolerance {ENDPOINT_TOL:.1e}"
        )
    stats = WitnessStats(runs=1, evaluations=1, endpoint_error=error)
    return DistanceEstimate(lower, path_length(witness, config), witness, stats)
