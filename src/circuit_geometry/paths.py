"""Path lengths on SU(2^n) and two-sided distance estimates.

A path is a piecewise-constant :class:`~circuit_geometry.simulation.Schedule`;
its length is the sum of penalty-norm segment lengths, and the distance
from the identity to a target is bracketed by a chart lower bound and the
length of an explicitly feasible schedule found by derivative-free search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import Unitary, eigen_exp, identity, log_coords, phase_aligned_frobenius
from .errors import BranchCutError, DomainError, InfeasibleError, ValidationError
from .metric import MetricConfig, _weighted_norm, distortion_constants, penalty_weights
from .pauli import basis_matrices
from .simulation import Schedule

#: Phase-aligned Frobenius distance at which a schedule counts as reaching
#: its target; also the slack allowed between the lower and upper estimate
#: before the pair is rejected as inconsistent.
ENDPOINT_TOL = 1e-6

#: An endpoint already this close to the target is treated as reached.
IDENTITY_SHORTCUT = 1e-12

_ACCEPT_MARGIN = 1e-12

#: Coordinate-search step: initial size, and the size at which a feasible
#: run stops halving it.
INITIAL_STEP = 0.25
MIN_STEP = 1e-4

#: Bounds on each segment duration during the search.
TAU_MIN = 1e-4
TAU_MAX = 10.0

#: Endpoint-penalty weight: initial value, growth factor after a sweep that
#: ends infeasible, and the cap past which a run stops when it stalls.
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
PENALTY_CAP = 1e12


def path_length(path: Schedule, config: MetricConfig) -> float:
    """Penalty-norm length of a piecewise-constant schedule: ``sum_j F_p(y_j) * tau_j``.

    Summed with :func:`math.fsum` so the value depends only on the multiset
    of segment terms, not on how the path was assembled.  A linearly
    interpolated schedule raises ``DomainError``: its integral of ``F_p``
    has no closed form.
    """
    if path.n != config.n:
        raise DomainError(f"path qubit count {path.n} does not match config {config.n}")
    weights = penalty_weights(config)
    return math.fsum(_weighted_norm(weights, row) * tau for row, tau in path.segments)


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
class OptimizerSettings:
    """Budget for the upper-bound schedule search.

    ``segments`` is the number of constant segments in the witness
    schedule and ``max_sweeps`` caps the sweeps of its one deterministic
    run; the search draws no random numbers.
    """

    segments: int = 8
    max_sweeps: int = 40

    def __post_init__(self):
        if self.segments < 1:
            raise ValidationError("at least one segment is required")


@dataclass(frozen=True)
class OptimizerStats:
    """Search accounting: runs executed (0 or 1), trial evaluations, winning endpoint error."""

    runs: int
    evaluations: int
    endpoint_error: float


@dataclass(frozen=True, eq=False)
class DistanceEstimate:
    """Two-sided distance bracket with the feasible witness schedule."""

    lower: float
    upper: float
    witness: Schedule
    stats: OptimizerStats

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


class _Candidate:
    __slots__ = ("length", "ys", "taus", "error")

    def __init__(self, length, ys, taus, error):
        self.length = length
        self.ys = ys.copy()
        self.taus = taus.copy()
        self.error = error


def _search(target: np.ndarray, config: MetricConfig, settings: OptimizerSettings, ys, taus):
    """Greedy first-improvement coordinate descent from the start ``ys``, ``taus``.

    Minimizes ``length + w * err^2`` where ``err`` is the phase-aligned
    Frobenius endpoint mismatch; ``w`` grows by ``PENALTY_GROWTH`` after
    any sweep that ends infeasible, so the endpoint constraint hardens
    over time, and the step is halved only after a sweep that ends
    feasible without an accepted move.  Runs at most
    ``settings.max_sweeps`` sweeps and updates ``ys`` and ``taus`` in
    place.  Returns (best feasible candidate or None, best endpoint error
    seen, trial evaluations).  :func:`distance_upper` calls it once, from
    the one-parameter-subgroup start, which is feasible from the outset.

    Within segment ``j`` the trials run in the order ``(c, +step)``,
    ``(c, -step)`` for each coordinate ``c``, then ``tau +/- step`` (a tau
    move clipped to a no-op is skipped).  The first trial that lowers the
    objective by more than ``_ACCEPT_MARGIN`` is accepted, and the search
    goes on at ``c + 1``.  All remaining trials of the segment are
    evaluated as one stack (one contraction, one stacked ``eigh``, one
    batched endpoint product) and the first hit in that order wins; the
    trials after it are discarded and not counted.  Each trial is computed
    with the operations of a one-at-a-time loop, so the trajectory and the
    evaluation count do not depend on the batching.
    """
    n_segments, dim_coords = ys.shape
    flat_basis = basis_matrices(config.n).reshape(dim_coords, -1)
    weights = penalty_weights(config)
    dim = target.shape[0]

    def eigenpairs(rows):
        # a row-vector-times-matrix product per row rounds exactly as
        # np.tensordot(row, basis) does; a rank-one update h + step * sigma_c
        # of the current Hamiltonian would not
        hams = np.matmul(rows[:, None, :], flat_basis)[:, 0].reshape(-1, dim, dim)
        return np.linalg.eigh(hams)

    evals, vecs = eigenpairs(ys)
    units = eigen_exp(evals, vecs, taus[:, None])

    def prefix_suffix():
        prefix = [np.eye(dim, dtype=complex)]
        for u in units:
            prefix.append(u @ prefix[-1])
        suffix = [np.eye(dim, dtype=complex)] * (n_segments + 1)
        acc = np.eye(dim, dtype=complex)
        for j in range(n_segments - 1, -1, -1):
            suffix[j] = acc
            acc = acc @ units[j]
        return prefix, suffix

    prefix, suffix = prefix_suffix()
    lengths = np.array([_weighted_norm(weights, ys[j]) * taus[j] for j in range(n_segments)])
    error = phase_aligned_frobenius(prefix[-1], target)
    total_length = float(np.sum(lengths))

    best = None
    best_error = error

    def record():
        nonlocal best
        if error <= ENDPOINT_TOL:
            if best is None or total_length < best.length:
                best = _Candidate(total_length, ys, taus, error)

    record()

    weight = PENALTY_INIT
    step = INITIAL_STEP
    evaluations = 0
    objective = total_length + weight * error * error
    # trial k of a full segment stack moves coordinate k // 2 by +step, -step
    all_coords = np.repeat(np.arange(dim_coords), 2)
    all_signs = np.tile([1.0, -1.0], dim_coords)

    for _ in range(settings.max_sweeps):
        improved = False
        deltas = all_signs * step
        for j in range(n_segments):
            # taus[j] changes only when a tau trial is accepted, which ends the segment
            tau_trials = [
                tau for tau in np.clip(taus[j] + np.array([step, -step]), TAU_MIN, TAU_MAX) if tau != taus[j]
            ]
            start = 0
            while start <= dim_coords:
                coords = all_coords[2 * start:]
                n_moves = len(coords)
                rows = np.repeat(ys[j][None, :], n_moves + len(tau_trials), axis=0)
                rows[np.arange(n_moves), coords] += deltas[2 * start:]
                trial_taus = np.array([taus[j]] * n_moves + tau_trials)
                move_evals, move_vecs = eigenpairs(rows[:n_moves])
                trial_evals = np.concatenate([move_evals, np.repeat(evals[j][None], len(tau_trials), 0)])
                trial_vecs = np.concatenate([move_vecs, np.repeat(vecs[j][None], len(tau_trials), 0)])
                trial_units = eigen_exp(trial_evals, trial_vecs, trial_taus[:, None])
                trial_errors = phase_aligned_frobenius(suffix[j] @ (trial_units @ prefix[j]), target)
                trial_seg_lengths = _weighted_norm(weights, rows) * trial_taus
                trial_lengths = total_length - lengths[j] + trial_seg_lengths
                trial_objectives = trial_lengths + weight * trial_errors * trial_errors
                hits = np.flatnonzero(trial_objectives < objective - _ACCEPT_MARGIN)
                if len(hits) == 0:
                    evaluations += len(rows)
                    break
                k = int(hits[0])
                evaluations += k + 1
                ys[j] = rows[k]
                taus[j] = trial_taus[k]
                evals[j], vecs[j] = trial_evals[k], trial_vecs[k]
                units[j] = trial_units[k]
                lengths[j] = trial_seg_lengths[k]
                total_length = trial_lengths[k]
                error = float(trial_errors[k])
                objective = trial_objectives[k]
                prefix, suffix = prefix_suffix()
                best_error = min(best_error, error)
                record()
                improved = True
                start = start + k // 2 + 1 if k < n_moves else dim_coords + 1
        if error > ENDPOINT_TOL:
            if weight < PENALTY_CAP:
                weight *= PENALTY_GROWTH
            elif not improved:
                break
            objective = total_length + weight * error * error
        elif not improved:
            step *= 0.5
            if step < MIN_STEP:
                break
    return best, best_error, evaluations


def distance_upper(
    target: Unitary, config: MetricConfig, settings: OptimizerSettings | None = None
) -> DistanceEstimate:
    """Length of a feasible schedule reaching ``target``, plus the chart lower bound.

    Runs the coordinate search once, from the one-parameter-subgroup start
    ``y_j = log_coords(target) / segments``, ``tau_j = 1``, which reaches the
    target by construction; the search is deterministic.  The returned
    upper value is the exact length of the best witness schedule, so it
    bounds the true distance from above.  Endpoints compare modulo global
    phase; a target within ``IDENTITY_SHORTCUT`` of the identity gets the
    empty witness and no run.

    Raises ``InfeasibleError`` without searching when the target has no
    principal logarithm (``log_coords`` raises: branch cut or global-phase
    obstruction), and when the run ends without reaching the endpoint
    tolerance.
    """
    if settings is None:
        settings = OptimizerSettings()
    if target.n != config.n:
        raise DomainError(f"target qubit count {target.n} does not match config {config.n}")
    n_segments = settings.segments

    try:
        subgroup = log_coords(target, identity(config.n))
    except (BranchCutError, ValidationError):
        subgroup = None
    m_lower, _ = distortion_constants(config)
    lower = 0.0 if subgroup is None else m_lower * subgroup.norm

    empty_error = phase_aligned_frobenius(np.eye(2**config.n, dtype=complex), target.matrix)
    if empty_error <= IDENTITY_SHORTCUT:
        stats = OptimizerStats(runs=0, evaluations=0, endpoint_error=empty_error)
        return DistanceEstimate(lower, 0.0, Schedule.from_segments(config.n, [], []), stats)
    if subgroup is None:
        raise InfeasibleError(empty_error, ENDPOINT_TOL)

    ys = np.repeat((subgroup.values / n_segments)[None, :], n_segments, axis=0)
    best, run_error, evaluations = _search(target.matrix, config, settings, ys, np.ones(n_segments))
    if best is None:
        raise InfeasibleError(run_error, ENDPOINT_TOL)

    witness = Schedule.from_segments(config.n, best.ys, best.taus)
    upper = path_length(witness, config)
    stats = OptimizerStats(runs=1, evaluations=evaluations, endpoint_error=best.error)
    return DistanceEstimate(lower, upper, witness, stats)
