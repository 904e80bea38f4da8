"""Paths (piecewise-constant schedules), lengths, and the two-sided distance estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_geometry import (
    BranchCutError,
    CoeffVector,
    DistanceEstimate,
    DomainError,
    InfeasibleError,
    MetricConfig,
    OptimizerSettings,
    OptimizerStats,
    PauliString,
    Schedule,
    Unitary,
    ValidationError,
    distance_lower,
    distance_upper,
    enumerate_basis,
    exp_coords,
    identity,
    log_coords,
    minkowski_norm,
    path_length,
    phase_aligned_frobenius,
    reconstruct,
    schedule_endpoint,
    unitary_exp,
    weight_vector,
)
from circuit_geometry import paths
from circuit_geometry.metric import _weighted_norm, penalty_weights
from circuit_geometry.pauli import basis_matrices
from circuit_geometry.paths import (
    _ACCEPT_MARGIN,
    ENDPOINT_TOL,
    INITIAL_STEP,
    MIN_STEP,
    PENALTY_CAP,
    PENALTY_GROWTH,
    PENALTY_INIT,
    TAU_MAX,
    TAU_MIN,
    _Candidate,
)
from util import random_coeffs


def _axis(n, word, value):
    values = np.zeros(4**n - 1)
    index = [str(s) for s in enumerate_basis(n)].index(word)
    values[index] = value
    return CoeffVector(n, values)


def _path(n, legs):
    """Piecewise-constant schedule from ``(CoeffVector, tau)`` legs."""
    return Schedule.from_segments(n, [y.values for y, _ in legs], [tau for _, tau in legs])


def test_segment_validation():
    y = CoeffVector.zeros(1)
    for tau in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            _path(1, [(y, 1.0), (y, tau)])
    with pytest.raises(ValidationError):
        _path(1, [(y, 0.0)])


def test_path_qubit_consistency():
    with pytest.raises(ValidationError):
        _path(2, [(CoeffVector.zeros(1), 1.0)])


def test_endpoint_single_segment():
    y = _axis(1, "X", 0.7)
    path = _path(1, [(y, 1.5)])
    want = unitary_exp(reconstruct(y), 1.5)
    assert np.max(np.abs(schedule_endpoint(path).matrix - want)) < 1e-12


def test_endpoint_time_ordering():
    # later segments multiply on the left; X then Z differs from Z then X
    x = _axis(1, "X", 0.9)
    z = _axis(1, "Z", 0.8)
    path = _path(1, [(x, 1.0), (z, 1.0)])
    want = unitary_exp(reconstruct(z)) @ unitary_exp(reconstruct(x))
    assert np.max(np.abs(schedule_endpoint(path).matrix - want)) < 1e-12
    other = schedule_endpoint(_path(1, [(z, 1.0), (x, 1.0)]))
    assert np.max(np.abs(other.matrix - want)) > 0.1


def test_empty_path_endpoint():
    empty = _path(2, [])
    assert empty.duration == 0.0 and empty.segments == ()
    assert np.array_equal(schedule_endpoint(empty).matrix, np.eye(4))


def test_length_formula():
    cfg = MetricConfig(1, 2.0)
    y = _axis(1, "X", 0.3)
    path = _path(1, [(y, 2.0)])
    assert path_length(path, cfg) == pytest.approx(0.6, abs=1e-15)
    assert path_length(_path(1, []), cfg) == 0.0
    with pytest.raises(DomainError):
        path_length(path, MetricConfig(2, 2.0))
    # the length integral of a linear schedule has no closed form
    ramp = Schedule(1, np.array([0.0, 1.0]), np.array([y.values, 2 * y.values]), 2.0, "linear")
    with pytest.raises(DomainError):
        path_length(ramp, cfg)


def test_length_split_segment_exact():
    # halving a segment's duration and repeating it leaves the length
    # bit-identical: tau/2 is exact and the sum of two equal halves is exact
    cfg = MetricConfig(2, 3.0)
    rng = np.random.default_rng(0)
    y = random_coeffs(rng, 2, scale=1.3)
    tau = 0.37
    whole = _path(2, [(y, tau)])
    halves = _path(2, [(y, tau / 2.0), (y, tau / 2.0)])
    assert path_length(whole, cfg) == path_length(halves, cfg)


def test_length_concat_additive():
    # a schedule split at a segment boundary: the length of the whole is
    # the sum of the lengths of the two parts
    cfg = MetricConfig(1, 2.0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = [(random_coeffs(rng, 1), rng.uniform(0.1, 2.0)) for _ in range(3)]
        b = [(random_coeffs(rng, 1), rng.uniform(0.1, 2.0)) for _ in range(2)]
        total = path_length(_path(1, a + b), cfg)
        split = path_length(_path(1, a), cfg) + path_length(_path(1, b), cfg)
        assert math.isclose(total, split, rel_tol=1e-15, abs_tol=0.0)


def test_length_dyadic_concat_exact():
    # dyadic durations and single-word directions make every term exact
    cfg = MetricConfig(1, 1.0)
    a = [(_axis(1, "X", 0.25), 0.5)]
    b = [(_axis(1, "Z", 0.5), 0.25)]
    assert path_length(_path(1, a + b), cfg) == path_length(_path(1, a), cfg) + path_length(_path(1, b), cfg)


def test_distance_lower_oracle():
    cfg = MetricConfig(1, 2.0)
    for theta in (0.3, 0.7, 1.2):
        u = exp_coords(_axis(1, "X", theta), identity(1))
        assert abs(distance_lower(u, cfg) - theta) < 1e-12


def test_distance_lower_branch_cut():
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    u = Unitary(2, np.diag(np.exp(-1j * phases)))
    with pytest.raises(BranchCutError):
        distance_lower(u, MetricConfig(2, 2.0))


def test_optimizer_settings_validation():
    with pytest.raises(ValidationError):
        OptimizerSettings(segments=0)
    with pytest.raises(ValidationError):
        OptimizerSettings(restarts=-1)


def test_estimate_validation():
    stats = OptimizerStats(1, 1, 0.0)
    empty = _path(1, [])
    with pytest.raises(ValidationError):
        DistanceEstimate(1.0, 0.5, empty, stats)
    with pytest.raises(ValidationError):
        DistanceEstimate(-0.1, 0.5, empty, stats)
    DistanceEstimate(0.5, 0.5, empty, stats)  # equality is fine


def test_distance_upper_identity():
    cfg = MetricConfig(2, 4.0)
    estimate = distance_upper(identity(2), cfg)
    assert estimate.upper == 0.0
    assert estimate.lower == 0.0
    assert estimate.witness.segments == ()


SMALL = OptimizerSettings(segments=2, restarts=2, max_sweeps=15)


def test_distance_upper_pinches_subgroup():
    cfg = MetricConfig(1, 2.0)
    theta = 0.5
    u = exp_coords(_axis(1, "X", theta), identity(1))
    estimate = distance_upper(u, cfg, SMALL)
    assert estimate.upper <= theta + 1e-3
    assert abs(estimate.lower - theta) < 1e-9
    assert estimate.lower <= estimate.upper + 1e-6


def test_distance_upper_witness_is_feasible():
    cfg = MetricConfig(2, 4.0)
    rng = np.random.default_rng(2)
    u = exp_coords(random_coeffs(rng, 2, scale=0.8), identity(2))
    estimate = distance_upper(u, cfg, SMALL)
    reached = schedule_endpoint(estimate.witness)
    assert phase_aligned_frobenius(reached.matrix, u.matrix) <= ENDPOINT_TOL
    assert estimate.upper == path_length(estimate.witness, cfg)
    assert estimate.lower <= estimate.upper + 1e-6


def test_distance_upper_deterministic():
    cfg = MetricConfig(2, 2.0)
    rng = np.random.default_rng(3)
    u = exp_coords(random_coeffs(rng, 2, scale=0.6), identity(2))
    first = distance_upper(u, cfg, SMALL)
    second = distance_upper(u, cfg, SMALL)
    assert first.upper == second.upper
    assert first.stats.evaluations == second.stats.evaluations


def test_distance_upper_infeasible():
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    u = Unitary(2, np.diag(np.exp(-1j * phases)))
    with pytest.raises(InfeasibleError):
        distance_upper(u, MetricConfig(2, 2.0), OptimizerSettings(restarts=0))


def test_distance_upper_penalty_prices_hard_directions():
    # a pure weight-3 target costs at least its chart angle; the witness
    # length must also respect the p-scaled upper envelope of the chart bound
    cfg = MetricConfig(3, 4.0)
    y = _axis(3, "XXX", 0.4)
    u = exp_coords(y, identity(3))
    estimate = distance_upper(u, cfg, OptimizerSettings(segments=1, restarts=0, max_sweeps=6))
    assert estimate.lower == pytest.approx(0.4, abs=1e-9)
    assert estimate.upper <= 4.0 * 0.4 + 1e-6
    assert estimate.upper >= estimate.lower - 1e-9


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_distance_bracket_n3_with_penalty(seed):
    # U = e^{-iA} e^{-iB} with weight-<=2 A and B: log U carries weight-3
    # terms from [A, B], so at n = 3 the penalty acts on the bracket
    rng = np.random.default_rng(seed)
    local = (weight_vector(3) <= 2).astype(float)
    a, b = (CoeffVector(3, local * random_coeffs(rng, 3).values * 0.15) for _ in range(2))
    target = Unitary(3, exp_coords(a, identity(3)).matrix @ exp_coords(b, identity(3)).matrix)
    cfg = MetricConfig(3, 8.0)
    estimate = distance_upper(target, cfg, OptimizerSettings(segments=2, restarts=1, seed=seed))
    assert estimate.lower <= estimate.upper + ENDPOINT_TOL
    # the one-parameter-subgroup start is always a recorded candidate
    assert estimate.upper <= minkowski_norm(log_coords(target, identity(3)), cfg) + 1e-9
    reached = schedule_endpoint(estimate.witness)
    assert phase_aligned_frobenius(reached.matrix, target.matrix) <= ENDPOINT_TOL
    assert estimate.upper == path_length(estimate.witness, cfg)


# ---------------------------------------------------------------------------
# Oracle for the batched search kernel: the scalar loop it replaced, kept
# verbatim.  The batched kernel must follow the same trajectory bit for bit.


def _segment_unitary(evals, vecs, tau):
    return (vecs * np.exp(-1j * tau * evals)) @ vecs.conj().T


def _reference_search(target, config, settings, ys, taus):
    """The one-trial-at-a-time coordinate descent that ``paths._search`` batches.

    Minimizes ``length + w * err^2`` where ``err`` is the phase-aligned
    Frobenius endpoint mismatch; ``w`` grows by ``PENALTY_GROWTH`` after
    any sweep that ends infeasible, so the endpoint constraint hardens
    over time.  Returns (best feasible candidate or None, best endpoint
    error seen, trial evaluations).
    """
    n_segments, dim_coords = ys.shape
    basis = basis_matrices(config.n)
    weights = penalty_weights(config)
    dim = target.shape[0]

    eigs = []
    for j in range(n_segments):
        h = np.tensordot(ys[j], basis, axes=(0, 0))
        eigs.append(np.linalg.eigh(h))
    units = [_segment_unitary(ev, vc, taus[j]) for j, (ev, vc) in enumerate(eigs)]

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

    for _ in range(settings.max_sweeps):
        improved = False
        for j in range(n_segments):
            for coord in range(dim_coords + 1):
                for direction in (1.0, -1.0):
                    if coord < dim_coords:
                        trial_row = ys[j].copy()
                        trial_row[coord] += direction * step
                        h = np.tensordot(trial_row, basis, axes=(0, 0))
                        trial_eig = np.linalg.eigh(h)
                        trial_tau = taus[j]
                    else:
                        trial_tau = float(np.clip(taus[j] + direction * step, TAU_MIN, TAU_MAX))
                        if trial_tau == taus[j]:
                            continue
                        trial_row = ys[j]
                        trial_eig = eigs[j]
                    trial_unit = _segment_unitary(trial_eig[0], trial_eig[1], trial_tau)
                    endpoint = suffix[j] @ (trial_unit @ prefix[j])
                    trial_error = phase_aligned_frobenius(endpoint, target)
                    trial_seg_length = _weighted_norm(weights, trial_row) * trial_tau
                    trial_length = total_length - lengths[j] + trial_seg_length
                    trial_objective = trial_length + weight * trial_error * trial_error
                    evaluations += 1
                    if trial_objective < objective - _ACCEPT_MARGIN:
                        if coord < dim_coords:
                            ys[j] = trial_row
                        taus[j] = trial_tau
                        eigs[j] = trial_eig
                        units[j] = trial_unit
                        lengths[j] = trial_seg_length
                        total_length = trial_length
                        error = trial_error
                        objective = trial_objective
                        prefix, suffix = prefix_suffix()
                        best_error = min(best_error, error)
                        record()
                        improved = True
                        break
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



ORACLE_CASES = [(n, segments) for n in (1, 2, 3) for segments in (1, 2, 3)]


def _run_kernel(monkeypatch, kernel, target, cfg, settings):
    with monkeypatch.context() as patch:
        patch.setattr(paths, "_search", kernel)
        try:
            return distance_upper(target, cfg, settings)
        except InfeasibleError as exc:
            return str(exc)


def _assert_same_estimate(want, got):
    if isinstance(want, str):
        assert got == want
        return
    assert got.stats.evaluations == want.stats.evaluations
    assert got.stats.runs == want.stats.runs
    assert got.stats.endpoint_error == want.stats.endpoint_error
    assert got.upper == want.upper
    assert got.lower == want.lower
    assert np.array_equal(got.witness.values, want.witness.values)
    assert np.array_equal(got.witness.times, want.witness.times)
    assert got.witness.duration == want.witness.duration


@pytest.mark.parametrize("n,segments", ORACLE_CASES)
def test_search_kernel_matches_scalar_oracle(monkeypatch, n, segments):
    rng = np.random.default_rng(100 + 10 * n + segments)
    target = exp_coords(random_coeffs(rng, n, scale=0.7), identity(n))
    cfg = MetricConfig(n, 2.0**n)
    sweeps = {1: 40, 2: 12, 3: 4}[n]
    settings = OptimizerSettings(segments=segments, restarts=2, seed=segments, max_sweeps=sweeps)
    want = _run_kernel(monkeypatch, _reference_search, target, cfg, settings)
    got = _run_kernel(monkeypatch, paths._search, target, cfg, settings)
    assert not isinstance(want, str)
    assert want.stats.evaluations > 0
    _assert_same_estimate(want, got)

    # one run from a random start, which accepts many moves while infeasible:
    # the best error seen, the count, the final state and any candidate agree
    start = rng.normal(0.0, 0.7 / segments, (segments, 4**n - 1)), rng.uniform(0.5, 1.5, segments)
    want_ys, want_taus = start[0].copy(), start[1].copy()
    got_ys, got_taus = start[0].copy(), start[1].copy()
    want = _reference_search(target.matrix, cfg, settings, want_ys, want_taus)
    got = paths._search(target.matrix, cfg, settings, got_ys, got_taus)
    assert got[1:] == want[1:]
    assert np.array_equal(got_ys, want_ys) and np.array_equal(got_taus, want_taus)
    assert (got[0] is None) == (want[0] is None)
    if want[0] is not None:
        assert (got[0].length, got[0].error) == (want[0].length, want[0].error)
        assert np.array_equal(got[0].ys, want[0].ys) and np.array_equal(got[0].taus, want[0].taus)


def test_search_kernel_matches_scalar_oracle_infeasible(monkeypatch):
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    target = Unitary(2, np.diag(np.exp(-1j * phases)))
    settings = OptimizerSettings(segments=2, restarts=1, max_sweeps=3)
    want = _run_kernel(monkeypatch, _reference_search, target, MetricConfig(2, 2.0), settings)
    got = _run_kernel(monkeypatch, paths._search, target, MetricConfig(2, 2.0), settings)
    assert isinstance(want, str) and "no feasible schedule" in want
    _assert_same_estimate(want, got)
