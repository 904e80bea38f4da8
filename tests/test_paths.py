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
from circuit_geometry.paths import ENDPOINT_TOL
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


SMALL = OptimizerSettings(segments=2)


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
        distance_upper(u, MetricConfig(2, 2.0), OptimizerSettings())


def test_distance_upper_penalty_prices_hard_directions():
    # a pure weight-3 target costs at least its chart angle; the witness
    # length must also respect the p-scaled upper envelope of the chart bound
    cfg = MetricConfig(3, 4.0)
    y = _axis(3, "XXX", 0.4)
    u = exp_coords(y, identity(3))
    estimate = distance_upper(u, cfg, OptimizerSettings(segments=1))
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
    estimate = distance_upper(target, cfg, OptimizerSettings(segments=2))
    assert estimate.lower <= estimate.upper + ENDPOINT_TOL
    # the witness is the one-parameter subgroup, so its length is F_p(log U)
    assert estimate.upper == pytest.approx(minkowski_norm(log_coords(target, identity(3)), cfg), rel=1e-12)
    reached = schedule_endpoint(estimate.witness)
    assert phase_aligned_frobenius(reached.matrix, target.matrix) <= ENDPOINT_TOL
    assert estimate.upper == path_length(estimate.witness, cfg)


@pytest.mark.parametrize("n, segments", [(2, 3), (3, 2)])
def test_distance_upper_witness_is_the_subgroup_split(n, segments):
    rng = np.random.default_rng(500 + n)
    target = exp_coords(random_coeffs(rng, n, scale=0.7), identity(n))
    cfg = MetricConfig(n, 2.0**n)
    estimate = distance_upper(target, cfg, OptimizerSettings(segments=segments))
    leg = log_coords(target, identity(n)).values / segments
    assert np.array_equal(estimate.witness.values, np.repeat(leg[None, :], segments, axis=0))
    assert np.array_equal(estimate.witness.times, np.arange(segments, dtype=float))
    assert estimate.witness.duration == float(segments)
    reached = schedule_endpoint(estimate.witness)
    assert estimate.stats.endpoint_error == phase_aligned_frobenius(reached.matrix, target.matrix)
    assert (estimate.stats.runs, estimate.stats.evaluations) == (1, 1)


def test_distance_upper_branch_cut_raises_without_search():
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    u = Unitary(2, np.diag(np.exp(-1j * phases)))
    with pytest.raises(InfeasibleError, match="no feasible schedule found: .*principal logarithm"):
        distance_upper(u, MetricConfig(2, 2.0))
    assert distance_upper(identity(2), MetricConfig(2, 2.0)).stats.runs == 0
