"""Paths (piecewise-constant schedules), lengths, and the two-sided distance estimates."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_geometry import (
    CoeffVector,
    DistanceEstimate,
    MetricConfig,
    PauliString,
    PenaltyNorm,
    Schedule,
    Unitary,
    ValidationError,
    WitnessStats,
    check_segment_distortion,
    distance_lower,
    distance_upper,
    enumerate_basis,
    exp_coords,
    identity,
    log_coords,
    path_length,
    phase_aligned_frobenius,
    reconstruct,
    schedule_endpoint,
    unitary_exp,
    weight_vector,
)
from circuit_geometry import charts, simulation
from circuit_geometry.charts import _shortest_log
from circuit_geometry.paths import ENDPOINT_TOL
from util import brute_force_distance, haar_unitary, random_coeffs


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
    with pytest.raises(ValidationError, match="path qubit count 1 does not match config 2"):
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


#: Eigenvalues within 1e-9 of -1: the principal logarithm is refused, yet the
#: target is exp(-i K) times the central phase i, with |K| = sqrt(pi^2 + 0.18) / 2.
BRANCH_CUT = Unitary(2, np.diag(np.exp(-1j * np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3]))))


def test_distance_lower_branch_cut():
    with pytest.raises(ValidationError, match="of -1; the principal logarithm is not defined here"):
        log_coords(BRANCH_CUT, identity(2))
    lower = distance_lower(BRANCH_CUT, MetricConfig(2, 2.0))
    assert lower == pytest.approx(1.5850555511629048, abs=1e-12)
    assert lower == pytest.approx(math.sqrt(np.pi**2 + 0.18) / 2, abs=1e-12)


def _eigenbasis_target(rng, n, phases):
    """``V diag(exp(i phases)) V^dagger`` for a Haar-random ``V``."""
    frame = haar_unitary(rng, n).matrix
    return Unitary(n, (frame * np.exp(1j * np.asarray(phases))) @ frame.conj().T)


def _target(kind, n, rng):
    dim = 2**n
    if kind == "haar":
        return haar_unitary(rng, n)
    if kind == "near_cut":
        rest = rng.uniform(-2.5, 2.5, size=dim - 2)
        return _eigenbasis_target(rng, n, [np.pi - 5e-10, *rest, -(np.pi - 5e-10) - rest.sum()])
    if kind == "phases_sum_to_2pi_k":
        # (pi, pi) at n = 1 is -I; (3, 3, 3, 2 pi - 9) at n = 2 sums to 2 pi
        return _eigenbasis_target(rng, n, [np.pi, np.pi] if n == 1 else [3.0, 3.0, 3.0, 2 * np.pi - 9.0])
    small = exp_coords(random_coeffs(rng, n, scale=0.3), identity(n)).matrix
    return Unitary(n, np.exp(2j * np.pi * rng.integers(1, dim) / dim) * small)


@pytest.mark.parametrize("kind", ["haar", "near_cut", "phases_sum_to_2pi_k", "central_times_small"])
@pytest.mark.parametrize("n", [1, 2])
def test_distance_lower_is_the_shortest_branch(n, kind):
    # the least |K| over eigenphase shifts in {-2..2}^dim and the dim central phases
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        target = _target(kind, n, rng)
        assert distance_lower(target, MetricConfig(n, 1.0)) == pytest.approx(
            brute_force_distance(target), abs=1e-12
        )


def test_distance_upper_refuses_a_bad_segment_count():
    target = exp_coords(_axis(1, "X", 0.3), identity(1))
    for segments in (0, -1, 2.5, 2.0, True, False, "2", None):
        with pytest.raises(ValidationError, match="segments must be an integer of at least 1"):
            distance_upper(target, MetricConfig(1, 2.0), segments)


def test_distance_upper_accepts_numpy_integer_segments():
    target = exp_coords(_axis(1, "X", 0.3), identity(1))
    estimate = distance_upper(target, MetricConfig(1, 2.0), np.int64(3))
    assert len(estimate.witness.segments) == 3
    assert estimate.witness.values.shape == (3, 3)


def test_estimate_validation():
    stats = WitnessStats(1, 1, 0.0)
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


SMALL = 2


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
    # named for the InfeasibleError this target raised while only the principal
    # logarithm was tried; it now gets a bracket on the projective group
    estimate = distance_upper(BRANCH_CUT, MetricConfig(2, 2.0))
    assert estimate.lower == pytest.approx(brute_force_distance(BRANCH_CUT), abs=1e-12)
    assert estimate.lower == pytest.approx(1.5850555511629048, abs=1e-12)
    assert estimate.upper == pytest.approx(1.5850555511629048, abs=1e-12)


def test_distance_upper_penalty_prices_hard_directions():
    # a pure weight-3 target costs at least its chart angle; the witness
    # length must also respect the p-scaled upper envelope of the chart bound
    cfg = MetricConfig(3, 4.0)
    y = _axis(3, "XXX", 0.4)
    u = exp_coords(y, identity(3))
    estimate = distance_upper(u, cfg, 1)
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
    estimate = distance_upper(target, cfg, 2)
    assert estimate.lower <= estimate.upper + ENDPOINT_TOL
    # the witness is the one-parameter subgroup, so its length is F_p(log U)
    assert estimate.upper == pytest.approx(PenaltyNorm(cfg)(log_coords(target, identity(3))), rel=1e-12)
    reached = schedule_endpoint(estimate.witness)
    assert phase_aligned_frobenius(reached.matrix, target.matrix) <= ENDPOINT_TOL
    assert estimate.upper == path_length(estimate.witness, cfg)


@pytest.mark.parametrize("n, segments", [(2, 3), (3, 2)])
def test_distance_upper_witness_is_the_subgroup_split(n, segments):
    rng = np.random.default_rng(500 + n)
    target = exp_coords(random_coeffs(rng, n, scale=0.7), identity(n))
    cfg = MetricConfig(n, 2.0**n)
    estimate = distance_upper(target, cfg, segments)
    leg = _shortest_log(target).values / segments
    assert np.array_equal(estimate.witness.values, np.repeat(leg[None, :], segments, axis=0))
    assert np.array_equal(estimate.witness.times, np.arange(segments, dtype=float))
    assert estimate.witness.duration == float(segments)
    reached = schedule_endpoint(estimate.witness)
    assert estimate.stats.endpoint_error == phase_aligned_frobenius(reached.matrix, target.matrix)
    assert (estimate.stats.runs, estimate.stats.evaluations) == (1, 1)


def test_distance_upper_branch_cut_raises_without_search():
    # named for the refusal this target got while only the principal logarithm
    # was tried; it still needs no search: one witness, one evaluation
    estimate = distance_upper(BRANCH_CUT, MetricConfig(2, 2.0))
    assert (estimate.stats.runs, estimate.stats.evaluations) == (1, 1)
    assert estimate.stats.endpoint_error <= ENDPOINT_TOL
    assert distance_upper(identity(2), MetricConfig(2, 2.0)).stats.runs == 0


@pytest.mark.parametrize("phase", [1j, -1.0, -1j])
def test_a_global_phase_leaves_the_bracket_unchanged(phase):
    cfg = MetricConfig(2, 4.0)
    rotation = exp_coords(_axis(2, "ZI", 0.2), identity(2))
    plain = distance_upper(rotation, cfg)
    phased = distance_upper(Unitary(2, phase * rotation.matrix), cfg)
    assert (phased.lower, phased.upper) == pytest.approx((plain.lower, plain.upper), abs=1e-12)
    assert (plain.lower, plain.upper) == pytest.approx((0.2, 0.2), abs=1e-12)
    # a central target is the identity on the projective group
    central = distance_upper(Unitary(2, phase * np.eye(4)), cfg)
    assert (central.lower, central.upper) == (0.0, 0.0)


def test_a_determinant_error_that_unitary_admits_leaves_the_bracket_exact():
    # |det - 1| = 8e-9 is within DET_TOL, and the phase exp(4e-9 i) is central,
    # so the bracket is that of the rotation by 0.3 alone
    rotation = np.cos(0.3) * np.eye(2) - 1j * np.sin(0.3) * PauliString("X").matrix()
    target = Unitary(1, rotation * np.exp(4e-9j))
    cfg = MetricConfig(1, 2.0)
    assert distance_lower(target, cfg) == 0.3
    estimate = distance_upper(target, cfg)
    assert (estimate.lower, estimate.upper) == (0.3, 0.3)
    assert estimate.stats.endpoint_error <= 1e-15


def test_a_witness_that_reaches_its_target_reports_an_endpoint_error_at_rounding_level():
    # the witness reaches exp_coords(0.3 X, I) exp(4e-9 i) to about 1e-16 per entry;
    # the expanded distance formula read that as 2.98e-08
    rotation = exp_coords(CoeffVector.from_words(1, {"X": 0.3}), identity(1))
    target = Unitary(1, rotation.matrix * np.exp(4e-9j))
    assert distance_upper(target, MetricConfig(1, 2.0)).stats.endpoint_error <= 1e-15


@pytest.mark.parametrize("segments", [1, 8])
@pytest.mark.parametrize("n", [3, 4])
def test_bracket_holds_on_haar_random_targets_where_the_penalty_acts(n, segments):
    rng = np.random.default_rng(70 + n)
    cfg = MetricConfig(n, 2.0**n)
    for _ in range(3):
        estimate = distance_upper(haar_unitary(rng, n), cfg, segments)
        assert estimate.lower <= estimate.upper <= cfg.p * estimate.lower
        assert estimate.stats.endpoint_error <= ENDPOINT_TOL
        # every leg stays in the principal chart and passes its sandwich, as in verify
        current = identity(n)
        for row, tau in estimate.witness.segments:
            following = exp_coords(CoeffVector(n, row * tau), current)
            assert check_segment_distortion(current, following, cfg).passed
            current = following


def test_distance_upper_six_qubits_256_legs_is_fast(monkeypatch):
    # the endpoint reuses the propagator of equal legs, so 256 legs reconstruct
    # as often as one; CPU time, unlike wall time, does not grow on a busy machine
    y = random_coeffs(np.random.default_rng(5), 6, scale=0.25)
    target = exp_coords(y, identity(6))
    config = MetricConfig(6, 64.0)
    calls = []

    def counted(coefficients):
        calls.append(coefficients.n)
        return reconstruct(coefficients)

    for module in (charts, simulation):
        monkeypatch.setattr(module, "reconstruct", counted)
    distance_upper(target, config, 1)
    one_leg = len(calls)
    calls.clear()
    began = time.process_time()
    estimate = distance_upper(target, config, 256)
    elapsed = time.process_time() - began
    assert len(calls) == one_leg > 0
    assert elapsed < 3.0
    assert len(estimate.witness.segments) == 256
    assert estimate.stats.endpoint_error <= ENDPOINT_TOL
    assert estimate.upper == path_length(estimate.witness, config)


def test_distance_upper_refuses_a_witness_over_the_coefficient_limit():
    # 257 legs x 4095 words at n = 6 is 1,052,415 coefficients, just over 2**20
    with pytest.raises(ValidationError) as caught:
        distance_upper(identity(6), MetricConfig(6, 64.0), 257)
    assert str(caught.value) == ("a witness of 257 segments at n = 6 holds 1052415 coefficients; "
                                 "the limit is 1048576 coefficients")


def test_path_length_of_a_256_leg_witness_is_the_per_leg_fsum():
    # one batched PenaltyNorm call gives the same bits as one call per leg
    rng = np.random.default_rng(14)
    config = MetricConfig(3, 8.0)
    witness = distance_upper(exp_coords(random_coeffs(rng, 3, scale=0.6), identity(3)), config, 256).witness
    mixed = Schedule.from_segments(3, rng.normal(size=(256, 63)), rng.uniform(0.1, 1.0, size=256))
    norm = PenaltyNorm(config)
    for schedule in (witness, mixed):
        assert len(schedule.segments) == 256
        per_leg = math.fsum(norm(CoeffVector(3, row)) * tau for row, tau in schedule.segments)
        assert path_length(schedule, config) == per_leg
