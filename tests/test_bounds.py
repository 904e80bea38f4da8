"""Distortion sampling, sandwich checks, and count brackets."""

import warnings
import zlib

import numpy as np
import pytest
from scipy.stats import ks_2samp

from circuit_geometry import (
    BoundReport,
    CoeffVector,
    GateSequence,
    MetricConfig,
    PenaltyNorm,
    Schedule,
    ScalingReport,
    SimulationResult,
    ValidationError,
    check_segment_distortion,
    check_sim_sandwich,
    distortion_constants,
    enumerate_basis,
    estimate_distortion,
    exp_coords,
    gate_count_bounds_chart,
    gate_count_bounds_metric,
    gate_count_scaling,
    gate_product,
    identity,
    simulate,
    synthesize_gates,
)
from circuit_geometry import bounds, simulation
from util import random_coeffs


def _distortion_stream(seed):
    """The sampler's stream, built without the helper under test."""
    key = (zlib.crc32(b"distortion"),)
    return np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=key))


def _coeffs(n, words):
    values = np.zeros(4**n - 1)
    index = {str(s): i for i, s in enumerate(enumerate_basis(n))}
    for word, value in words.items():
        values[index[word]] = value
    return CoeffVector(n, values)


def test_bound_report_derives_passed():
    good = BoundReport("x", 0.0, 0.5, 1.0)
    assert good.passed
    bad = BoundReport("x", 0.0, 1.5, 1.0)
    assert not bad.passed
    # the field cannot be supplied: a constructed value is overwritten
    forced = BoundReport("x", 0.0, 1.5, 1.0, passed=True)
    assert not forced.passed


def test_bound_report_tolerance_edges():
    assert BoundReport("x", 0.0, -0.5e-9, 1.0).passed
    assert BoundReport("x", 0.0, 1.0 + 0.5e-9, 1.0).passed
    assert not BoundReport("x", 0.0, 1.0 + 1e-8, 1.0).passed


_HUGE = 10**400
_ONE_QUBIT = MetricConfig(1, 2.0)
_X_FOR_ONE = Schedule.constant(CoeffVector(1, [0.5, 0.0, 0.0]), 1.0)


@pytest.mark.parametrize("build", [
    lambda: GateSequence(1, [0], [0.1], _HUGE),
    lambda: Schedule(1, np.zeros(1), np.zeros((1, 3)), _HUGE),
    lambda: Schedule.from_segments(1, np.zeros((1, 3)), [_HUGE]),
    lambda: MetricConfig(2, _HUGE),
    lambda: simulate(_X_FOR_ONE, _ONE_QUBIT, _HUGE),
    lambda: synthesize_gates([], -_HUGE, _ONE_QUBIT),
    lambda: gate_count_scaling(_X_FOR_ONE, _ONE_QUBIT, [0.5, 0.25, _HUGE]),
    lambda: BoundReport("x", 0, _HUGE, 1),
    lambda: gate_count_bounds_chart(1.0, 0.1, 0.2, 1.0, _HUGE),
    lambda: gate_count_bounds_metric(_HUGE, 0.1, 0.2, 1.0, 2.0),
], ids=["gate-delta", "schedule-duration", "segment-tau", "penalty", "simulate-delta",
        "synthesis-delta", "scaling-width", "bound-report", "chart-count", "metric-count"])
def test_an_int_beyond_the_float_range_gets_the_documented_error(build):
    # np.isfinite raises a bare TypeError on such an int; it must read as infinite
    with pytest.raises(ValidationError, match="finite"):
        build()


def test_an_int_beyond_int64_but_inside_the_float_range_is_a_number():
    assert GateSequence(1, [0], [0.1], 10**20).delta == 1e20
    assert Schedule(1, np.zeros(1), np.zeros((1, 3)), 10**20).duration == 1e20


def test_bound_report_rejects_non_finite():
    with pytest.raises(ValidationError):
        BoundReport("x", 0.0, np.nan, 1.0)
    with pytest.raises(ValidationError):
        BoundReport("x", 0.0, 0.5, np.inf)


def test_bound_report_slack_and_dict():
    report = BoundReport("ctx", 1.0, 1.5, 2.0)
    assert report.slack == (0.5, 0.5)
    assert report.to_dict() == {
        "context": "ctx", "lower": 1.0, "observed": 1.5, "upper": 2.0, "passed": True,
    }


def test_estimate_distortion_euclidean_is_exactly_one():
    # at n <= 2 every word has weight at most 2, so F_p is the Euclidean norm
    assert estimate_distortion(PenaltyNorm(MetricConfig(2, 5.0)), 2, 2000, seed=3) == (1.0, 1.0)


def test_estimate_distortion_penalty_hits_both_extremes():
    # p = 4 is a power of two, so the block-confined draws produce the
    # exact ratios 1 and p rather than approximations
    norm = PenaltyNorm(MetricConfig(3, 4.0))
    assert estimate_distortion(norm, 3, 30000, seed=0) == (1.0, 4.0)


def test_estimate_distortion_stays_inside_envelope():
    for n, p in ((3, 2.0), (3, 8.0), (4, 3.0)):
        config = MetricConfig(n, p)
        low, high = estimate_distortion(PenaltyNorm(config), n, 4000, seed=n)
        m_exact, big_m_exact = distortion_constants(config)
        assert m_exact <= low <= high <= big_m_exact + 1e-12


def test_estimate_distortion_monotone_in_samples():
    norm = PenaltyNorm(MetricConfig(3, 2.5))
    previous = None
    for samples in (500, 1000, 2000, 4000):
        low, high = estimate_distortion(norm, 3, samples, seed=11)
        assert low <= high
        if previous is not None:
            assert low <= previous[0]
            assert high >= previous[1]
        previous = (low, high)


def test_estimate_distortion_prefix_across_chunk_boundary():
    norm = PenaltyNorm(MetricConfig(3, 2.0))
    inner = estimate_distortion(norm, 3, bounds.SAMPLE_CHUNK, seed=5)
    outer = estimate_distortion(norm, 3, bounds.SAMPLE_CHUNK + 64, seed=5)
    assert outer[0] <= inner[0]
    assert outer[1] >= inner[1]


def test_estimate_distortion_independent_of_chunk_size(monkeypatch):
    norm = PenaltyNorm(MetricConfig(3, 3.7))
    expected = estimate_distortion(norm, 3, 300, seed=5)
    monkeypatch.setattr(bounds, "SAMPLE_CHUNK", 7)
    assert estimate_distortion(norm, 3, 300, seed=5) == expected


def _reference_estimate(norm, n, samples, seed=0):
    """Gaussian oracle: normalize whole draws, stratified by ``penalized_mask``, and evaluate the norm."""
    dimension = 4**n - 1
    mask = norm.penalized_mask
    strata = [None, ~mask, mask] if mask.any() else [None]
    rng = _distortion_stream(seed)
    low = np.inf
    high = -np.inf
    produced = 0
    while produced < samples:
        count = min(512, samples - produced)
        draws = rng.standard_normal((count, dimension))
        stratum = (produced + np.arange(count)) % len(strata)
        for index, keep in enumerate(strata):
            if keep is None:
                continue
            rows = stratum == index
            if rows.any():
                draws[np.ix_(rows, ~keep)] = 0.0
        lengths = np.sqrt(np.sum(np.square(draws), axis=-1))
        if np.any(lengths == 0.0):
            raise ValidationError("degenerate zero draw; change the seed")
        ratios = norm(draws) / lengths
        low = min(low, float(np.min(ratios)))
        high = max(high, float(np.max(ratios)))
        produced += count
    return (low, high)


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_estimate_distortion_matches_the_serial_sampler_bit_for_bit(monkeypatch, n, chunk):
    # for a power-of-two p both samplers round the confined directions to
    # exactly 1 and p and keep every other ratio inside [1, p]; at n <= 2
    # every ratio is exactly 1
    monkeypatch.setattr(bounds, "SAMPLE_CHUNK", chunk)
    norm = PenaltyNorm(MetricConfig(n, 4.0))
    for samples in (3, 4, 1300):
        seed = 10 * n + samples
        expected = _reference_estimate(norm, n, samples, seed)
        assert expected == ((1.0, 4.0) if n > 2 else (1.0, 1.0))
        assert estimate_distortion(norm, n, samples, seed) == expected


def test_estimate_distortion_matches_the_gaussian_oracle_in_distribution():
    # with one sample, each estimate is the unrestricted ratio of one draw
    norm = PenaltyNorm(MetricConfig(3, 2.5))
    seeds = range(2000)
    sampled = [estimate_distortion(norm, 3, 1, seed)[0] for seed in seeds]
    oracle = [_reference_estimate(norm, 3, 1, seed)[0] for seed in seeds]
    assert ks_2samp(sampled, oracle).pvalue > 1e-3


def test_chunked_draws_fill_the_single_stream():
    # the block sums of squares are drawn in row order, so blocks of any
    # size read one stream
    shapes = [4.5, 27.0]
    whole = _distortion_stream(5).standard_gamma(shapes, size=(1300, 2))
    rng = _distortion_stream(5)
    chunked = np.concatenate([rng.standard_gamma(shapes, size=(min(512, 1300 - lo), 2))
                              for lo in range(0, 1300, 512)])
    assert np.array_equal(chunked, whole)


def test_estimate_distortion_deterministic():
    norm = PenaltyNorm(MetricConfig(3, 6.0))
    assert estimate_distortion(norm, 3, 3000, seed=2) == estimate_distortion(norm, 3, 3000, seed=2)


def test_estimate_distortion_rejects_bad_inputs(monkeypatch):
    norm = PenaltyNorm(MetricConfig(2, 2.0))
    with pytest.raises(ValidationError, match="sample count must be positive, got 0"):
        estimate_distortion(norm, 2, 0)

    # p^2 overflows to infinity: a refusal naming p, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"non-finite ratio: p = 1e\+200 is too large to sample"):
            estimate_distortion(PenaltyNorm(MetricConfig(3, 1e200)), 3, 10)

    class Zeros:
        def standard_gamma(self, shape, size):
            return np.zeros(size)

    monkeypatch.setattr(bounds, "_stream", lambda seed: Zeros())
    with pytest.raises(ValidationError, match="degenerate zero draw; change the seed"):
        estimate_distortion(norm, 2, 10)


def test_estimate_distortion_refuses_other_norms():
    def euclidean(points):
        return np.sqrt(np.sum(np.square(points), axis=-1))

    with pytest.raises(ValidationError, match="PenaltyNorm"):
        estimate_distortion(euclidean, 2, 100)


def test_estimate_distortion_refuses_a_mismatched_qubit_count():
    with pytest.raises(ValidationError, match="does not match"):
        estimate_distortion(PenaltyNorm(MetricConfig(3, 2.0)), 2, 100)


def test_segment_distortion_light_target_saturates_lower():
    config = MetricConfig(2, 5.0)
    target = exp_coords(_coeffs(2, {"XI": 0.3, "ZZ": -0.4}), identity(2))
    report = check_segment_distortion(identity(2), target, config)
    assert report.passed
    assert report.observed == report.lower  # unit weights reduce identically


def test_segment_distortion_heavy_target_saturates_upper():
    config = MetricConfig(3, 4.0)
    target = exp_coords(_coeffs(3, {"XXX": 0.2}), identity(3))
    report = check_segment_distortion(identity(3), target, config)
    assert report.passed
    assert report.observed == pytest.approx(4.0 * 0.2, abs=1e-12)
    assert report.observed == pytest.approx(report.upper, abs=1e-12)


def test_segment_distortion_random_pairs_pass():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        config = MetricConfig(n, float(rng.uniform(1.0, 9.0)))
        base = exp_coords(random_coeffs(rng, n, scale=0.6), identity(n))
        target = exp_coords(random_coeffs(rng, n, scale=0.9), base)
        report = check_segment_distortion(base, target, config)
        assert report.passed


def test_segment_distortion_qubit_mismatch():
    with pytest.raises(ValidationError, match="segment qubit count 1 does not match config 2"):
        check_segment_distortion(identity(1), identity(1), MetricConfig(2, 2.0))


def test_chart_count_bounds_collapse_when_tight():
    assert gate_count_bounds_chart(1.0, 0.1, 0.1, 1.0, 1.0) == (10.0, 10.0)


def test_chart_count_bounds_example():
    low, high = gate_count_bounds_chart(2.0, 0.1, 0.2, 1.0, 4.0)
    assert low == pytest.approx(2.5)
    assert high == pytest.approx(20.0)


def test_chart_count_bounds_positivity():
    for args, message in (((0.0, 0.1, 0.2, 1.0, 4.0), "distance must be positive and finite, got 0.0"),
                          ((1.0, -0.1, 0.2, 1.0, 4.0), "rho_inf must be positive and finite, got -0.1"),
                          ((1.0, 0.1, 0.2, 1.0, np.inf), "m_upper must be positive and finite, got inf")):
        with pytest.raises(ValidationError, match=message):
            gate_count_bounds_chart(*args)


def test_metric_count_bounds_unit_beta_lower_is_distance():
    low, high = gate_count_bounds_metric(7.0, 0.5, 1.0, 1.0, 4.0)
    assert low == 7.0
    assert high == pytest.approx(56.0)


def test_metric_count_bounds_collapse():
    low, high = gate_count_bounds_metric(3.0, 0.5, 0.5, 2.0, 2.0)
    assert low == high == pytest.approx(6.0)


def test_metric_count_bounds_positivity():
    with pytest.raises(ValidationError, match="beta_inf must be positive and finite, got 0.0"):
        gate_count_bounds_metric(1.0, 0.0, 1.0, 1.0, 4.0)


def test_sim_sandwich_uniform_angles_saturate_lower():
    config = MetricConfig(1, 2.0)
    schedule = Schedule.constant(_coeffs(1, {"X": 0.5}), 1.0)
    result = simulate(schedule, config, 0.5)
    report = check_sim_sandwich(result, config)
    assert report.passed
    # every angle is 0.5 * 0.25 = 2^-3, so the sum is exact
    assert report.lower == report.observed == 0.5
    assert report.upper == 1.0


def test_sim_sandwich_generic_schedule_passes():
    rng = np.random.default_rng(4)
    config = MetricConfig(3, 8.0)
    rows = rng.uniform(-0.8, 0.8, size=(3, 63))
    schedule = Schedule(3, np.array([0.0, 0.4, 0.7]), rows, 1.0)
    result = simulate(schedule, config, 0.2)
    assert check_sim_sandwich(result, config).passed


def test_sim_sandwich_flags_fabricated_length():
    config = MetricConfig(1, 2.0)
    sequence = GateSequence(1, [0], [0.125], 0.5)  # position 0 is X
    endpoint = gate_product(sequence)
    result = SimulationResult(sequence, endpoint, 99.0, 0.0, 0.125, 0.125)
    report = check_sim_sandwich(result, config)
    assert not report.passed
    assert report.observed == 99.0


def test_scaling_single_term_counts_are_exact():
    config = MetricConfig(1, 1.0)
    schedule = Schedule.constant(_coeffs(1, {"X": 0.5}), 1.0)
    report = gate_count_scaling(schedule, config, (0.2, 0.1, 0.05))
    assert report.gate_counts == (25, 100, 400)
    assert report.slope == pytest.approx(2.0, abs=1e-12)
    assert report.residual < 1e-12


def test_scaling_commuting_schedule_same_slope():
    config = MetricConfig(2, 1.0)
    schedule = Schedule.constant(_coeffs(2, {"XI": 0.3, "IZ": 0.4}), 1.0)
    report = gate_count_scaling(schedule, config, (0.2, 0.1, 0.05))
    assert report.gate_counts == (50, 200, 800)
    assert report.slope == pytest.approx(2.0, abs=1e-12)


def test_scaling_forms_no_products_or_endpoints(monkeypatch):
    config = MetricConfig(3, 8.0)
    schedule = Schedule.constant(_coeffs(3, {"XII": 0.3, "IZZ": -0.4, "XXX": 0.5}), 1.0)
    deltas = (0.2, 0.1, 0.05)
    expected = tuple(simulate(schedule, config, d).gate_count for d in deltas)
    calls = []
    monkeypatch.setattr(simulation, "gate_product", lambda *args: calls.append("gate_product"))
    monkeypatch.setattr(simulation, "schedule_endpoint", lambda *args: calls.append("schedule_endpoint"))
    assert gate_count_scaling(schedule, config, deltas).gate_counts == expected
    assert calls == []


def test_scaling_report_is_plain_data():
    config = MetricConfig(1, 1.0)
    schedule = Schedule.constant(_coeffs(1, {"X": 0.5}), 1.0)
    report = gate_count_scaling(schedule, config, [0.4, 0.2, 0.1])
    assert isinstance(report, ScalingReport)
    assert report.deltas == (0.4, 0.2, 0.1)
    assert len(report.gate_counts) == 3


def test_scaling_input_validation():
    config = MetricConfig(1, 1.0)
    schedule = Schedule.constant(_coeffs(1, {"X": 0.5}), 1.0)
    with pytest.raises(ValidationError, match="at least three slice widths are required, got 2"):
        gate_count_scaling(schedule, config, (0.2, 0.1))
    with pytest.raises(ValidationError, match="slice widths span a factor of 2.000; at least 4.0 is required"):
        gate_count_scaling(schedule, config, (0.2, 0.15, 0.1))
    with pytest.raises(ValidationError, match="slice widths must be positive and finite, got -0.1"):
        gate_count_scaling(schedule, config, (0.2, -0.1, 0.05))


def test_scaling_zero_schedule_rejected():
    config = MetricConfig(1, 1.0)
    schedule = Schedule.constant(CoeffVector.zeros(1), 1.0)
    with pytest.raises(ValidationError, match="schedule synthesizes to zero gates; nothing to fit"):
        gate_count_scaling(schedule, config, (0.2, 0.1, 0.05))
