"""Penalty norm, distortion constants, and empirical Minkowski-norm checks."""

import numpy as np
import pytest

from circuit_geometry import (
    CoeffVector,
    DomainError,
    EvaluationError,
    MetricConfig,
    PenaltyNorm,
    ValidationError,
    check_finsler_properties,
    default_penalty,
    distortion_constants,
    enumerate_basis,
    half_square_hessian,
    minkowski_norm,
    partition_k,
    penalty_weights,
)


def test_config_derives_partition():
    cfg = MetricConfig(3, 4.0)
    assert cfg.k == 36


def test_config_rejects_bad_penalty():
    with pytest.raises(ValidationError):
        MetricConfig(2, 0.5)
    with pytest.raises(ValidationError):
        MetricConfig(2, np.inf)
    MetricConfig(2, 1.0)  # boundary value is allowed


def test_default_penalty():
    assert default_penalty(3) == 8.0


def test_penalty_weights_layout():
    cfg = MetricConfig(3, 5.0)
    w = penalty_weights(cfg)
    k = partition_k(3)
    assert np.all(w[:k] == 1.0)
    assert np.all(w[k:] == 5.0)


def test_norm_hand_computed():
    cfg = MetricConfig(3, 3.0)
    basis = {str(s): i for i, s in enumerate(enumerate_basis(3))}
    values = np.zeros(63)
    values[basis["XII"]] = 0.6   # weight 1
    values[basis["XXX"]] = 0.8   # weight 3, penalized
    y = CoeffVector(3, values)
    want = np.sqrt(0.6**2 + 9.0 * 0.8**2)
    assert minkowski_norm(y, cfg) == pytest.approx(want, abs=1e-15)


def test_norm_reduces_to_euclidean():
    rng = np.random.default_rng(0)
    cfg = MetricConfig(3, 1.0)
    values = rng.normal(size=63)
    same = np.sqrt(np.sum(np.square(values)))
    assert minkowski_norm(CoeffVector(3, values), cfg) == same


def test_norm_saturation_low_block():
    # support on weight-<=2 words only: F_p equals the Euclidean norm exactly
    cfg = MetricConfig(3, 7.0)
    values = np.zeros(63)
    values[: cfg.k] = np.random.default_rng(1).normal(size=cfg.k)
    y = CoeffVector(3, values)
    assert minkowski_norm(y, cfg) == y.norm


def test_norm_saturation_high_block():
    cfg = MetricConfig(3, 4.0)
    values = np.zeros(63)
    values[cfg.k :] = np.random.default_rng(2).normal(size=63 - cfg.k)
    y = CoeffVector(3, values)
    assert minkowski_norm(y, cfg) == 4.0 * y.norm


@pytest.mark.parametrize("p", [1.0, 2.0, 8.0])
def test_norm_sandwich_sweep(p):
    cfg = MetricConfig(3, p)
    rng = np.random.default_rng(17)
    batch = rng.normal(size=(500, 63))
    norms = minkowski_norm(batch, cfg)
    euclid = np.sqrt(np.sum(np.square(batch), axis=-1))
    scaled = np.sqrt(np.sum(np.square(p * batch), axis=-1))
    assert np.all(euclid <= norms)
    assert np.all(norms <= scaled)


def test_norm_batched_matches_scalar():
    cfg = MetricConfig(2, 3.0)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(8, 15))
    batched = minkowski_norm(batch, cfg)
    assert batched.shape == (8,)
    for row, value in zip(batch, batched):
        assert minkowski_norm(row, cfg) == value


def test_norm_shape_error():
    with pytest.raises(DomainError):
        minkowski_norm(np.zeros(14), MetricConfig(2, 2.0))


def test_penalty_norm_callable():
    cfg = MetricConfig(3, 4.0)
    norm = PenaltyNorm(cfg)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(6, 63))
    assert np.array_equal(norm(batch), minkowski_norm(batch, cfg))
    assert norm.dimension == 63
    assert norm.penalized_mask.sum() == 63 - cfg.k
    with pytest.raises(DomainError):
        norm(np.zeros(10))


def test_distortion_constants():
    assert distortion_constants(MetricConfig(1, 9.0)) == (1.0, 1.0)
    assert distortion_constants(MetricConfig(2, 9.0)) == (1.0, 1.0)
    assert distortion_constants(MetricConfig(3, 1.0)) == (1.0, 1.0)
    assert distortion_constants(MetricConfig(3, 4.0)) == (1.0, 4.0)


def _euclidean(values):
    return np.sqrt(np.sum(np.square(values), axis=-1))


def test_hessian_euclidean_is_identity():
    rng = np.random.default_rng(6)
    point = rng.normal(size=15)
    h = half_square_hessian(_euclidean, point)
    assert np.max(np.abs(h - np.eye(15))) < 5e-6


def test_hessian_penalty_norm_is_diagonal():
    cfg = MetricConfig(3, 4.0)
    norm = PenaltyNorm(cfg)
    rng = np.random.default_rng(7)
    point = rng.normal(size=63)
    h = half_square_hessian(norm, point)
    assert np.max(np.abs(h - np.diag(norm.weights**2))) < 1e-4


def test_finsler_checks_pass_for_penalty_norm():
    cfg = MetricConfig(2, 8.0)
    norm = PenaltyNorm(cfg)
    rng = np.random.default_rng(8)
    points = [CoeffVector(2, rng.normal(size=15)) for _ in range(10)]
    report = check_finsler_properties(norm, 2, points)
    assert report.all_pass
    assert report.min_hessian_eigenvalue > 0.9  # smallest weight is 1


def test_finsler_checks_pass_for_euclidean():
    rng = np.random.default_rng(9)
    points = [rng.normal(size=15) for _ in range(5)]
    report = check_finsler_properties(_euclidean, 2, points)
    assert report.all_pass


def test_finsler_checks_fail_for_one_norm():
    # sum of absolute values: homogeneous and piecewise smooth, but the
    # Hessian of its half square is the rank-1 outer product of signs
    rng = np.random.default_rng(10)
    points = [rng.normal(size=15) for _ in range(5)]
    report = check_finsler_properties(lambda v: np.sum(np.abs(v), axis=-1), 2, points)
    assert not report.hessian_pass
    assert not report.all_pass
    assert report.homogeneity_pass


def test_finsler_checks_fail_for_inhomogeneous():
    rng = np.random.default_rng(11)
    points = [rng.normal(size=15) for _ in range(3)]
    report = check_finsler_properties(lambda v: _euclidean(v) + 0.1, 2, points)
    assert not report.homogeneity_pass


def test_finsler_scalar_only_norm_fallback():
    # a callable that rejects batches exercises the row-by-row fallback
    def scalar_norm(values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise TypeError("scalar only")
        return float(np.sqrt(np.sum(np.square(values))))

    rng = np.random.default_rng(12)
    points = [rng.normal(size=3) for _ in range(3)]
    report = check_finsler_properties(scalar_norm, 1, points)
    assert report.all_pass


def test_finsler_propagates_batched_failure():
    # only a batch the norm rejects (TypeError or ValueError) is retried row by row
    def broken(values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise RuntimeError("broken norm")
        return float(np.sqrt(np.sum(np.square(values))))

    with pytest.raises(RuntimeError, match="broken norm"):
        check_finsler_properties(broken, 1, [np.ones(3)])


def test_finsler_rejects_zero_point():
    with pytest.raises(DomainError):
        check_finsler_properties(_euclidean, 1, [np.zeros(3)])
    with pytest.raises(DomainError):
        check_finsler_properties(_euclidean, 1, [])


def test_finsler_non_finite_norm():
    with pytest.raises(EvaluationError):
        check_finsler_properties(lambda v: np.full(np.asarray(v).shape[0], np.nan), 1,
                                 [np.ones(3)])
