"""Penalty-norm configuration, weights and evaluation, and the distortion constants."""

import tracemalloc

import numpy as np
import pytest

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    PenaltyNorm,
    ValidationError,
    default_penalty,
    distortion_constants,
    enumerate_basis,
    partition_k,
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


@pytest.mark.parametrize("n", [0, 7, True])
def test_config_rejects_a_qubit_count_out_of_range(n):
    with pytest.raises(ValidationError, match="qubit count"):
        MetricConfig(n, 2.0)


def test_default_penalty():
    assert default_penalty(3) == 8.0


def test_penalty_norm_weights_layout():
    cfg = MetricConfig(3, 5.0)
    w = PenaltyNorm(cfg).weights
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
    assert PenaltyNorm(cfg)(y) == pytest.approx(want, abs=1e-15)


def test_norm_reduces_to_euclidean():
    rng = np.random.default_rng(0)
    cfg = MetricConfig(3, 1.0)
    values = rng.normal(size=63)
    same = np.sqrt(np.sum(np.square(values)))
    assert PenaltyNorm(cfg)(CoeffVector(3, values)) == same


def test_norm_saturation_low_block():
    # support on weight-<=2 words only: F_p equals the Euclidean norm exactly
    cfg = MetricConfig(3, 7.0)
    values = np.zeros(63)
    values[: cfg.k] = np.random.default_rng(1).normal(size=cfg.k)
    y = CoeffVector(3, values)
    assert PenaltyNorm(cfg)(y) == y.norm


def test_norm_saturation_high_block():
    cfg = MetricConfig(3, 4.0)
    values = np.zeros(63)
    values[cfg.k :] = np.random.default_rng(2).normal(size=63 - cfg.k)
    y = CoeffVector(3, values)
    assert PenaltyNorm(cfg)(y) == 4.0 * y.norm


@pytest.mark.parametrize("p", [1.0, 2.0, 8.0])
def test_norm_sandwich_sweep(p):
    cfg = MetricConfig(3, p)
    rng = np.random.default_rng(17)
    batch = rng.normal(size=(500, 63))
    norms = PenaltyNorm(cfg)(batch)
    euclid = np.sqrt(np.sum(np.square(batch), axis=-1))
    scaled = np.sqrt(np.sum(np.square(p * batch), axis=-1))
    assert np.all(euclid <= norms)
    assert np.all(norms <= scaled)


def test_norm_batched_matches_scalar():
    cfg = MetricConfig(2, 3.0)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(8, 15))
    norm = PenaltyNorm(cfg)
    batched = norm(batch)
    assert batched.shape == (8,)
    for row, value in zip(batch, batched):
        assert norm(row) == value


def test_norm_of_a_coefficient_vector_is_a_python_float():
    cfg = MetricConfig(3, 8.0)
    norm = PenaltyNorm(cfg)
    rows = np.random.default_rng(13).normal(size=(4, 63))
    for row, batched in zip(rows, norm(rows)):
        value = norm(CoeffVector(3, row))
        assert type(value) is float
        assert value == batched == norm(row)


def test_norm_shape_error():
    with pytest.raises(ValidationError, match=r"expected last dimension 15, got shape \(14,\)"):
        PenaltyNorm(MetricConfig(2, 2.0))(np.zeros(14))


def test_penalty_norm_callable():
    cfg = MetricConfig(3, 4.0)
    norm = PenaltyNorm(cfg)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(6, 63))
    assert np.array_equal(norm(batch), np.sqrt(np.sum(np.square(norm.weights * batch), axis=-1)))
    assert norm.dimension == 63
    assert norm.penalized_mask.sum() == 63 - cfg.k
    with pytest.raises(ValidationError, match=r"expected last dimension 63, got shape \(10,\)"):
        norm(np.zeros(10))


def test_penalty_norm_allocates_one_batch_sized_temporary():
    # the scaled copy is squared in place: one (512, 4095) temporary, not two
    norm = PenaltyNorm(MetricConfig(6, 64.0))
    batch = np.random.default_rng(2).normal(size=(512, 4095))
    expected = np.sqrt(np.sum(np.square(norm.weights * batch), axis=-1))
    tracemalloc.start()
    try:
        values = norm(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, expected)
    assert peak <= 1.1 * batch.nbytes


def test_distortion_constants():
    assert distortion_constants(MetricConfig(1, 9.0)) == (1.0, 1.0)
    assert distortion_constants(MetricConfig(2, 9.0)) == (1.0, 1.0)
    assert distortion_constants(MetricConfig(3, 1.0)) == (1.0, 1.0)
    assert distortion_constants(MetricConfig(3, 4.0)) == (1.0, 4.0)

