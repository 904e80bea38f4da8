"""Exponential chart, principal logarithm, and chart segment lengths."""

import numpy as np
import pytest

from circuit_geometry import (
    BranchCutError,
    ChartPoint,
    CoeffVector,
    DomainError,
    PauliString,
    Unitary,
    ValidationError,
    chart_segment_rho,
    exp_coords,
    identity,
    log_coords,
    phase_aligned_frobenius,
    unitary_exp,
)
from util import haar_unitary, random_coeffs, random_traceless_hermitian


def test_unitary_validation():
    with pytest.raises(ValidationError):
        Unitary(1, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        Unitary(1, np.diag([np.exp(0.3j), 1.0]))  # unitary but det != 1
    with pytest.raises(ValidationError):
        Unitary(2, np.eye(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            Unitary(1, np.diag([bad, 1.0]))


def test_unitary_immutable_and_dagger():
    u = identity(1)
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 0.0
    v = haar_unitary(np.random.default_rng(0), 1)
    assert np.allclose(v.dagger().matrix @ v.matrix, np.eye(2), atol=1e-12)


def test_unitary_exp_oracle():
    theta = 0.37
    got = unitary_exp(PauliString("X").matrix(), theta)
    want = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * PauliString("X").matrix()
    assert np.max(np.abs(got - want)) < 1e-14


def test_unitary_exp_stays_unitary():
    rng = np.random.default_rng(3)
    h = random_traceless_hermitian(rng, 3)
    u = unitary_exp(h, 2.5)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_exp_coords_translates_base():
    rng = np.random.default_rng(4)
    y = random_coeffs(rng, 2, scale=0.8)
    base = haar_unitary(rng, 2)
    moved = exp_coords(y, base)
    at_identity = exp_coords(y, identity(2))
    assert np.max(np.abs(moved.matrix - at_identity.matrix @ base.matrix)) < 1e-12


def test_exp_coords_qubit_mismatch():
    with pytest.raises(DomainError):
        exp_coords(CoeffVector.zeros(1), identity(2))


def test_log_at_base_is_zero():
    base = haar_unitary(np.random.default_rng(5), 2)
    y = log_coords(base, base)
    assert y.norm < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_round_trip(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(25):
        y = random_coeffs(rng, n, scale=rng.uniform(0.05, 1.0))
        base = haar_unitary(rng, n)
        back = log_coords(exp_coords(y, base), base)
        assert np.max(np.abs(back.values - y.values)) < 1e-9


def test_log_coords_branch_cut():
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    u = Unitary(2, np.diag(np.exp(-1j * phases)))
    with pytest.raises(BranchCutError):
        log_coords(u, identity(2))


def test_log_coords_global_phase_obstruction():
    # i*I is in SU(4) but is not exp(-i K) for any traceless Hermitian K
    # with eigenphases on the principal branch
    u = Unitary(2, 1j * np.eye(4))
    with pytest.raises(ValidationError):
        log_coords(u, identity(2))


def test_log_coords_qubit_mismatch():
    with pytest.raises(DomainError):
        log_coords(identity(1), identity(2))


def test_segment_rho_matches_coordinates():
    rng = np.random.default_rng(6)
    base = haar_unitary(rng, 2)
    y = random_coeffs(rng, 2, scale=0.6)
    target = exp_coords(y, base)
    assert abs(chart_segment_rho(base, target) - y.norm) < 1e-12


def test_segment_rho_right_invariant():
    rng = np.random.default_rng(8)
    a = haar_unitary(rng, 2)
    b = exp_coords(random_coeffs(rng, 2, scale=0.5), a)
    v = haar_unitary(rng, 2)
    before = chart_segment_rho(a, b)
    after = chart_segment_rho(
        Unitary(2, a.matrix @ v.matrix), Unitary(2, b.matrix @ v.matrix)
    )
    assert abs(before - after) < 1e-9


def test_chart_point_radius():
    big = CoeffVector(1, np.array([np.pi, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        ChartPoint(identity(1), big)


def test_chart_point_round_trip():
    rng = np.random.default_rng(9)
    base = haar_unitary(rng, 2)
    x = exp_coords(random_coeffs(rng, 2, scale=0.7), base)
    point = ChartPoint.from_group_point(base, x)
    assert np.max(np.abs(point.to_group_point().matrix - x.matrix)) < 1e-10


def test_phase_aligned_frobenius():
    rng = np.random.default_rng(10)
    u = haar_unitary(rng, 2).matrix
    assert phase_aligned_frobenius(u, u) < 1e-12
    assert phase_aligned_frobenius(u, np.exp(0.73j) * u) < 1e-6
    v = haar_unitary(rng, 2).matrix
    assert phase_aligned_frobenius(u, v) > 0.1
    assert abs(phase_aligned_frobenius(u, v) - phase_aligned_frobenius(v, u)) < 1e-12


def test_phase_aligned_frobenius_propagates_nan():
    # a NaN endpoint must never read as distance 0, i.e. as reaching the target
    nan = np.full((2, 2), np.nan)
    assert np.isnan(phase_aligned_frobenius(nan, np.eye(2)))
    assert np.isnan(phase_aligned_frobenius(np.eye(2), nan))
    stacked = phase_aligned_frobenius(np.stack([np.eye(2), nan, np.eye(2)]), np.eye(2))
    assert stacked[0] == 0.0 and stacked[2] == 0.0
    assert np.isnan(stacked[1])
