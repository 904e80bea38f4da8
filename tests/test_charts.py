"""Exponential chart, principal logarithm, and chart segment lengths."""

import numpy as np
import pytest
import scipy.linalg

from circuit_geometry import (
    CoeffVector,
    Unitary,
    ValidationError,
    decompose,
    exp_coords,
    identity,
    log_coords,
    phase_aligned_frobenius,
    unitary_exp,
)
from circuit_geometry.charts import ROUNDTRIP_TOL
from util import haar_unitary, random_coeffs, random_traceless_hermitian, word_matrix


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


def test_unitary_immutable():
    u = identity(1)
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 0.0
    v = haar_unitary(np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        v.matrix[0, 1] = 0.0


def test_unitary_exp_oracle():
    theta = 0.37
    got = unitary_exp(word_matrix("X"), theta)
    want = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * word_matrix("X")
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
    with pytest.raises(ValidationError, match="coordinate qubit count 1 does not match base 2"):
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


def _schur_log(x, base):
    """Principal chart coordinates from a complex Schur form, as an oracle."""
    dim = 2**x.n
    triangular, frame = scipy.linalg.schur(x.matrix @ base.matrix.conj().T, output="complex")
    generator = (frame * -np.angle(np.diag(triangular))) @ frame.conj().T
    return decompose(generator - np.trace(generator).real / dim * np.eye(dim), x.n)


def _first_qubit(n, a, b):
    """``a X I..I + b Z I..I``: two eigenvalues, each 2^(n-1)-fold degenerate."""
    one = a * word_matrix("X") + b * word_matrix("Z")
    return np.kron(one, np.eye(2 ** (n - 1)))


def _hard_logarithm_inputs(n):
    """(point, base) pairs where ``eig`` is weakest: degenerate spectra,
    eigenphases near the branch cut, and rotations near the identity."""
    rng = np.random.default_rng(60 + n)
    dim = 2**n
    cases = []
    for a, b in ((3.0, 0.5), (0.7, -1.1), (1e-3, 2.0)):
        v = haar_unitary(rng, n).matrix
        base = haar_unitary(rng, n)
        rotation = v @ unitary_exp(_first_qubit(n, a, b)) @ v.conj().T
        cases.append((Unitary(n, rotation @ base.matrix), base))
    for gap in (1e-7, 3e-8):
        half = rng.uniform(-np.pi / 2, np.pi / 2, size=dim // 2)
        half[0] = np.pi - gap
        phases = np.concatenate([half, -half])
        v = haar_unitary(rng, n).matrix
        base = haar_unitary(rng, n)
        point = (v * np.exp(-1j * phases)) @ v.conj().T @ base.matrix
        cases.append((Unitary(n, point), base))
    base = haar_unitary(rng, n)
    cases.append((exp_coords(random_coeffs(rng, n, scale=1e-12), base), base))
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_log_coords_matches_a_schur_oracle_where_eig_is_weakest(n):
    for x, base in _hard_logarithm_inputs(n):
        y = log_coords(x, base)
        assert np.max(np.abs(exp_coords(y, base).matrix - x.matrix)) <= ROUNDTRIP_TOL
        assert np.max(np.abs(y.values - _schur_log(x, base).values)) <= 1e-12


def test_log_coords_branch_cut():
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    u = Unitary(2, np.diag(np.exp(-1j * phases)))
    with pytest.raises(ValidationError, match="of -1; the principal logarithm is not defined here"):
        log_coords(u, identity(2))


def test_log_coords_global_phase_obstruction():
    # i*I is in SU(4) but is not exp(-i K) for any traceless Hermitian K
    # with eigenphases on the principal branch
    u = Unitary(2, 1j * np.eye(4))
    with pytest.raises(ValidationError):
        log_coords(u, identity(2))


def test_log_coords_qubit_mismatch():
    with pytest.raises(ValidationError, match="point qubit count 1 does not match base 2"):
        log_coords(identity(1), identity(2))


def test_segment_rho_matches_coordinates():
    rng = np.random.default_rng(6)
    base = haar_unitary(rng, 2)
    y = random_coeffs(rng, 2, scale=0.6)
    target = exp_coords(y, base)
    assert abs(log_coords(target, base).norm - y.norm) < 1e-12


def test_segment_rho_right_invariant():
    rng = np.random.default_rng(8)
    a = haar_unitary(rng, 2)
    b = exp_coords(random_coeffs(rng, 2, scale=0.5), a)
    v = haar_unitary(rng, 2)
    before = log_coords(b, a).norm
    after = log_coords(Unitary(2, b.matrix @ v.matrix), Unitary(2, a.matrix @ v.matrix)).norm
    assert abs(before - after) < 1e-9


def test_phase_aligned_frobenius():
    rng = np.random.default_rng(10)
    u = haar_unitary(rng, 2).matrix
    assert phase_aligned_frobenius(u, u) < 1e-12
    assert phase_aligned_frobenius(u, np.exp(0.73j) * u) < 1e-6
    v = haar_unitary(rng, 2).matrix
    assert phase_aligned_frobenius(u, v) > 0.1
    assert abs(phase_aligned_frobenius(u, v) - phase_aligned_frobenius(v, u)) < 1e-12


def test_phase_aligned_frobenius_keeps_the_digits_of_a_small_distance():
    # ||exp(-i t X) - I||_F is 2 sqrt(2) sin(t / 2) once aligned; the expansion
    # |a|^2 + |b|^2 - 2|tr a^dagger b| would leave only rounding at t = 1e-9
    for t in (1e-9, 1e-5, 0.3):
        rotation = np.cos(t) * np.eye(2) - 1j * np.sin(t) * word_matrix("X")
        want = 2.0 * np.sqrt(2.0) * np.sin(t / 2.0)
        assert phase_aligned_frobenius(rotation, np.eye(2)) == pytest.approx(want, rel=1e-12)
    # a zero trace leaves every phase optimal: the distance is sqrt(|a|^2 + |b|^2)
    x, z = word_matrix("X"), word_matrix("Z")
    assert phase_aligned_frobenius(x, z) == 2.0


def test_phase_aligned_frobenius_propagates_nan():
    # a NaN endpoint must never read as distance 0, i.e. as reaching the target
    nan = np.full((2, 2), np.nan)
    assert np.isnan(phase_aligned_frobenius(nan, np.eye(2)))
    assert np.isnan(phase_aligned_frobenius(np.eye(2), nan))
