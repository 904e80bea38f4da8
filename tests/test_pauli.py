"""Pauli basis enumeration, ordering, and decomposition."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuit_geometry import (
    CoeffVector,
    ValidationError,
    decompose,
    partition_k,
    reconstruct,
    weight_vector,
    word_actions,
)
from circuit_geometry.pauli import LETTERS, _phase_grid, _words
from util import dense_basis, dense_decompose, dense_reconstruct, random_traceless_hermitian, word_matrix


def test_partition_formula_exact():
    assert [partition_k(n) for n in range(1, 6)] == [3, 15, 36, 66, 105]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partition_matches_enumeration(n):
    letters, _, _, weight = _words(n)
    assert len(letters) == weight.size == 4**n - 1
    assert np.count_nonzero(weight <= 2) == partition_k(n)
    # the weight-<=2 block is contiguous at the front
    k = partition_k(n)
    assert np.all(weight[:k] <= 2)
    assert np.all(weight[k:] >= 3)


def _weight(letters):
    return sum(1 for c in letters if c != "I")


def _index(letters):
    """Base-4 value of a word, qubit 0 most significant, I X Y Z as digits 0..3."""
    return int("".join(str(LETTERS.index(c)) for c in letters), 4)


def test_canonical_order():
    letters = _words(2)[0]
    assert letters[:6] == ("IX", "IY", "IZ", "XI", "YI", "ZI")
    keys = [(_weight(w), _index(w)) for w in letters]
    assert keys == sorted(keys)
    # no duplicates, identity excluded
    assert len(set(letters)) == 15
    assert "II" not in letters


def test_string_properties():
    # the row of "XZI" in the word table: weight 2; X sets the x bit of qubit 0
    # (most significant), Z the z bit of qubit 1
    letters, x, z, weight = _words(3)
    row = letters.index("XZI")
    assert (weight[row], x[row], z[row]) == (2, 0b100, 0b010)
    assert _index("XZI") == 1 * 16 + 3 * 4 + 0


def test_matrices_are_involutory_traceless_hermitian():
    for letters in _words(2)[0]:
        m = word_matrix(letters)
        assert np.allclose(m @ m, np.eye(4))
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m)) < 1e-14


def test_orthogonality_under_trace():
    stack = dense_basis(2)
    gram = np.einsum("aij,bji->ab", stack, stack).real
    assert np.allclose(gram, 4.0 * np.eye(15))


def test_weight_vector_matches_basis():
    assert list(weight_vector(2)) == [_weight(w) for w in _words(2)[0]]


@pytest.mark.parametrize("n", range(1, 7))
def test_word_table_follows_the_letter_definition(n):
    words = ["".join(t) for t in product(LETTERS, repeat=n) if set(t) != {"I"}]
    words.sort(key=lambda w: (_weight(w), _index(w)))
    letters, x, z, weight = _words(n)
    assert letters == tuple(words)
    assert weight.tolist() == [_weight(w) for w in words]
    # X sets the x bit, Z the z bit, Y both; qubit 0 is the most significant bit
    assert x.tolist() == [int("".join("01"[c in "XY"] for c in w), 2) for w in words]
    assert z.tolist() == [int("".join("01"[c in "YZ"] for c in w), 2) for w in words]


@pytest.mark.parametrize("n", range(1, 7))
def test_phase_grid_follows_the_popcount_formula(n):
    grid = _phase_grid(n)
    triples = product(range(2**n), repeat=3) if n <= 4 else np.random.default_rng(n).integers(2**n, size=(2000, 3))
    for x, z, r in triples:
        x, z, r = int(x), int(z), int(r)
        power = bin(x & z).count("1") + 2 * bin((r ^ x) & z).count("1")
        assert grid[x, z, r] == [1, 1j, -1, -1j][power % 4]


def test_word_actions_read_only():
    source, phase = word_actions(1)
    with pytest.raises(ValueError):
        source[0, 0] = 1
    with pytest.raises(ValueError):
        phase[0, 0] = 5.0


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_qubit_count_domain(n):
    weight_vector(n)  # in range: no error
    with pytest.raises(ValidationError, match="qubit count must be between 1 and 6, got 0"):
        weight_vector(0)
    with pytest.raises(ValidationError, match="qubit count must be between 1 and 6, got 7"):
        weight_vector(7)


def test_decompose_single_word():
    x = word_matrix("X")
    y = decompose(x, 1)
    assert list(y.values) == [1.0, 0.0, 0.0]


def test_decompose_known_combination():
    letters = _words(2)[0]
    h = 0.7 * word_matrix("XZ") + 0.2 * word_matrix("IY")
    y = decompose(h, 2)
    expected = np.zeros(15)
    expected[letters.index("XZ")] = 0.7
    expected[letters.index("IY")] = 0.2
    assert np.allclose(y.values, expected, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_decompose_refuses_non_finite_entries(bad):
    # a NaN passes both tolerance checks, since every comparison with it is False
    h = word_matrix("XZ")
    h[0, 1] = bad
    with pytest.raises(ValidationError, match="matrix has non-finite entries"):
        decompose(h, 2)


def test_decompose_is_linear():
    rng = np.random.default_rng(11)
    a = random_traceless_hermitian(rng, 2)
    b = random_traceless_hermitian(rng, 2)
    ya = decompose(a, 2).values
    yb = decompose(b, 2).values
    yab = decompose(2.0 * a - 0.5 * b, 2).values
    assert np.allclose(yab, 2.0 * ya - 0.5 * yb, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_sweep(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        h = random_traceless_hermitian(rng, n)
        again = reconstruct(decompose(h, n))
        assert np.max(np.abs(again - h)) < 1e-10


# a fence for the transforms at the sizes the dense oracle reaches only by example
@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([5, 6]), seed=st.integers(0, 2**32 - 1))
def test_round_trips_at_five_and_six_qubits(n, seed):
    rng = np.random.default_rng(seed)
    y = CoeffVector(n, rng.normal(size=4**n - 1))
    assert np.max(np.abs(decompose(reconstruct(y), n).values - y.values)) <= 1e-13
    h = random_traceless_hermitian(rng, n)
    assert np.max(np.abs(reconstruct(decompose(h, n)) - h)) <= 1e-13


def test_coords_round_trip_is_identity():
    rng = np.random.default_rng(7)
    y = CoeffVector(2, rng.normal(size=15))
    back = decompose(reconstruct(y), 2)
    assert np.allclose(back.values, y.values, atol=1e-13)


def test_decompose_rejects_identity_component():
    with pytest.raises(ValidationError, match="matrix has a nonzero identity component"):
        decompose(np.eye(2), 1)


def test_decompose_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        decompose(bad, 1)


def test_decompose_rejects_wrong_shape():
    with pytest.raises(ValidationError, match=r"expected a \(4, 4\) matrix for n=2, got shape \(2, 2\)"):
        decompose(np.zeros((2, 2)), 2)


def test_coeff_vector_validation():
    with pytest.raises(ValidationError):
        CoeffVector(1, np.zeros(4))
    with pytest.raises(ValidationError):
        CoeffVector(1, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValidationError, match="qubit count must be between 1 and 6, got 0"):
        CoeffVector(0, np.zeros(0))


def test_coeff_vector_immutable():
    y = CoeffVector(1, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        y.values[0] = 9.0


def test_coeff_vector_norm_and_zeros():
    y = CoeffVector(1, np.array([3.0, 4.0, 0.0]))
    assert y.norm == 5.0
    assert CoeffVector.zeros(2).norm == 0.0


def test_words_round_trip():
    y = CoeffVector.from_words(2, {"XZ": 0.5, "IY": -1.25})
    words = y.to_words()
    assert words == {"IY": -1.25, "XZ": 0.5}


def test_from_words_rejects_overflow():
    with pytest.raises(ValidationError, match="too large"):
        CoeffVector.from_words(1, {"X": 10**400})


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_from_words_names_the_word_of_a_non_finite_coefficient(value):
    with pytest.raises(ValidationError) as caught:
        CoeffVector.from_words(1, {"Z": 0.1, "X": value})
    assert str(caught.value) == f"coefficient for 'X' must be finite, got {value}"


def test_from_words_rejects_unknown():
    with pytest.raises(ValidationError):
        CoeffVector.from_words(2, {"XQ": 1.0})
    with pytest.raises(ValidationError):
        CoeffVector.from_words(2, {"II": 1.0})
    with pytest.raises(ValidationError):
        CoeffVector.from_words(2, {"X": 1.0})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_word_actions_reproduce_dense_words(n):
    # sigma_k @ S == phase[k][:, None] * S[source[k]], bit for bit
    source, phase = word_actions(n)
    stack = dense_basis(n)
    rng = np.random.default_rng(n)
    s = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    eye = np.eye(2**n, dtype=complex)
    for k in range(len(stack)):
        assert np.array_equal(phase[k][:, None] * eye[source[k]], stack[k])
        assert np.array_equal(phase[k][:, None] * s[source[k]], stack[k] @ s)


# the n = 6 oracle takes about 1.5 s (4095 dense words): run it on fixed examples only
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=6, sparse=False, seed=6)
@example(n=6, sparse=True, seed=7)
def test_reconstruct_and_decompose_match_dense_oracle(n, sparse, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=4**n - 1)
    if sparse:
        values[rng.random(values.size) < 0.9] = 0.0
    h = dense_reconstruct(values, n)
    assert np.max(np.abs(reconstruct(CoeffVector(n, values)) - h)) <= 1e-12
    assert np.max(np.abs(decompose(h, n).values - dense_decompose(h, n))) <= 1e-12
    assert np.max(np.abs(decompose(h, n).values - values)) <= 1e-12
