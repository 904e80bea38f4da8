"""Generalized Pauli basis on n qubits.

The non-identity tensor words over {I, X, Y, Z} form an orthogonal basis
(under the trace inner product) of the traceless Hermitian matrices on
2^n dimensions.  Everything downstream -- tangent coordinates, penalty
norms, gate synthesis -- is expressed in this basis, so a single canonical
ordering is fixed here: words sort by weight (number of non-identity
factors) ascending, ties broken by base-4 index with qubit 0 as the most
significant digit and I, X, Y, Z mapping to digits 0..3.  Under this
ordering the weight-at-most-2 words occupy a contiguous leading block of
size ``partition_k(n)``.

No word is held as a dense matrix.  A word is a pair of n-bit masks
``(x, z)`` (the symplectic form of Aaronson-Gottesman, quant-ph/0406196),
with qubit 0 as the most significant bit: X sets the x bit, Z the z bit,
Y both.  It maps a basis state to one basis state times a phase,
``sigma |c> = i^#Y (-1)^popcount(c & z) |c ^ x>``, so ``sigma @ S`` is a
row gather of ``S`` times a phase per row (:func:`word_actions`), and
decompose and reconstruct are gathers and scatters grouped by the x mask
(as in Hantzko-Binkowski-Gupta, arXiv:2310.13421).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

LETTERS = "IXYZ"

#: Largest supported qubit count.  Unitaries and Hamiltonians are dense
#: (2^n, 2^n) matrices, and the word tables cached here hold 8^n entries:
#: 10.5 MB at n = 6, built in 9 ms on a 2-core Xeon VM.  Each further
#: qubit multiplies them, and decompose and reconstruct, by eight.
MAX_QUBITS = 6

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10


def _check_qubit_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"qubit count must be an integer, got {n!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"qubit count must be between 1 and {MAX_QUBITS}, got {n}")


def _as_float(value) -> float:
    """``float(value)``, with an int beyond the float range read as the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _positive(value, what: str) -> float:
    """``_as_float(value)`` when it is positive and finite; ``ValidationError`` naming ``what`` otherwise."""
    value = _as_float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be positive and finite, got {value}")
    return value


@lru_cache(maxsize=None)
def _words(n: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """``(letters, x, z, weight)`` of the basis words in canonical order: the base-4 digits of
    1..4^n - 1, qubit 0 most significant, stably sorted by weight.  The arrays are read-only."""
    _check_qubit_count(n)
    digits = (np.arange(1, 4**n)[:, None] >> np.arange(2 * n - 2, -1, -2)) & 3
    weight = np.count_nonzero(digits, axis=1)
    order = np.argsort(weight, kind="stable")
    digits, weight = digits[order], weight[order]
    bits = 1 << np.arange(n - 1, -1, -1)
    x = ((digits == 1) | (digits == 2)) @ bits
    z = (digits >= 2) @ bits
    codes = np.frombuffer(LETTERS.encode(), dtype=np.uint8)[digits]
    letters = tuple(codes.view(f"S{n}")[:, 0].astype(f"U{n}").tolist())
    for table in (x, z, weight):
        table.flags.writeable = False
    return letters, x, z, weight


def partition_k(n: int) -> int:
    """Number of weight-at-most-2 basis words: 9 n (n - 1) / 2 + 3 n.

    There are 3n single-qubit words and 9 n(n-1)/2 two-qubit words (nine
    letter pairs per unordered qubit pair).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"qubit count must be a positive integer, got {n!r}")
    return 9 * (n * n - n) // 2 + 3 * n


#: ``i^k`` for ``k = 0..3``.
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=None)
def _phase_grid(n: int) -> np.ndarray:
    """Read-only (2^n, 2^n, 2^n) table of row phases, indexed ``[x, z, r]``.

    Row ``r`` of the word with masks ``(x, z)`` holds one nonzero, in
    column ``r ^ x``: ``i^popcount(x & z) (-1)^popcount((r ^ x) & z)``.
    """
    _check_qubit_count(n)
    masks = np.arange(2**n, dtype=np.uint8)  # the popcount sums below stay under 256
    popcount = sum((masks >> bit) & 1 for bit in range(n))
    x, z, r = masks[:, None, None], masks[None, :, None], masks[None, None, :]
    grid = _POWERS_OF_I[(popcount[x & z] + 2 * popcount[(r ^ x) & z]) % 4]
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def word_actions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row gathers of the basis words: ``(source, phase)``, each (4^n - 1, 2^n).

    For word ``k`` in canonical order and any matrix ``S`` with 2^n rows,
    ``sigma_k @ S == phase[k][:, None] * S[source[k]]`` exactly.  Both
    arrays are read-only.
    """
    _, x, z, _ = _words(n)
    source = x[:, None] ^ np.arange(2**n)
    phase = _phase_grid(n)[x, z]
    source.flags.writeable = False
    phase.flags.writeable = False
    return source, phase


@lru_cache(maxsize=None)
def _word_positions(n: int) -> dict[str, int]:
    """Canonical position of every basis word, keyed by its letters."""
    return {letters: i for i, letters in enumerate(_words(n)[0])}


def weight_vector(n: int) -> np.ndarray:
    """Read-only vector of word weights in canonical order, shape (4^n - 1,)."""
    return _words(n)[3]


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """Real coefficients over the non-identity basis words, canonical order.

    Immutable; the stored array is a read-only copy of the input.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        values = np.asarray(self.values, dtype=float)
        expected = 4**self.n - 1
        if values.shape != (expected,):
            raise ValidationError(
                f"coefficient vector for n={self.n} must have shape ({expected},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("coefficient vector has non-finite entries")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, n: int) -> "CoeffVector":
        return cls(n, np.zeros(4**n - 1))

    @classmethod
    def from_words(cls, n: int, coefficients: dict) -> "CoeffVector":
        """Build a vector from a ``{word: coefficient}`` mapping; absent words are zero."""
        _check_qubit_count(n)
        index = _word_positions(n)
        values = np.zeros(4**n - 1)
        for word, value in coefficients.items():
            if word not in index:
                raise ValidationError(
                    f"unknown Pauli word {word!r} for n={n} (identity word excluded)"
                )
            try:
                value = float(value)
            except OverflowError:
                raise ValidationError(f"coefficient for {word!r} is too large for a float") from None
            if not np.isfinite(value):
                raise ValidationError(f"coefficient for {word!r} must be finite, got {value}")
            values[index[word]] = value
        return cls(n, values)

    def to_words(self) -> dict:
        """Mapping ``{word: coefficient}`` of the nonzero entries."""
        letters = _words(self.n)[0]
        nonzero = np.flatnonzero(self.values)
        return dict(zip([letters[i] for i in nonzero], self.values[nonzero].tolist()))

    @property
    def norm(self) -> float:
        """Euclidean norm of the coefficients."""
        return float(np.sqrt(np.sum(np.square(self.values))))


def decompose(matrix: np.ndarray, n: int) -> CoeffVector:
    """Coefficients of a traceless Hermitian matrix over the Pauli basis.

    Uses the trace inner product: ``y_i = Re(tr(sigma_i @ H)) / 2^n``.

    Raises
    ------
    ValidationError
        If the matrix shape does not match ``n``, the matrix has a non-finite
        entry, it is not Hermitian to within ``HERMITIAN_TOL``, or its trace
        exceeds ``TRACE_TOL`` in magnitude.
    """
    _check_qubit_count(n)
    matrix = np.asarray(matrix, dtype=complex)
    dim = 2**n
    if matrix.shape != (dim, dim):
        raise ValidationError(f"expected a ({dim}, {dim}) matrix for n={n}, got shape {matrix.shape}")
    # every comparison with NaN is False: refuse it before the tolerance checks
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix has non-finite entries")
    hermitian_defect = float(np.max(np.abs(matrix - matrix.conj().T)))
    if hermitian_defect > HERMITIAN_TOL:
        raise ValidationError(f"matrix is not Hermitian: max |H - H^dagger| = {hermitian_defect:.3e}")
    trace = complex(np.trace(matrix))
    if abs(trace) > TRACE_TOL:
        raise ValidationError(f"matrix has a nonzero identity component: trace = {trace:.6e}; "
                              "subtract (trace / dim) * I before decomposing")
    # tr(sigma_k @ H) = sum_r phase[k, r] H[source[k, r], r]
    source, phase = word_actions(n)
    coefficients = np.einsum("kr,kr->k", phase, matrix[source, np.arange(dim)]).real / dim
    return CoeffVector(n, coefficients)


def reconstruct(y: CoeffVector) -> np.ndarray:
    """Dense matrix ``sum_i y_i sigma_i``; traceless Hermitian by construction."""
    dim = 2**y.n
    _, x, z, _ = _words(y.n)
    grid = np.zeros((dim, dim))
    grid[x, z] = y.values
    # every word with mask x has its nonzeros at (r, r ^ x): sum those over z
    by_x = np.einsum("xz,xzr->xr", grid, _phase_grid(y.n))
    rows = np.arange(dim)
    out = np.empty((dim, dim), dtype=complex)
    out[rows, rows[:, None] ^ rows] = by_x
    return out
