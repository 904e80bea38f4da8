"""Seeded input files for the benchmark workloads, and the oracle that checks them.

Everything here is plain numpy and independent of ``circuit_geometry``: the
program under test receives only the JSON files written below, and the
values this module keeps (the known Pauli coefficients, the chart logarithm
of a target) let the output checks compare the program against a second
implementation instead of against itself.

Each workload draws from its own substream, ``SeedSequence(seed,
spawn_key=(workload, attempt))``, so the same seed always writes the same
bytes, and a rejected draw moves on to the next attempt deterministically.
"""

from __future__ import annotations

import json
import math
import zlib
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import scipy.linalg

LETTERS = "IXYZ"
_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: F_p(log U) / |log U| that every bracket target is scaled to.  Fixing the
#: share of the penalized (weight-3) directions makes the bracket ratio of
#: the one-parameter-subgroup path the same on every seed.
BRACKET_TARGET_RATIO = 2.5

#: Eigenphases of a target must stay this far inside (-pi, pi].
CHART_MARGIN = 0.25

#: Slice width passed to ``cgeo simulate``; a decimal string so the
#: closed-form gate count can be computed exactly.
SIM_DELTA = "0.05"
#: Schedule duration (a multiple of 1/4, so segment durations are exact floats).
SIM_DURATION = Fraction(2)
SIM_SEGMENTS = 4
#: Narrow, so the Trotter part of the endpoint error varies little between seeds.
SIM_COEFF_RANGE = (0.6, 0.9)
#: The one weight-3 term: constant, small, on qubits 0..2.
SIM_HEAVY_COEFF = 0.02

MAX_ATTEMPTS = 64


def rng_for(seed: int, workload: str, attempt: int = 0) -> np.random.Generator:
    key = (zlib.crc32(workload.encode("utf-8")), attempt)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def all_words(n: int) -> list[str]:
    """Non-identity Pauli words on n qubits (qubit 0 leftmost)."""
    return ["".join(t) for t in product(LETTERS, repeat=n) if any(c != "I" for c in t)]


def weight(word: str) -> int:
    return sum(1 for c in word if c != "I")


def local_words(n: int) -> list[str]:
    """Words of weight at most two."""
    return [w for w in all_words(n) if weight(w) <= 2]


def word_matrix(word: str) -> np.ndarray:
    out = _SINGLE[word[0]]
    for c in word[1:]:
        out = np.kron(out, _SINGLE[c])
    return out


def hamiltonian(coefficients: dict) -> np.ndarray:
    """``sum_w c_w sigma_w`` as a dense matrix."""
    n = len(next(iter(coefficients)))
    out = np.zeros((2**n, 2**n), dtype=complex)
    for word, value in coefficients.items():
        out += value * word_matrix(word)
    return out


def coefficients(matrix: np.ndarray, n: int) -> dict:
    """Pauli coefficients ``Re tr(sigma_w H) / 2^n`` of a traceless Hermitian matrix."""
    dim = 2**n
    return {w: float(np.trace(word_matrix(w) @ matrix).real) / dim for w in all_words(n)}


def exp_hermitian(matrix: np.ndarray) -> np.ndarray:
    """``exp(-i H)``."""
    evals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def principal_log(unitary: np.ndarray) -> tuple[np.ndarray, float]:
    """Traceless H with ``exp(-i H) = U`` on the principal branch, and max |eigenphase|."""
    triangular, frame = scipy.linalg.schur(unitary, output="complex")
    theta = np.angle(np.diag(triangular))
    generator = (frame * -theta) @ frame.conj().T
    return generator, float(np.max(np.abs(theta)))


def penalty_norm(coeffs: dict, p: float) -> float:
    return math.sqrt(sum((v if weight(w) <= 2 else p * v) ** 2 for w, v in coeffs.items()))


def euclidean_norm(coeffs: dict) -> float:
    return math.sqrt(sum(v * v for v in coeffs.values()))


def matrix_payload(n: int, matrix: np.ndarray) -> dict:
    return {"n": n, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _random_local(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-coefficient-norm random Hamiltonian over the weight-<=2 words."""
    words = local_words(n)
    values = rng.standard_normal(len(words))
    return hamiltonian(dict(zip(words, values / np.linalg.norm(values))))


def _product_target(a: np.ndarray, b: np.ndarray, scale: float, n: int):
    """``U = exp(-i s A) exp(-i s B)`` with the coefficients of log U, or None off the chart."""
    unitary = exp_hermitian(scale * a) @ exp_hermitian(scale * b)
    generator, max_phase = principal_log(unitary)
    if max_phase > math.pi - CHART_MARGIN or abs(np.trace(generator)) > 1e-9:
        return None
    return unitary, coefficients(generator, n)


def bracket_target(seed: int, n: int, ratio: float | None) -> dict:
    """Target ``U = exp(-i A) exp(-i B)`` for random weight-<=2 A and B.

    With ``ratio`` set, A and B are scaled together (bisection on a common
    factor) until ``F_p(log U) / |log U|`` equals it, with ``p = 2^n``; the
    weight-3 part of log U comes from the commutator [A, B].  A draw whose
    scaled target leaves the principal chart, or cannot reach the ratio
    inside it, is replaced by the next attempt's draw.
    """
    p = float(2**n)
    for attempt in range(MAX_ATTEMPTS):
        rng = rng_for(seed, f"bracket-n{n}", attempt)
        a, b = _random_local(rng, n), _random_local(rng, n)
        if ratio is None:
            found = _product_target(a, b, 0.8, n)
        else:
            found = _scaled_target(a, b, n, p, ratio)
        if found is not None:
            unitary, log_coeffs = found
            return {
                "n": n,
                "matrix": unitary,
                "lower": euclidean_norm(log_coeffs),
                "subgroup_length": penalty_norm(log_coeffs, p),
                "p": p,
            }
    raise RuntimeError(f"no bracket target for seed {seed} in {MAX_ATTEMPTS} attempts")


def _scaled_target(a, b, n, p, ratio):
    def excess(scale):
        found = _product_target(a, b, scale, n)
        if found is None:
            return None
        return penalty_norm(found[1], p) / euclidean_norm(found[1]) - ratio

    lo, hi = 0.05, 2.0
    lo_excess, hi_excess = excess(lo), excess(hi)
    while hi_excess is None and hi - lo > 1e-3:
        hi = (lo + hi) / 2.0
        hi_excess = excess(hi)
    if lo_excess is None or hi_excess is None or lo_excess > 0 or hi_excess < 0:
        return None
    for _ in range(60):
        mid = (lo + hi) / 2.0
        mid_excess = excess(mid)
        if mid_excess is None or mid_excess > 0:
            hi = mid
        else:
            lo = mid
    return _product_target(a, b, lo, n)


def chain_support(n: int) -> list[str]:
    """Nearest-neighbour support: X and Z on each qubit, XX, YY, ZZ on each adjacent pair."""
    words = []
    for q in range(n):
        for letter in "XZ":
            words.append("I" * q + letter + "I" * (n - q - 1))
    for q in range(n - 1):
        for letter in "XYZ":
            words.append("I" * q + letter * 2 + "I" * (n - q - 2))
    return words


def heavy_word(n: int) -> str:
    return "ZZZ" + "I" * (n - 3)


def chain_schedule(seed: int, n: int) -> dict:
    """Piecewise-constant nearest-neighbour schedule with one fixed weight-3 term.

    Every segment carries the same support, and each word keeps one sign
    across segments with magnitudes in ``SIM_COEFF_RANGE``, so no slice mean
    cancels to zero and the gate count is slices x substeps x words exactly.
    """
    rng = rng_for(seed, f"schedule-n{n}")
    support = chain_support(n)
    signs = rng.choice([-1.0, 1.0], size=len(support))
    quarters = int(SIM_DURATION * 4)
    cuts = np.sort(rng.choice(np.arange(1, quarters), size=SIM_SEGMENTS - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [quarters]))
    segments = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        magnitudes = rng.uniform(*SIM_COEFF_RANGE, size=len(support))
        y = {w: float(s * m) for w, s, m in zip(support, signs, magnitudes)}
        y[heavy_word(n)] = SIM_HEAVY_COEFF
        segments.append({"tau": float(stop - start) / 4.0, "y": y})
    return {"n": n, "segments": segments}


def expected_gate_count(n: int, delta: str, duration: Fraction = SIM_DURATION) -> int:
    """slices x ceil(1/delta) x (weight-<=2 support words), in exact arithmetic."""
    width = Fraction(delta)
    slices = math.ceil(duration / width)
    return slices * math.ceil(1 / width) * len(chain_support(n))


def decompose_matrix(seed: int, n: int, index: int = 0) -> dict:
    """Traceless Hermitian matrix built from known Gaussian Pauli coefficients."""
    rng = rng_for(seed, f"decompose-n{n}-{index}")
    words = all_words(n)
    values = rng.standard_normal(len(words)) / math.sqrt(len(words))
    truth = dict(zip(words, (float(v) for v in values)))
    return {"n": n, "matrix": hamiltonian(truth), "coefficients": truth}
