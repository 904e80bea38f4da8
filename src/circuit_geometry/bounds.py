"""Inequality verification: distortion estimates, sandwiches, and count bounds.

Everything here reduces to a :class:`BoundReport`: an observed quantity
with the lower and upper values it must sit between.  Reports are what
the command-line front end serializes, and the acceptance suite is built
from the same checks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .charts import Unitary, log_coords
from .errors import ValidationError
from .metric import MetricConfig, PenaltyNorm
from .pauli import CoeffVector, _as_float, _positive, reconstruct
from .simulation import Schedule, SimulationResult, _synthesize

#: Slack applied on both sides of a bound before declaring failure.
PASS_TOL = 1e-9

#: Pauli round-trip residual allowed per unit of ``max(1, |H|_F)``.
ROUND_TRIP_TOL = 1e-12

#: Samples drawn per block by the distortion sampler.  A block holds two sums
#: of squares per sample, 1 MB at 2^16 rows whatever n is, so memory stays
#: bounded for any sample count.  The draw stream and the strata do not
#: depend on the block size, so neither do the results.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: ``lower <= observed <= upper`` up to ``PASS_TOL``.

    ``passed`` is derived during construction and cannot be supplied.
    """

    context: str
    lower: float
    observed: float
    upper: float
    passed: bool = False

    def __post_init__(self):
        for name in ("lower", "observed", "upper"):
            value = _as_float(getattr(self, name))
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        ok = self.lower - PASS_TOL <= self.observed <= self.upper + PASS_TOL
        object.__setattr__(self, "passed", bool(ok))

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "lower": self.lower,
            "observed": self.observed,
            "upper": self.upper,
            "passed": self.passed,
        }


def _stream(seed: int) -> np.random.Generator:
    """The sampler's generator: one stream per seed, keyed by the label ``"distortion"``."""
    key = (zlib.crc32(b"distortion"),)
    return np.random.default_rng(np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key))


def estimate_distortion(norm, n: int, samples: int, seed: int = 0) -> tuple[float, float]:
    """Sampled extrema of ``F_p(y) / |y|`` over Gaussian tangent directions ``y``.

    A draw enters the ratio only through its sums of squares ``S_u`` on the
    unpenalized block (k words) and ``S_p`` on the penalized block
    (4^n - 1 - k words): ``F_p(y)^2 / |y|^2 = (S_u + p^2 S_p) / (S_u + S_p)``.
    For a Gaussian draw these are independent chi-square variates with k and
    4^n - 1 - k degrees of freedom, so the sampler draws only those two
    numbers, from a single seeded stream in blocks of :data:`SAMPLE_CHUNK`.

    Sample i is unrestricted, confined to the unpenalized block or confined
    to the penalized block as ``i % 3`` is 0, 1 or 2, so the extremal
    directions appear; at n <= 2 there is no penalized block and every sample
    is unrestricted.  The i-th sample depends only on the seed and i, so
    enlarging ``samples`` only widens the returned interval.

    ``norm`` must be the :class:`PenaltyNorm` of an ``n``-qubit configuration.
    Returns ``(m_hat, M_hat)``, inside the exact ``(1, p)`` up to rounding.
    A ``p`` so large that ``p^2`` times a block sum overflows is refused.
    """
    if not isinstance(norm, PenaltyNorm):
        raise ValidationError(f"the distortion sampler takes a PenaltyNorm, got {type(norm).__name__}")
    if n != norm.config.n:
        raise ValidationError(f"qubit count {n} does not match the norm's {norm.config.n}")
    if samples < 1:
        raise ValidationError(f"sample count must be positive, got {samples}")
    k = norm.config.k
    penalized = 4**n - 1 - k
    strata = 3 if penalized else 1
    p_squared = norm.config.p * norm.config.p
    rng = _stream(seed)
    low = np.inf
    high = -np.inf
    for produced in range(0, samples, SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, samples - produced)
        sums = 2.0 * rng.standard_gamma([k / 2, penalized / 2], size=(count, 2))
        stratum = (produced + np.arange(count)) % strata
        sums[stratum == 1, 1] = 0.0
        sums[stratum == 2, 0] = 0.0
        lengths = sums[:, 0] + sums[:, 1]
        if np.any(lengths == 0.0):
            raise ValidationError("degenerate zero draw; change the seed")
        # p^2 S_p overflows for a p near the float limit (inf * 0 on the unpenalized stratum)
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = np.sqrt((sums[:, 0] + p_squared * sums[:, 1]) / lengths)
        if not np.all(np.isfinite(ratios)):
            raise ValidationError(
                f"penalty norm evaluated to a non-finite ratio: p = {norm.config.p} is too large to sample"
            )
        low = min(low, float(np.min(ratios)))
        high = max(high, float(np.max(ratios)))
    return (low, high)


def check_segment_distortion(x_from: Unitary, x_to: Unitary, config: MetricConfig) -> BoundReport:
    """Chart sandwich for one segment.

    The straight-chart segment from ``x_from`` to ``x_to`` has penalty
    length ``F_p(y) * 1`` with ``y`` the chart coordinates; that length
    must sit between ``|y|`` and ``p |y|``.
    """
    if x_from.n != config.n:
        raise ValidationError(f"segment qubit count {x_from.n} does not match config {config.n}")
    y = log_coords(x_to, x_from)
    euclidean = y.norm
    observed = PenaltyNorm(config)(y)
    return BoundReport("segment-distortion", euclidean, observed, config.p * euclidean)


def gate_count_bounds_chart(
    distance: float, rho_inf: float, rho_sup: float, m_lower: float, m_upper: float
) -> tuple[float, float]:
    """Gate-count bracket from chart-segment extrema.

    A decomposition into segments of chart length between ``rho_inf`` and
    ``rho_sup`` that realizes a distance ``distance`` must use between
    ``distance / (rho_sup * M)`` and ``distance / (rho_inf * m)`` segments,
    where ``(m, M)`` are the distortion constants.
    """
    for name, value in (("distance", distance), ("rho_inf", rho_inf), ("rho_sup", rho_sup),
                        ("m_lower", m_lower), ("m_upper", m_upper)):
        _positive(value, name)
    return (distance / (rho_sup * m_upper), distance / (rho_inf * m_lower))


def gate_count_bounds_metric(
    distance: float, beta_inf: float, beta_sup: float, m_lower: float, m_upper: float
) -> tuple[float, float]:
    """Gate-count bracket from per-segment metric lengths.

    With segment metric lengths between ``beta_inf`` and ``beta_sup``, the
    count is at least ``distance / beta_sup`` and at most
    ``(M / m) * distance / beta_inf``.
    """
    for name, value in (("distance", distance), ("beta_inf", beta_inf), ("beta_sup", beta_sup),
                        ("m_lower", m_lower), ("m_upper", m_upper)):
        _positive(value, name)
    return (distance / beta_sup, (m_upper / m_lower) * distance / beta_inf)


def check_round_trip(matrix: np.ndarray, coefficients: CoeffVector) -> BoundReport:
    """Pauli round trip: ``|reconstruct(coefficients) - P(H)|_F <= ROUND_TRIP_TOL max(1, |H|_F)``, with
    ``P(H) = (H + H^dagger) / 2 - tr(H) / 2^n I`` the part of ``matrix`` that
    :func:`~circuit_geometry.pauli.decompose` reads: it accepts Hermitian and trace defects up to 1e-10."""
    # in units of a power of two no larger than the largest entry (or 1): exact, and no square overflows
    scale = 2.0 ** max(0, int(np.frexp(np.max(np.abs(matrix)))[1]) - 1)
    unit = np.asarray(matrix, dtype=complex) / scale
    part = (unit + unit.conj().T) / 2.0 - np.trace(unit).real / len(unit) * np.eye(len(unit))
    residual = scale * float(np.linalg.norm(reconstruct(coefficients) / scale - part))
    size = scale * float(np.linalg.norm(unit))
    return BoundReport("pauli-round-trip", 0.0, residual, ROUND_TRIP_TOL * max(1.0, size))


def check_sim_sandwich(result: SimulationResult, config: MetricConfig) -> BoundReport:
    """Length sandwich for a synthesized gate path.

    Every gate is a chart segment of Euclidean length ``|angle|``, so the
    synthesized length obeys ``count * rho_inf <= L <= count * p * rho_sup``.
    """
    count = result.gate_count
    upper = count * config.p * result.rho_sup
    if not np.isfinite(upper):
        raise ValidationError(f"simulation sandwich evaluated to a non-finite upper bound: p = {config.p} "
                              "is too large for this gate sequence")
    return BoundReport("simulation-sandwich", count * result.rho_inf, result.synthesized_length, upper)


#: Required ratio between the largest and smallest slice width in a sweep.
SCALING_MIN_SPAN = 4.0


@dataclass(frozen=True)
class ScalingReport:
    """Log-log fit of gate count against inverse slice width."""

    deltas: tuple[float, ...]
    gate_counts: tuple[int, ...]
    slope: float
    intercept: float
    residual: float


def gate_count_scaling(schedule: Schedule, config: MetricConfig, deltas) -> ScalingReport:
    """Synthesize a schedule across slice widths and fit the count growth.

    Fits ``log(count)`` against ``log(1/delta)`` by least squares; the
    slope should approach 2 (one factor from the slice count, one from
    the substep count).  Requires at least three widths spanning a factor
    of ``SCALING_MIN_SPAN``.
    """
    widths = tuple(deltas)
    if len(widths) < 3:
        raise ValidationError(f"at least three slice widths are required, got {len(widths)}")
    widths = tuple(_positive(d, "slice widths") for d in widths)
    span = max(widths) / min(widths)
    if span < SCALING_MIN_SPAN * (1.0 - 1e-12):
        raise ValidationError(
            f"slice widths span a factor of {span:.3f}; at least {SCALING_MIN_SPAN} is required"
        )
    # only the counts are read, so neither gate products nor endpoints are formed
    counts = [_synthesize(schedule, config, width).gates.size for width in widths]
    if any(c <= 0 for c in counts):
        raise ValidationError("schedule synthesizes to zero gates; nothing to fit")
    x = np.log(1.0 / np.array(widths))
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean(np.square(y - fitted))))
    return ScalingReport(widths, tuple(int(c) for c in counts), float(slope), float(intercept), residual)
