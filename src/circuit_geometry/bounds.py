"""Inequality verification: distortion estimates, sandwiches, and count bounds.

Everything here reduces to a :class:`BoundReport`: an observed quantity
with the lower and upper values it must sit between.  Reports are what
the command-line front end serializes, and the acceptance suite is built
from the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import Unitary, log_coords
from .errors import DomainError, EvaluationError, ValidationError
from .metric import MetricConfig, _evaluate, minkowski_norm
from .seeding import substream
from .simulation import Schedule, SimulationResult, simulate

#: Slack applied on both sides of a bound before declaring failure.
PASS_TOL = 1e-9

#: Draws processed per batch by the distortion sampler.
SAMPLE_CHUNK = 8192


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
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        ok = self.lower - PASS_TOL <= self.observed <= self.upper + PASS_TOL
        object.__setattr__(self, "passed", bool(ok))

    @property
    def slack(self) -> tuple[float, float]:
        """Margins ``(observed - lower, upper - observed)``."""
        return (self.observed - self.lower, self.upper - self.observed)

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "lower": self.lower,
            "observed": self.observed,
            "upper": self.upper,
            "passed": self.passed,
        }


def _strata(norm, dimension: int):
    """Coordinate-block masks the sampler cycles through.

    Norms that expose ``penalized_mask`` (notably :class:`PenaltyNorm`)
    get three strata: unrestricted draws, draws confined to the
    unpenalized block, and draws confined to the penalized block.  The
    restricted draws are still unit vectors after normalization, so they
    stay inside the admissible sample set; they simply guarantee the
    extremal directions appear.  Other norms sample isotropically only.
    """
    mask = getattr(norm, "penalized_mask", None)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape == (dimension,) and mask.any() and not mask.all():
            return [None, ~mask, mask]
    return [None]


def estimate_distortion(norm, n: int, samples: int, seed: int = 0) -> tuple[float, float]:
    """Sampled extrema of ``norm(y) / |y|`` over unit tangent directions.

    Directions are normalized Gaussian draws from a single seeded stream;
    the ratio is computed on the raw draw (it is scale-invariant for a
    homogeneous norm), and the k-th draw depends only on the seed and k,
    so enlarging ``samples`` only widens the returned interval.

    Returns ``(m_hat, M_hat)``; both lie inside the true distortion
    envelope up to the norm's own homogeneity error.
    """
    if samples < 1:
        raise DomainError(f"sample count must be positive, got {samples}")
    dimension = 4**n - 1
    strata = _strata(norm, dimension)
    rng = substream(seed, "distortion")
    low = np.inf
    high = -np.inf
    produced = 0
    while produced < samples:
        count = min(SAMPLE_CHUNK, samples - produced)
        draws = rng.standard_normal((count, dimension))
        stratum = (produced + np.arange(count)) % len(strata)
        for index, mask in enumerate(strata):
            if mask is None:
                continue
            rows = stratum == index
            if rows.any():
                draws[np.ix_(rows, ~mask)] = 0.0
        lengths = np.sqrt(np.sum(np.square(draws), axis=-1))
        if np.any(lengths == 0.0):
            raise EvaluationError("degenerate zero draw; change the seed")
        ratios = _evaluate(norm, draws) / lengths
        if not np.all(np.isfinite(ratios)):
            raise EvaluationError("norm evaluated to a non-finite ratio")
        low = min(low, float(np.min(ratios)))
        high = max(high, float(np.max(ratios)))
        produced += count
    return (low, high)


def check_segment_distortion(x_from: Unitary, x_to: Unitary, config: MetricConfig) -> BoundReport:
    """Chart sandwich for one segment.

    The straight-chart segment from ``x_from`` to ``x_to`` has penalty
    length ``F_p(y) * 1`` with ``y`` the chart coordinates; that length
    must sit between ``|y|`` and ``p |y|``.
    """
    if x_from.n != config.n:
        raise DomainError(f"segment qubit count {x_from.n} does not match config {config.n}")
    y = log_coords(x_to, x_from)
    euclidean = y.norm
    observed = minkowski_norm(y, config)
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
        if not (np.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")
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
        if not (np.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")
    return (distance / beta_sup, (m_upper / m_lower) * distance / beta_inf)


def check_sim_sandwich(result: SimulationResult, config: MetricConfig) -> BoundReport:
    """Length sandwich for a synthesized gate path.

    Every gate is a chart segment of Euclidean length ``|angle|``, so the
    synthesized length obeys ``count * rho_inf <= L <= count * p * rho_sup``.
    """
    count = result.gate_count
    return BoundReport(
        "simulation-sandwich",
        count * result.rho_inf,
        result.synthesized_length,
        count * config.p * result.rho_sup,
    )


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
    widths = tuple(float(d) for d in deltas)
    if len(widths) < 3:
        raise DomainError(f"at least three slice widths are required, got {len(widths)}")
    if any(not (np.isfinite(d) and d > 0) for d in widths):
        raise DomainError("slice widths must be positive and finite")
    span = max(widths) / min(widths)
    if span < SCALING_MIN_SPAN * (1.0 - 1e-12):
        raise DomainError(
            f"slice widths span a factor of {span:.3f}; at least {SCALING_MIN_SPAN} is required"
        )
    counts = []
    for width in widths:
        counts.append(simulate(schedule, config, width).gate_count)
    if any(c <= 0 for c in counts):
        raise DomainError("schedule synthesizes to zero gates; nothing to fit")
    x = np.log(1.0 / np.array(widths))
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean(np.square(y - fitted))))
    return ScalingReport(widths, tuple(int(c) for c in counts), float(slope), float(intercept), residual)
