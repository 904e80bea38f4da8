"""Gate synthesis for control schedules under the weight-two restriction.

The pipeline has three steps: project away every weight-three-or-higher
coefficient, average the projected signal over slices of width ``delta``,
and expand each slice mean into a first-order product of single-word
rotations.  Each slice becomes ``ceil(1/delta)`` substeps and each substep
emits one gate ``exp(-i y_i sigma_i delta^2)`` per nonzero coefficient, so
with coefficients bounded by one, every gate is a rotation by at most
``delta^2`` and the per-slice product error is third order in ``delta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import Unitary, phase_aligned_frobenius, unitary_exp
from .errors import CoefficientBoundError, DomainError, ValidationError
from .metric import PENALIZED_WEIGHT, MetricConfig
from .pauli import CoeffVector, PauliString, _check_qubit_count, enumerate_basis, reconstruct, weight_vector

#: Guard for float division when counting slices and substeps: a duration
#: that is an exact multiple of delta must not gain a spurious extra slice.
COUNT_GUARD = 1e-12

INTERPOLATIONS = ("constant", "linear")

#: Largest synthesis :func:`simulate` attempts.  Both counts are known in
#: closed form before anything is allocated.  The gate count is slices x
#: substeps x nonzero weight-<=2 words x order, with an empty substep counted
#: as one gate.  A gate holds about 16 bytes of sequence storage and costs
#: one dense product (about 60 us at n = 6 on a 2-core Xeon VM).  A slice
#: mean holds 4^n - 1 coefficients (32 KB at n = 6), so the slice limit keeps
#: the means within about 134 MB.  The largest synthesis the benchmark runs
#: (n = 6) has 40 slices and 21,600 gates.
MAX_GATES = 1_000_000
MAX_SLICES = 4096


@dataclass(frozen=True, eq=False)
class Schedule:
    """Sampled control signal ``y(t)`` on ``[0, duration]``.

    ``times`` are strictly increasing sample times starting at 0, and
    ``values`` holds one coefficient row per sample.  Between samples the
    signal either holds the earlier row (``constant``) or interpolates
    linearly (``linear``); after the last sample it holds the final row.
    """

    n: int
    times: np.ndarray
    values: np.ndarray
    duration: float
    interpolation: str = "constant"

    def __post_init__(self):
        _check_qubit_count(self.n)
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1:
            raise ValidationError("sample times must be a 1-d array")
        if times.size == 0:
            # the empty schedule is the identity path: no samples, no time
            if self.duration != 0.0:
                raise ValidationError(f"a schedule without samples has duration 0, got {self.duration}")
        else:
            if not (np.isfinite(self.duration) and self.duration > 0):
                raise ValidationError(f"duration must be positive and finite, got {self.duration}")
            if times[0] != 0.0:
                raise ValidationError(f"first sample time must be 0, got {times[0]}")
            if np.any(np.diff(times) <= 0):
                raise ValidationError("sample times must be strictly increasing")
            if times[-1] > self.duration:
                raise ValidationError("sample times must not exceed the duration")
        expected = (times.size, 4**self.n - 1)
        if values.shape != expected:
            raise ValidationError(f"values must have shape {expected}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("schedule values must be finite")
        if self.interpolation not in INTERPOLATIONS:
            raise ValidationError(
                f"interpolation must be one of {INTERPOLATIONS}, got {self.interpolation!r}"
            )
        times = times.copy()
        values = values.copy()
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "duration", float(self.duration))

    @classmethod
    def constant(cls, y: CoeffVector, duration: float) -> "Schedule":
        """Schedule that holds ``y`` for the whole duration."""
        return cls(y.n, np.zeros(1), y.values[None, :], duration)

    @classmethod
    def piecewise(cls, n: int, samples, duration: float, interpolation: str = "constant") -> "Schedule":
        """Build from ``(time, CoeffVector-or-array)`` pairs."""
        times = []
        rows = []
        for t, y in samples:
            times.append(float(t))
            rows.append(y.values if isinstance(y, CoeffVector) else np.asarray(y, dtype=float))
        return cls(n, np.array(times), np.array(rows), duration, interpolation)

    @classmethod
    def from_segments(cls, n: int, values, taus) -> "Schedule":
        """Piecewise-constant schedule holding ``values[j]`` for ``taus[j]``.

        Sample times are the sequential running sum of the durations, so
        :attr:`segments` returns every duration exactly whenever those sums
        are exact (as they are for dyadic durations).  No segments give the
        empty schedule.
        """
        times = [0.0]
        for index, tau in enumerate(taus):
            if not (np.isfinite(tau) and tau > 0):
                raise ValidationError(f"segment {index} duration must be positive and finite, got {tau}")
            times.append(times[-1] + float(tau))
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            values = values.reshape(0, 4**n - 1)
        return cls(n, np.array(times[:-1]), values, times[-1])

    @property
    def segments(self) -> tuple[tuple[np.ndarray, float], ...]:
        """``(row, tau)`` legs in time order; only piecewise-constant schedules have them."""
        if self.interpolation != "constant":
            raise DomainError("a linearly interpolated schedule has no constant segments")
        taus = np.diff(np.append(self.times, self.duration))
        return tuple(zip(self.values, taus.tolist()))

    def value_at(self, t: float) -> np.ndarray:
        """Signal value at time ``t`` (held constant past the last sample)."""
        if self.times.size == 0:
            raise DomainError("the empty schedule has no values")
        if not 0.0 <= t <= self.duration:
            raise DomainError(f"time {t} outside [0, {self.duration}]")
        index = int(np.searchsorted(self.times, t, side="right")) - 1
        if self.interpolation == "constant" or index == self.times.size - 1:
            return self.values[index].copy()
        t0, t1 = self.times[index], self.times[index + 1]
        frac = (t - t0) / (t1 - t0)
        return (1.0 - frac) * self.values[index] + frac * self.values[index + 1]


def _slice_count(duration: float, delta: float) -> float:
    """Number of width-``delta`` slices covering ``duration``, as a float (may be huge)."""
    if not (np.isfinite(delta) and delta > 0):
        raise DomainError(f"slice width must be positive and finite, got {delta}")
    if delta > duration * (1.0 + COUNT_GUARD):
        raise DomainError(f"slice width {delta} exceeds the duration {duration}")
    return float(np.ceil(duration / delta - COUNT_GUARD))


def slice_edges(duration: float, delta: float) -> np.ndarray:
    """Slice boundaries ``0, delta, 2 delta, ..., duration``.

    The final slice is truncated when ``delta`` does not divide the
    duration; a duration that is an exact float multiple of ``delta``
    yields exactly ``duration / delta`` slices.
    """
    count = int(_slice_count(duration, delta))
    edges = np.minimum(np.arange(count + 1) * delta, duration)
    edges[-1] = duration
    return edges


def _integral(schedule: Schedule, lo: float, hi: float) -> np.ndarray:
    """Exact integral of the signal over ``[lo, hi]`` (both interpolation modes)."""
    interior = schedule.times[(schedule.times > lo) & (schedule.times < hi)]
    knots = np.concatenate(([lo], interior, [hi]))
    total = np.zeros(schedule.values.shape[1])
    for a, b in zip(knots[:-1], knots[1:]):
        width = b - a
        if schedule.interpolation == "constant":
            total += width * schedule.value_at(a)
        else:
            total += (width * 0.5) * (schedule.value_at(a) + schedule.value_at(b))
    return total


def slice_mean(schedule: Schedule, delta: float) -> list[CoeffVector]:
    """Mean coefficient vector over each width-``delta`` slice.

    Integrals are taken piece by piece between sample times, so the means
    are exact for both interpolation modes; the truncated final slice is
    averaged over its true width.
    """
    edges = slice_edges(schedule.duration, delta)
    means = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        means.append(CoeffVector(schedule.n, _integral(schedule, lo, hi) / (hi - lo)))
    return means


def project_hamiltonian(y: CoeffVector, config: MetricConfig) -> CoeffVector:
    """Zero every weight-three-or-higher coefficient; the rest pass through unchanged."""
    if y.n != config.n:
        raise DomainError(f"coefficient qubit count {y.n} does not match config {config.n}")
    kept = np.where(weight_vector(y.n) < PENALIZED_WEIGHT, y.values, 0.0)
    return CoeffVector(y.n, kept)


def project_schedule(schedule: Schedule, config: MetricConfig) -> Schedule:
    """Apply the weight projection to every sample row."""
    if schedule.n != config.n:
        raise DomainError(f"schedule qubit count {schedule.n} does not match config {config.n}")
    kept = np.where(weight_vector(schedule.n) < PENALIZED_WEIGHT, schedule.values, 0.0)
    return Schedule(schedule.n, schedule.times, kept, schedule.duration, schedule.interpolation)


@dataclass(frozen=True)
class Gate:
    """Single Pauli-word rotation ``exp(-i angle sigma)``."""

    string: PauliString
    angle: float

    def matrix(self) -> np.ndarray:
        return _rotation(self.angle, np.eye(2**self.string.n), self.string.matrix())


def _rotation(angle: float, eye: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``exp(-i angle sigma)``, which closes in two terms because ``sigma`` is involutory."""
    return np.cos(angle) * eye - 1j * np.sin(angle) * sigma


@dataclass(frozen=True, eq=False)
class GateSequence:
    """Ordered gates produced by synthesis, all of weight at most two.

    ``delta`` is the slice width the sequence was synthesized at; each
    substep spans ``delta**2`` of evolution time.
    """

    n: int
    gates: tuple[Gate, ...]
    delta: float

    def __post_init__(self):
        gates = tuple(self.gates)
        for gate in gates:
            if gate.string.n != self.n:
                raise ValidationError(
                    f"gate word {gate.string} acts on {gate.string.n} qubits, expected {self.n}"
                )
            if gate.string.weight > 2:
                raise ValidationError(f"gate word {gate.string} has weight above two")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValidationError(f"slice width must be positive and finite, got {self.delta}")
        object.__setattr__(self, "gates", gates)

    @property
    def substep(self) -> float:
        """Evolution time spanned by one substep."""
        return self.delta**2

    def angles(self) -> np.ndarray:
        return np.array([gate.angle for gate in self.gates])


def synthesize_gates(
    means, delta: float, config: MetricConfig, order: int = 1
) -> GateSequence:
    """Expand slice means into products of single-word rotations.

    Each slice contributes ``ceil(1/delta)`` substeps.  With ``order=1`` a
    substep emits one gate ``exp(-i y_i sigma_i delta^2)`` per nonzero
    coefficient in canonical basis order; ``order=2`` emits the
    symmetrized product (half-angle forward then mirrored), which costs
    twice the gates for one order better accuracy per substep.

    Raises ``CoefficientBoundError`` when any mean coefficient exceeds 1
    in magnitude and ``ValidationError`` when a mean has weight-three
    support (project first).
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    if not (np.isfinite(delta) and 0 < delta):
        raise DomainError(f"slice width must be positive and finite, got {delta}")
    substeps = int(np.ceil(1.0 / delta - COUNT_GUARD))
    basis = enumerate_basis(config.n)
    weights = weight_vector(config.n)
    gates: list[Gate] = []
    for mean in means:
        if mean.n != config.n:
            raise DomainError(f"mean qubit count {mean.n} does not match config {config.n}")
        if np.any((weights >= PENALIZED_WEIGHT) & (mean.values != 0.0)):
            raise ValidationError(
                "slice mean has weight-three-or-higher support; apply the projection first"
            )
        worst = float(np.max(np.abs(mean.values), initial=0.0))
        if worst > 1.0:
            raise CoefficientBoundError(worst)
        nonzero = np.flatnonzero(mean.values)
        slice_gates = [
            Gate(basis[i], float(mean.values[i] * delta * delta)) for i in nonzero
        ]
        if order == 2:
            half = [Gate(g.string, g.angle / 2.0) for g in slice_gates]
            slice_gates = half + half[::-1]
        for _ in range(substeps):
            gates.extend(slice_gates)
    return GateSequence(config.n, tuple(gates), delta)


def gate_product(sequence: GateSequence) -> Unitary:
    """Ordered product of the gates (later gates multiply on the left)."""
    dim = 2**sequence.n
    matrices = {str(s): s.matrix() for s in {g.string for g in sequence.gates}}
    eye = np.eye(dim, dtype=complex)
    state = eye.copy()
    for gate in sequence.gates:
        state = _rotation(gate.angle, eye, matrices[str(gate.string)]) @ state
    return Unitary(sequence.n, state)


#: Default substep width used to integrate linearly interpolated schedules.
LINEAR_ENDPOINT_STEP = 1e-3


def schedule_endpoint(schedule: Schedule, linear_step: float = LINEAR_ENDPOINT_STEP) -> Unitary:
    """Time-ordered evolution of the full (unprojected) schedule.

    Exact (up to eigendecomposition roundoff) for piecewise-constant
    schedules; linearly interpolated schedules are integrated with a
    midpoint product over substeps of width at most ``linear_step``.
    """
    state = np.eye(2**schedule.n, dtype=complex)
    knots = np.concatenate((schedule.times, [schedule.duration]))
    knots = np.unique(knots)
    for lo, hi in zip(knots[:-1], knots[1:]):
        width = float(hi - lo)
        if schedule.interpolation == "constant":
            h = reconstruct(CoeffVector(schedule.n, schedule.value_at(lo)))
            state = unitary_exp(h, width) @ state
        else:
            pieces = max(1, int(np.ceil(width / linear_step - COUNT_GUARD)))
            sub = width / pieces
            for i in range(pieces):
                mid = lo + (i + 0.5) * sub
                h = reconstruct(CoeffVector(schedule.n, schedule.value_at(mid)))
                state = unitary_exp(h, sub) @ state
    return Unitary(schedule.n, state)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Synthesis output with its length and endpoint-error accounting.

    ``rho_inf`` and ``rho_sup`` are the extreme per-gate rotation
    magnitudes (each gate is one chart segment of Euclidean length equal
    to its absolute angle), and ``synthesized_length`` is the total
    penalty-norm length of the gate path, ``sum_s |angle_s|``.
    """

    gate_sequence: GateSequence
    endpoint: Unitary
    gate_count: int
    synthesized_length: float
    endpoint_error: float
    rho_inf: float
    rho_sup: float

    def __post_init__(self):
        if self.gate_count != len(self.gate_sequence.gates):
            raise ValidationError(
                f"gate count {self.gate_count} does not match the sequence "
                f"({len(self.gate_sequence.gates)} gates)"
            )
        if self.rho_inf > self.rho_sup:
            raise ValidationError(
                f"rho_inf {self.rho_inf} exceeds rho_sup {self.rho_sup}"
            )
        if self.endpoint_error < 0 or not np.isfinite(self.endpoint_error):
            raise ValidationError("endpoint error must be finite and nonnegative")


def simulate(
    schedule: Schedule,
    config: MetricConfig,
    delta: float | str = "auto",
    order: int = 1,
    auto_constant: float = 1.0,
    optimizer_settings=None,
) -> SimulationResult:
    """Run the projection / slicing / synthesis pipeline on a schedule.

    ``delta="auto"`` chooses ``auto_constant / (n^2 * d_hat)`` where
    ``d_hat`` is the optimizer's distance upper bound for the schedule
    endpoint, clipped to the duration.  The reported ``endpoint_error``
    is the phase-aligned Frobenius distance between the gate product and
    the exact (unprojected) endpoint, normalized by ``2^(n/2)`` so the
    value is comparable across qubit counts.

    Raises ``DomainError`` before synthesizing when the slice count exceeds
    :data:`MAX_SLICES` or the closed-form gate count exceeds :data:`MAX_GATES`.
    """
    if schedule.n != config.n:
        raise DomainError(f"schedule qubit count {schedule.n} does not match config {config.n}")
    target = schedule_endpoint(schedule)
    if isinstance(delta, str):
        if delta != "auto":
            raise DomainError(f"delta must be a number or 'auto', got {delta!r}")
        from .paths import OptimizerSettings, distance_upper

        estimate = distance_upper(target, config, optimizer_settings or OptimizerSettings())
        if estimate.upper > 0:
            delta = min(auto_constant / (config.n**2 * estimate.upper), schedule.duration)
        else:
            delta = schedule.duration
    projected = project_schedule(schedule, config)
    slices = _slice_count(schedule.duration, delta)
    words = max(1, np.count_nonzero(np.any(projected.values != 0.0, axis=0)))
    gates = slices * np.ceil(1.0 / delta - COUNT_GUARD) * words * order
    if slices > MAX_SLICES or gates > MAX_GATES:
        raise DomainError(
            f"synthesis at delta {delta} needs {slices:.3g} slices and {gates:.3g} gates; "
            f"the limit is {MAX_SLICES} slices and {MAX_GATES} gates"
        )
    means = slice_mean(projected, delta)
    sequence = synthesize_gates(means, delta, config, order=order)
    endpoint = gate_product(sequence)
    error = phase_aligned_frobenius(endpoint.matrix, target.matrix) / 2 ** (config.n / 2)
    magnitudes = np.abs(sequence.angles())
    if magnitudes.size:
        length = float(np.sum(magnitudes))
        rho_inf = float(np.min(magnitudes))
        rho_sup = float(np.max(magnitudes))
    else:
        length = 0.0
        rho_inf = 0.0
        rho_sup = 0.0
    return SimulationResult(
        gate_sequence=sequence,
        endpoint=endpoint,
        gate_count=len(sequence.gates),
        synthesized_length=length,
        endpoint_error=float(error),
        rho_inf=rho_inf,
        rho_sup=rho_sup,
    )
