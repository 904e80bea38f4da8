"""Gate synthesis for control schedules under the weight-two restriction.

The pipeline has three steps: project away every weight-three-or-higher
coefficient, average the projected signal over slices of width ``delta``,
and expand each slice mean into a first-order product of single-word
rotations.  A schedule is piecewise-constant; a smooth or adiabatic control
is sampled into constant segments first.  Each slice becomes
``m = ceil(1/delta)`` substeps of ``delta / m`` time each, and each substep
emits one gate ``exp(-i y_i sigma_i delta / m)`` per nonzero coefficient, so
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

#: Largest synthesis :func:`simulate` (and the scaling sweep) attempts.  Both
#: counts are known in closed form before anything is allocated.  The gate
#: count is slices x substeps x nonzero weight-<=2 words, with an empty
#: substep counted as one gate.  A gate holds about 16 bytes of sequence storage and costs
#: one dense product (about 60 us at n = 6 on a 2-core Xeon VM).  A slice
#: mean holds 4^n - 1 coefficients (32 KB at n = 6), so the slice limit keeps
#: the means within about 134 MB.  The largest synthesis the benchmark runs
#: (n = 6) has 40 slices and 21,600 gates.
MAX_GATES = 1_000_000
MAX_SLICES = 4096

#: Largest distance witness, in coefficients (legs x (4^n - 1)), checked before
#: it is built.  At the limit (16,644 legs at n = 3, 256 at n = 6) a ``cgeo
#: distance`` report is about 45 MB and the run peaks at 366 MB (n = 3) and
#: 606 MB (n = 6, with the 268 MB dense basis stack), on a 2-core Xeon VM.
MAX_WITNESS_COEFFICIENTS = 1 << 20


@dataclass(frozen=True, eq=False)
class Schedule:
    """Piecewise-constant control signal ``y(t)`` on ``[0, duration]``.

    ``times`` are strictly increasing sample times starting at 0 and ending
    before ``duration``, and ``values`` holds one coefficient row per
    sample.  The signal holds each row until the next sample, and the final
    row until ``duration``.
    """

    n: int
    times: np.ndarray
    values: np.ndarray
    duration: float

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
            if times[-1] >= self.duration:
                raise ValidationError("sample times must lie before the duration")
        expected = (times.size, 4**self.n - 1)
        if values.shape != expected:
            raise ValidationError(f"values must have shape {expected}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("schedule values must be finite")
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
    def piecewise(cls, n: int, samples, duration: float) -> "Schedule":
        """Build from ``(time, CoeffVector-or-array)`` pairs."""
        times = []
        rows = []
        for t, y in samples:
            times.append(float(t))
            rows.append(y.values if isinstance(y, CoeffVector) else np.asarray(y, dtype=float))
        return cls(n, np.array(times), np.array(rows), duration)

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
        """``(row, tau)`` legs in time order."""
        taus = np.diff(np.append(self.times, self.duration))
        return tuple(zip(self.values, taus.tolist()))

    def value_at(self, t: float) -> np.ndarray:
        """Signal value at time ``t`` (held constant past the last sample)."""
        if self.times.size == 0:
            raise DomainError("the empty schedule has no values")
        if not 0.0 <= t <= self.duration:
            raise DomainError(f"time {t} outside [0, {self.duration}]")
        index = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[index].copy()


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
    """Exact integral of the signal over ``[lo, hi]``."""
    interior = schedule.times[(schedule.times > lo) & (schedule.times < hi)]
    knots = np.concatenate(([lo], interior, [hi]))
    total = np.zeros(schedule.values.shape[1])
    for a, b in zip(knots[:-1], knots[1:]):
        total += (b - a) * schedule.value_at(a)
    return total


def slice_mean(schedule: Schedule, delta: float) -> list[CoeffVector]:
    """Mean coefficient vector over each width-``delta`` slice.

    Integrals are taken piece by piece between sample times, so the means
    are exact; the truncated final slice is averaged over its true width.
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
    return Schedule(schedule.n, schedule.times, kept, schedule.duration)


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
    substep spans ``delta / ceil(1/delta)`` of evolution time.
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
        return self.delta * (1.0 / _substeps(self.delta))

    def angles(self) -> np.ndarray:
        return np.array([gate.angle for gate in self.gates])


def _substeps(delta: float) -> float:
    """Substeps per width-``delta`` slice, ``ceil(1/delta)``, as a float (may be huge)."""
    return float(np.ceil(1.0 / delta - COUNT_GUARD))


def synthesize_gates(
    means, delta: float, config: MetricConfig, order: int = 1
) -> GateSequence:
    """Expand slice means into products of single-word rotations.

    Each slice contributes ``m = ceil(1/delta)`` substeps, which together
    span the slice width ``delta``.  With ``order=1`` a substep emits one
    gate ``exp(-i y_i sigma_i delta / m)`` per nonzero coefficient in
    canonical basis order; ``order=2`` emits the
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
    substeps = _substeps(delta)
    # a substep spans delta * (1 / substeps), which is delta * delta at delta = 1/m
    fraction = 1.0 / substeps
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
            Gate(basis[i], float(mean.values[i] * delta * fraction)) for i in nonzero
        ]
        if order == 2:
            half = [Gate(g.string, g.angle / 2.0) for g in slice_gates]
            slice_gates = half + half[::-1]
        for _ in range(int(substeps)):
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


def schedule_endpoint(schedule: Schedule) -> Unitary:
    """Time-ordered evolution of the full (unprojected) schedule, exact up to
    eigendecomposition roundoff."""
    state = np.eye(2**schedule.n, dtype=complex)
    for row, tau in schedule.segments:
        state = unitary_exp(reconstruct(CoeffVector(schedule.n, row)), tau) @ state
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


def _synthesize(schedule: Schedule, config: MetricConfig, delta: float) -> GateSequence:
    """Project, slice and synthesize ``schedule``, refusing an oversize synthesis first."""
    if schedule.n != config.n:
        raise DomainError(f"schedule qubit count {schedule.n} does not match config {config.n}")
    projected = project_schedule(schedule, config)
    slices = _slice_count(schedule.duration, delta)
    words = max(1, np.count_nonzero(np.any(projected.values != 0.0, axis=0)))
    gates = slices * _substeps(delta) * words
    if slices > MAX_SLICES or gates > MAX_GATES:
        raise DomainError(
            f"synthesis at delta {delta} needs {slices:.3g} slices and {gates:.3g} gates; "
            f"the limit is {MAX_SLICES} slices and {MAX_GATES} gates"
        )
    means = slice_mean(projected, delta)
    # every slice is synthesized delta long: rescale the truncated last one to its width
    edges = slice_edges(schedule.duration, delta)
    means[-1] = CoeffVector(config.n, means[-1].values * ((edges[-1] - edges[-2]) / delta))
    return synthesize_gates(means, delta, config)


def simulate(schedule: Schedule, config: MetricConfig, delta: float) -> SimulationResult:
    """Run the projection / slicing / synthesis pipeline on a schedule.

    ``delta`` is the numeric slice width (``cgeo simulate --delta auto``
    derives one from a distance estimate).  The reported
    ``endpoint_error`` is the phase-aligned Frobenius distance between the
    gate product and the exact (unprojected) endpoint, normalized by
    ``2^(n/2)`` so the value is comparable across qubit counts.

    Raises ``DomainError`` before synthesizing when the slice count exceeds
    :data:`MAX_SLICES` or the closed-form gate count exceeds :data:`MAX_GATES`.
    """
    sequence = _synthesize(schedule, config, delta)
    target = schedule_endpoint(schedule)
    endpoint = gate_product(sequence)
    error = phase_aligned_frobenius(endpoint.matrix, target.matrix) / 2 ** (config.n / 2)
    magnitudes = np.abs(sequence.angles())
    return SimulationResult(
        gate_sequence=sequence,
        endpoint=endpoint,
        gate_count=len(sequence.gates),
        synthesized_length=float(np.sum(magnitudes)),
        endpoint_error=float(error),
        rho_inf=float(np.min(magnitudes)) if magnitudes.size else 0.0,
        rho_sup=float(np.max(magnitudes, initial=0.0)),
    )
