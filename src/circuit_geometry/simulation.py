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
from .errors import ValidationError
from .metric import PENALIZED_WEIGHT, MetricConfig
from .pauli import (CoeffVector, _as_float, _check_qubit_count, _positive, _words, reconstruct, weight_vector,
                    word_actions)

#: Guard for float division when counting slices and substeps: a duration
#: that is an exact multiple of delta must not gain a spurious extra slice.
COUNT_GUARD = 1e-12

#: Largest synthesis :func:`simulate` (and the scaling sweep) attempts.  Both
#: counts are known in closed form before anything is allocated.  The gate
#: count is slices x substeps x nonzero weight-<=2 words, with an empty
#: substep counted as one gate.  A gate is 16 bytes of sequence storage (an
#: int position and a float angle) and about 75 bytes of gates file at n = 6,
#: so the limit bounds the columns at 16 MB and the file at about 75 MB;
#: writing that file takes about 1.4 s and a 390 MB process peak (2-core Xeon VM).
#: :func:`gate_product` walks each distinct block once and powers its repeats,
#: so the limit bounds its time only for a sequence without repeated blocks
#: (one substep per slice, or a sequence built by hand): a walk of every
#: gate, about 21 us a gate at n = 6 on a 2-core Xeon VM, or 21 s at the limit.
#: A slice mean holds 4^n - 1 coefficients (32 KB at n = 6), so the slice
#: limit keeps the means within about 134 MB; the schedule reader holds a
#: file's segments, one such row each, to the same limit.  The largest
#: synthesis the benchmark runs (n = 6) has 40 slices and 21,600 gates.
MAX_GATES = 1_000_000
MAX_SLICES = 4096


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
        object.__setattr__(self, "duration", _as_float(self.duration))
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1:
            raise ValidationError("sample times must be a 1-d array")
        if times.size == 0:
            # the empty schedule is the identity path: no samples, no time
            if self.duration != 0.0:
                raise ValidationError(f"a schedule without samples has duration 0, got {self.duration}")
        else:
            _positive(self.duration, "duration")
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

    @classmethod
    def constant(cls, y: CoeffVector, duration: float) -> "Schedule":
        """Schedule that holds ``y`` for the whole duration."""
        return cls(y.n, np.zeros(1), y.values[None, :], duration)

    @classmethod
    def from_segments(cls, n: int, values, taus) -> "Schedule":
        """Piecewise-constant schedule holding ``values[j]`` for ``taus[j]``.

        Sample times are the sequential running sum of the durations, so
        :attr:`segments` returns every duration exactly whenever those sums
        are exact (as they are for dyadic durations).  No segments give the
        empty schedule.  A segment too short to advance the running sum, or
        that carries it past the largest float, raises ``ValidationError``.
        """
        times = [0.0]
        for index, tau in enumerate(taus):
            tau = _positive(tau, f"segment {index} duration")
            start, end = times[-1], times[-1] + tau
            if not np.isfinite(end):
                raise ValidationError(f"segment {index} (tau {tau}) ends past the largest float, from time {start}")
            if end == start:
                raise ValidationError(
                    f"segment {index} (tau {tau}) is below the float resolution of its start time "
                    f"{start}: it would be lost"
                )
            times.append(end)
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
            raise ValidationError("the empty schedule has no values")
        if not 0.0 <= t <= self.duration:
            raise ValidationError(f"time {t} outside [0, {self.duration}]")
        index = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[index].copy()


def _slice_count(duration: float, delta: float) -> float:
    """Number of width-``delta`` slices covering ``duration``, as a float (may be huge)."""
    delta = _positive(delta, "slice width")
    if delta > duration * (1.0 + COUNT_GUARD):
        raise ValidationError(f"slice width {delta} exceeds the duration {duration}")
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


def _mean(schedule: Schedule, lo: float, hi: float) -> np.ndarray:
    """Exact mean of the signal over ``[lo, hi]``: inside one segment, that segment's row."""
    interior = schedule.times[(schedule.times > lo) & (schedule.times < hi)]
    if interior.size == 0:
        return schedule.value_at(lo)
    knots = np.concatenate(([lo], interior, [hi]))
    total = np.zeros(schedule.values.shape[1])
    for a, b in zip(knots[:-1], knots[1:]):
        total += (b - a) * schedule.value_at(a)
    return total / (hi - lo)


def slice_mean(schedule: Schedule, delta: float) -> list[CoeffVector]:
    """Mean coefficient vector over each width-``delta`` slice.

    Integrals are taken piece by piece between sample times, so the means
    are exact; the truncated final slice is averaged over its true width.
    A slice inside one segment gets that segment's row bit for bit, so
    equal slices have equal means.
    """
    edges = slice_edges(schedule.duration, delta)
    return [CoeffVector(schedule.n, _mean(schedule, lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def project_schedule(schedule: Schedule, config: MetricConfig) -> Schedule:
    """Apply the weight projection to every sample row."""
    if schedule.n != config.n:
        raise ValidationError(f"schedule qubit count {schedule.n} does not match config {config.n}")
    kept = np.where(weight_vector(schedule.n) < PENALIZED_WEIGHT, schedule.values, 0.0)
    return Schedule(schedule.n, schedule.times, kept, schedule.duration)


def _rotate(state: np.ndarray, angle: float, source: np.ndarray, phase: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """Overwrite ``state`` with ``exp(-i angle sigma) @ state`` and return it.

    :func:`gate_product` applies it once per gate of each distinct block;
    ``source`` and ``phase`` are the row of :func:`word_actions` at the
    gate's position, so
    ``sigma @ state == phase[:, None] * state[source]``.  The exponential
    closes in two terms, ``cos(angle) I - i sin(angle) sigma``, because
    ``sigma`` is involutory.  ``sigma @ state`` is exact, so each entry is two
    rounded products and one rounded sum, as in
    ``cos(angle) * state - 1j * sin(angle) * (sigma @ state)``.  ``scratch``
    is a buffer of the shape of ``state``.
    """
    # every source index is in range; "wrap" only skips the bounds check that buffers ``out``
    state.take(source, axis=0, out=scratch, mode="wrap")
    scratch *= (-1j * np.sin(angle) * phase)[:, None]
    state *= np.cos(angle)
    state += scratch
    return state


@dataclass(frozen=True, eq=False)
class GateSequence:
    """Synthesized circuit as two read-only columns in application order: gate
    ``s`` is ``exp(-i angles[s] sigma_k)`` for the weight-<=2 basis word at
    canonical position ``k = gates[s]``.

    ``delta`` is the slice width the sequence was synthesized at; each
    substep spans ``delta / ceil(1/delta)`` of evolution time.
    """

    n: int
    gates: np.ndarray
    angles: np.ndarray
    delta: float

    def __post_init__(self):
        gates = np.asarray(self.gates)
        angles = np.array(self.angles, dtype=float)
        if gates.size and gates.dtype.kind not in "iu":
            raise ValidationError(f"gate positions must be integers, got dtype {gates.dtype}")
        gates = gates.astype(np.intp)
        if gates.ndim != 1 or gates.shape != angles.shape:
            raise ValidationError(f"gates {gates.shape} and angles {angles.shape} must be 1-d of one length")
        words = 4**self.n - 1
        _refuse_first((gates < 0) | (gates >= words), gates, angles, f"position outside 0..{words - 1}")
        _refuse_first(weight_vector(self.n)[gates] > 2, gates, angles, "word of weight above two", self.n)
        _refuse_first(~np.isfinite(angles), gates, angles, "non-finite angle", self.n)
        object.__setattr__(self, "delta", _positive(self.delta, "'delta'"))
        gates.flags.writeable = False
        angles.flags.writeable = False
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "angles", angles)

    @property
    def substep(self) -> float:
        """Evolution time spanned by one substep."""
        return self.delta * (1.0 / _substeps(self.delta))


def _refuse_first(bad: np.ndarray, gates: np.ndarray, angles: np.ndarray, what: str,
                  n: int | None = None) -> None:
    """Raise ``ValidationError`` naming the first gate flagged in ``bad``, if any: by the
    letters of its word on ``n`` qubits, or by its position when there is no ``n``."""
    if np.any(bad):
        index = int(np.argmax(bad))
        word = f"position {gates[index]}" if n is None else _words(n)[0][gates[index]]
        raise ValidationError(f"gate {index} ({word}, angle {angles[index]}) has a {what}")


def _substeps(delta: float) -> float:
    """Substeps per width-``delta`` slice, ``ceil(1/delta)``, as a float (may be huge)."""
    return float(np.ceil(1.0 / delta - COUNT_GUARD))


def synthesize_gates(means, delta: float, config: MetricConfig) -> GateSequence:
    """Expand slice means into first-order products of single-word rotations.

    Each slice contributes ``m = ceil(1/delta)`` substeps, which together
    span the slice width ``delta``.  A substep emits one gate
    ``exp(-i y_i sigma_i delta / m)`` per nonzero coefficient in canonical
    basis order.

    Raises ``ValidationError`` when any mean coefficient exceeds 1 in
    magnitude or a mean has weight-three support (project first).
    """
    delta = _positive(delta, "slice width")
    substeps = _substeps(delta)
    # a substep spans delta * (1 / substeps), which is delta * delta at delta = 1/m
    fraction = 1.0 / substeps
    weights = weight_vector(config.n)
    gates = [np.empty(0, dtype=np.intp)]
    angles = [np.empty(0)]
    for mean in means:
        if mean.n != config.n:
            raise ValidationError(f"mean qubit count {mean.n} does not match config {config.n}")
        if np.any((weights >= PENALIZED_WEIGHT) & (mean.values != 0.0)):
            raise ValidationError(
                "slice mean has weight-three-or-higher support; apply the projection first"
            )
        worst = float(np.max(np.abs(mean.values), initial=0.0))
        if worst > 1.0:
            raise ValidationError(
                f"slice-mean coefficient {worst:.6f} exceeds 1 in absolute value; "
                "rescale the schedule (the gate-angle accounting assumes |y_i| <= 1)"
            )
        words = np.flatnonzero(mean.values)
        slice_angles = mean.values[words] * delta * fraction
        gates.append(np.tile(words, int(substeps)))
        angles.append(np.tile(slice_angles, int(substeps)))
    return GateSequence(config.n, np.concatenate(gates), np.concatenate(angles), delta)


def _block_runs(gates: np.ndarray, angles: np.ndarray) -> list[tuple[int, int, int]]:
    """``(lo, hi, count)`` per run of equal blocks, in order: gates ``lo:hi``
    are one block, and it repeats ``count`` times back to back.

    A block is a maximal stretch of strictly increasing positions, as
    :func:`synthesize_gates` emits each substep; a run is a stretch of
    adjacent blocks equal in positions and angles.
    """
    if gates.size == 0:
        return []
    edges = np.concatenate(([0], np.flatnonzero(np.diff(gates) <= 0) + 1, [gates.size]))
    lengths = np.diff(edges)
    # a block repeats its predecessor when it is as long and each gate equals
    # the gate one block earlier
    same_length = np.repeat(np.concatenate(([False], lengths[1:] == lengths[:-1])), lengths)
    earlier = np.where(same_length, np.arange(gates.size) - np.repeat(lengths, lengths), 0)
    match = same_length & (gates == gates[earlier]) & (angles == angles[earlier])
    firsts = np.flatnonzero(~np.logical_and.reduceat(match, edges[:-1]))
    counts = np.diff(np.append(firsts, lengths.size))
    return list(zip(edges[firsts].tolist(), edges[firsts + 1].tolist(), counts.tolist()))


def gate_product(sequence: GateSequence) -> Unitary:
    """Ordered product of the gates (later gates multiply on the left).

    A block that runs once is applied to the state gate by gate.  A block
    repeated ``r`` times (the substeps of a slice, and of adjacent slices
    with one mean) is formed once from the identity and applied as its
    ``r``-th matrix power.
    """
    dim = 2**sequence.n
    source, phase = word_actions(sequence.n)
    gates, angles = sequence.gates.tolist(), sequence.angles.tolist()
    state = np.eye(dim, dtype=complex)
    scratch = np.empty_like(state)
    for lo, hi, count in _block_runs(sequence.gates, sequence.angles):
        block = state if count == 1 else np.eye(dim, dtype=complex)
        for k, angle in zip(gates[lo:hi], angles[lo:hi]):
            _rotate(block, angle, source[k], phase[k], scratch)
        if count > 1:
            state = np.linalg.matrix_power(block, count) @ state
    return Unitary(sequence.n, state)


def schedule_endpoint(schedule: Schedule) -> Unitary:
    """Time-ordered evolution of the full (unprojected) schedule, exact up to
    eigendecomposition roundoff.  A leg equal to the previous one reuses its propagator."""
    state = np.eye(2**schedule.n, dtype=complex)
    leg = step = None
    for row, tau in schedule.segments:
        if leg is None or tau != leg[1] or not np.array_equal(row, leg[0]):
            leg, step = (row, tau), unitary_exp(reconstruct(CoeffVector(schedule.n, row)), tau)
        state = step @ state
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
    synthesized_length: float
    endpoint_error: float
    rho_inf: float
    rho_sup: float

    def __post_init__(self):
        if self.rho_inf > self.rho_sup:
            raise ValidationError(
                f"rho_inf {self.rho_inf} exceeds rho_sup {self.rho_sup}"
            )
        if self.endpoint_error < 0 or not np.isfinite(self.endpoint_error):
            raise ValidationError("endpoint error must be finite and nonnegative")

    @property
    def gate_count(self) -> int:
        return self.gate_sequence.gates.size


def _synthesize(schedule: Schedule, config: MetricConfig, delta: float) -> GateSequence:
    """Project, slice and synthesize ``schedule``, refusing an oversize synthesis first."""
    if schedule.n != config.n:
        raise ValidationError(f"schedule qubit count {schedule.n} does not match config {config.n}")
    projected = project_schedule(schedule, config)
    slices = _slice_count(schedule.duration, delta)
    words = max(1, np.count_nonzero(np.any(projected.values != 0.0, axis=0)))
    gates = slices * _substeps(delta) * words
    if slices > MAX_SLICES or gates > MAX_GATES:
        raise ValidationError(
            f"synthesis at delta {delta} needs {slices:.3g} slices and {gates:.3g} gates; "
            f"the limit is {MAX_SLICES} slices and {MAX_GATES} gates"
        )
    means = slice_mean(projected, delta)
    # every slice is synthesized delta long: rescale the truncated last one to its
    # width in slices, which is exactly 1 when the duration is a float multiple of delta
    width = schedule.duration / delta - (len(means) - 1)
    means[-1] = CoeffVector(config.n, means[-1].values * width)
    return synthesize_gates(means, delta, config)


def simulate(schedule: Schedule, config: MetricConfig, delta: float) -> SimulationResult:
    """Run the projection / slicing / synthesis pipeline on a schedule.

    ``delta`` is the numeric slice width (``cgeo simulate --delta auto``
    derives one from a distance estimate).  The reported
    ``endpoint_error`` is the phase-aligned Frobenius distance between the
    gate product and the exact (unprojected) endpoint, normalized by
    ``2^(n/2)`` so the value is comparable across qubit counts.

    Raises ``ValidationError`` before synthesizing when the slice count exceeds
    :data:`MAX_SLICES` or the closed-form gate count exceeds :data:`MAX_GATES`.
    """
    sequence = _synthesize(schedule, config, delta)
    target = schedule_endpoint(schedule)
    endpoint = gate_product(sequence)
    error = phase_aligned_frobenius(endpoint.matrix, target.matrix) / 2 ** (config.n / 2)
    magnitudes = np.abs(sequence.angles)
    return SimulationResult(
        gate_sequence=sequence,
        endpoint=endpoint,
        synthesized_length=float(np.sum(magnitudes)),
        endpoint_error=float(error),
        rho_inf=float(np.min(magnitudes)) if magnitudes.size else 0.0,
        rho_sup=float(np.max(magnitudes, initial=0.0)),
    )
