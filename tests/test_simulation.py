"""Schedules, slicing, projection, gate synthesis, and the pipeline."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuit_geometry import (
    CoeffVector,
    GateSequence,
    MetricConfig,
    PauliString,
    Schedule,
    SimulationResult,
    Unitary,
    ValidationError,
    distance_upper,
    enumerate_basis,
    gate_product,
    identity,
    project_schedule,
    reconstruct,
    schedule_endpoint,
    simulate,
    slice_mean,
    synthesize_gates,
    unitary_exp,
    weight_vector,
    word_actions,
)
from circuit_geometry import simulation
from circuit_geometry.io import load_schedule, schedule_from_dict
from circuit_geometry.simulation import _rotate, _synthesize, slice_edges
from util import chain_schedule, dense_gate_product

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _position(n, word):
    return [str(s) for s in enumerate_basis(n)].index(word)


def _coeffs(n, words):
    values = np.zeros(4**n - 1)
    for word, value in words.items():
        values[_position(n, word)] = value
    return CoeffVector(n, values)


def _sequence(n, pairs, delta=0.5):
    """Gate sequence from ``(word, angle)`` pairs in application order."""
    return GateSequence(n, [_position(n, word) for word, _ in pairs], [a for _, a in pairs], delta)


XI_ZZ = _coeffs(2, {"XI": 0.8, "ZZ": 0.6})


def test_schedule_validation():
    good = Schedule(1, np.array([0.0, 0.5]), np.zeros((2, 3)), 1.0)
    assert good.duration == 1.0
    with pytest.raises(ValidationError):
        Schedule(1, np.array([0.1, 0.5]), np.zeros((2, 3)), 1.0)  # must start at 0
    with pytest.raises(ValidationError):
        Schedule(1, np.array([0.0, 0.0]), np.zeros((2, 3)), 1.0)  # not increasing
    with pytest.raises(ValidationError):
        Schedule(1, np.array([0.0, 2.0]), np.zeros((2, 3)), 1.0)  # beyond duration
    with pytest.raises(ValidationError):
        Schedule(1, np.array([0.0]), np.zeros((1, 4)), 1.0)  # wrong width
    with pytest.raises(ValidationError):
        Schedule(1, np.array([0.0]), np.full((1, 3), np.nan), 1.0)
    with pytest.raises(ValidationError):
        Schedule(1, np.array([0.0]), np.zeros((1, 3)), 0.0)
    # the empty schedule (the identity path) has no samples and no duration
    empty = Schedule(1, np.array([]), np.zeros((0, 3)), 0.0)
    with pytest.raises(ValidationError, match="the empty schedule has no values"):
        empty.value_at(0.0)
    with pytest.raises(ValidationError):
        Schedule(1, np.array([]), np.zeros((0, 3)), 1.0)


def test_schedule_rejects_sample_at_duration():
    # a last sample at the duration would be a zero-length segment, which
    # the schedule format cannot hold (every tau must be positive)
    with pytest.raises(ValidationError, match="before the duration"):
        Schedule(1, np.array([0.0, 1.0]), np.zeros((2, 3)), 1.0)


def test_value_at_constant_hold():
    sched = Schedule(1, np.array([0.0, 0.5]), np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1.0)
    assert sched.value_at(0.0)[0] == 1.0
    assert sched.value_at(0.49)[0] == 1.0
    assert sched.value_at(0.5)[0] == 2.0
    assert sched.value_at(1.0)[0] == 2.0
    with pytest.raises(ValidationError, match=r"time 1.5 outside \[0, 1.0\]"):
        sched.value_at(1.5)


def test_slice_edges_exact_multiples():
    edges = slice_edges(1.0, 0.1)
    assert edges.size == 11  # no spurious extra slice from 1/0.1 rounding up
    assert edges[0] == 0.0
    assert edges[-1] == 1.0


def test_slice_edges_truncated_final():
    edges = slice_edges(1.0, 0.3)
    assert edges.size == 5
    assert edges[-1] == 1.0
    assert edges[-1] - edges[-2] == pytest.approx(0.1, abs=1e-12)


def test_slice_edges_domain():
    with pytest.raises(ValidationError, match="slice width must be positive and finite, got 0.0"):
        slice_edges(1.0, 0.0)
    with pytest.raises(ValidationError, match="slice width 2.0 exceeds the duration 1.0"):
        slice_edges(1.0, 2.0)


def test_slice_mean_constant():
    sched = Schedule.constant(XI_ZZ, 1.0)
    means = slice_mean(sched, 0.25)
    assert len(means) == 4
    for mean in means:
        assert np.array_equal(mean.values, XI_ZZ.values)


def test_slice_mean_inside_a_segment_is_the_segment_row():
    # widths such as 0.15000000000000002 - 0.1 would round (w * row) / w in its last bit
    schedule = schedule_from_dict(chain_schedule(np.random.default_rng(11), 3, 2.0))
    means = slice_mean(schedule, 0.05)
    assert len(means) == 40
    for index, mean in enumerate(means):
        assert np.array_equal(mean.values, schedule.values[index // 10]), index


def test_slice_mean_two_halves_exact():
    a = np.array([0.3, 0.0, -1.1])
    b = np.array([0.7, 0.4, 0.1])
    sched = Schedule(1, np.array([0.0, 0.25]), np.array([a, b]), 0.5)
    (mean,) = slice_mean(sched, 0.5)
    assert np.array_equal(mean.values, (a + b) / 2.0)


def test_slice_mean_truncated_width():
    # final slice covers [0.9, 1.0]; its mean is taken over width 0.1
    sched = Schedule(1, np.array([0.0, 0.95]), np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]), 1.0)
    means = slice_mean(sched, 0.3)
    # over [0.9, 1.0]: 0.05 at value 1 and 0.05 at value 3, mean 2
    assert means[-1].values[0] == pytest.approx(2.0, abs=1e-12)


def test_projection_zeroes_heavy_words():
    cfg = MetricConfig(3, 8.0)
    values = np.arange(1.0, 64.0)
    projected = project_schedule(Schedule.constant(CoeffVector(3, values), 1.0), cfg).values[0]
    weights = weight_vector(3)
    assert np.all(projected[weights >= 3] == 0.0)
    assert np.array_equal(projected[weights <= 2], values[weights <= 2])


def test_projection_identity_when_no_heavy_words():
    cfg = MetricConfig(2, 8.0)
    values = np.arange(1.0, 16.0)
    projected = project_schedule(Schedule.constant(CoeffVector(2, values), 1.0), cfg)
    assert np.array_equal(projected.values[0], values)


def test_project_schedule_rows():
    cfg = MetricConfig(3, 8.0)
    rng = np.random.default_rng(0)
    sched = Schedule(3, np.array([0.0, 0.5]), rng.normal(size=(2, 63)), 1.0)
    projected = project_schedule(sched, cfg)
    assert np.all(projected.values[:, weight_vector(3) >= 3] == 0.0)
    assert projected.duration == sched.duration


def test_gate_matrix_oracle():
    # a one-gate product is cos(a) I - i sin(a) sigma, bit for bit, for every
    # word at n = 1..4; words above weight two, which no sequence holds, go
    # through the rotation helper that gate_product applies
    for n in (1, 2, 3, 4):
        eye = np.eye(2**n)
        source, phase = word_actions(n)
        for k, word in enumerate(enumerate_basis(n)):
            sigma = word.matrix()
            for angle in (0.3, -1.1, 1e-3, 2.5):
                want = np.cos(angle) * eye - 1j * np.sin(angle) * sigma
                if word.weight <= 2:
                    got = gate_product(GateSequence(n, [k], [angle], 0.5)).matrix
                else:
                    state = np.eye(2**n, dtype=complex)
                    got = _rotate(state, angle, source[k], phase[k], np.empty_like(state))
                assert np.array_equal(got, want), (str(word), angle)


def test_gate_sequence_validation():
    with pytest.raises(ValidationError, match="gate 1 .*weight above two"):
        GateSequence(3, [0, _position(3, "XXX")], [0.1, 0.1], 0.1)
    with pytest.raises(ValidationError, match="gate 0 .*outside 0..14"):
        GateSequence(2, [15], [0.1], 0.1)
    with pytest.raises(ValidationError, match="outside"):
        GateSequence(2, [-1], [0.1], 0.1)
    with pytest.raises(ValidationError, match="one length"):
        GateSequence(2, [0, 1], [0.1], 0.1)
    with pytest.raises(ValidationError, match="one length"):
        GateSequence(2, [[0, 1]], [[0.1, 0.2]], 0.1)
    with pytest.raises(ValidationError, match="gate 1 .*non-finite angle"):
        GateSequence(2, [0, 1], [0.1, np.nan], 0.1)
    with pytest.raises(ValidationError, match="integers"):
        GateSequence(2, [0.0], [0.1], 0.1)
    with pytest.raises(ValidationError):
        GateSequence(2, [], [], 0.0)
    seq = GateSequence(2, [_position(2, "XZ")], [0.01], 0.1)
    assert seq.substep == pytest.approx(0.01)
    # the columns are read-only copies of the input
    words = np.array([0, 1])
    seq = GateSequence(2, words, [0.1, 0.2], 0.1)
    words[0] = 5
    assert seq.gates.tolist() == [0, 1]
    for column in (seq.gates, seq.angles):
        with pytest.raises(ValueError):
            column[0] = 1


@pytest.mark.parametrize("gates, angles, delta, message", [
    ([0, "XYZ"], [0.1, 0.2], 0.1, "gate 1 (XYZ, angle 0.2) has a word of weight above two"),
    (["ZI", "IX"], [0.1, float("inf")], 0.1, "gate 1 (IX, angle inf) has a non-finite angle"),
    ([15], [0.1], 0.1, "gate 0 (position 15, angle 0.1) has a position outside 0..14"),
    ([0], [0.1], float("nan"), "'delta' must be positive and finite, got nan"),
], ids=["weight", "angle", "position", "delta"])
def test_gate_sequence_names_a_refused_gate_by_its_letters(gates, angles, delta, message):
    # a position out of range has no letters, so it is named by its position
    n = 3 if "XYZ" in gates else 2
    positions = [_position(n, word) if isinstance(word, str) else word for word in gates]
    with pytest.raises(ValidationError) as caught:
        GateSequence(n, positions, angles, delta)
    assert str(caught.value) == message


def test_from_segments_refuses_a_running_time_past_the_largest_float():
    with pytest.raises(ValidationError) as caught:
        Schedule.from_segments(1, np.zeros((2, 3)), [1e308, 1e308])
    assert str(caught.value) == "segment 1 (tau 1e+308) ends past the largest float, from time 1e+308"


def test_synthesize_counts_and_angles():
    cfg = MetricConfig(2, 1.0)
    means = slice_mean(Schedule.constant(XI_ZZ, 1.0), 0.2)
    seq = synthesize_gates(means, 0.2, cfg)
    # 5 slices x 5 substeps x 2 nonzero terms
    assert seq.gates.size == 50
    words = [str(enumerate_basis(2)[k]) for k in seq.gates[:2]]
    assert words == ["XI", "ZZ"]  # canonical order within a substep
    assert seq.angles[0] == 0.8 * 0.2 * 0.2
    assert seq.angles[1] == 0.6 * 0.2 * 0.2


def test_synthesize_non_integral_substeps():
    cfg = MetricConfig(1, 1.0)
    y = _coeffs(1, {"X": 0.5})
    means = slice_mean(Schedule.constant(y, 0.9), 0.3)
    seq = synthesize_gates(means, 0.3, cfg)
    # 3 slices x ceil(1/0.3)=4 substeps x 1 term
    assert len(seq.gates) == 12


def test_synthesis_evolves_for_the_schedule_duration():
    # one word commutes with itself, so the gate angles must add up to
    # y * duration: 4 slices (the last 0.1 wide) of ceil(1/0.3) = 4 substeps
    cfg = MetricConfig(1, 1.0)
    y = _coeffs(1, {"X": 0.5})
    result = simulate(Schedule.constant(y, 1.0), cfg, 0.3)
    assert result.gate_count == 16
    assert result.synthesized_length == pytest.approx(0.5, abs=1e-15)
    assert result.gate_sequence.substep == pytest.approx(0.075, abs=1e-17)
    assert result.endpoint_error < 1e-12


def test_simulate_schedule2_non_integral_substeps():
    # delta = 0.3: 1/delta is not an integer and the last slice is truncated
    schedule = load_schedule(os.path.join(GOLDEN_INPUTS, "schedule2.json"))
    result = simulate(schedule, MetricConfig(schedule.n, 4.0), 0.3)
    assert result.endpoint_error < 0.02


def test_synthesize_rejects_heavy_support():
    cfg = MetricConfig(3, 8.0)
    with pytest.raises(ValidationError):
        synthesize_gates([_coeffs(3, {"XXX": 0.1})], 0.2, cfg)


def test_synthesize_rejects_large_coefficients():
    cfg = MetricConfig(1, 1.0)
    with pytest.raises(ValidationError, match="slice-mean coefficient 1.500000 exceeds 1 in absolute value"):
        synthesize_gates([_coeffs(1, {"X": 1.5})], 0.2, cfg)


def test_gate_product_oracle():
    seq = _sequence(1, [("X", 0.4)])
    want = unitary_exp(PauliString("X").matrix(), 0.4)
    assert np.max(np.abs(gate_product(seq).matrix - want)) < 1e-14


def test_gate_product_ordering():
    seq = _sequence(1, [("X", 0.9), ("Z", 0.8)])
    gx, gz = (gate_product(_sequence(1, [pair])).matrix for pair in (("X", 0.9), ("Z", 0.8)))
    want = gz @ gx
    assert np.max(np.abs(gate_product(seq).matrix - want)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gate_product_matches_dense_loop_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    local = np.flatnonzero(weight_vector(n) <= 2)
    gates = local[rng.integers(len(local), size=400)]
    sequence = GateSequence(n, gates, rng.uniform(-0.05, 0.05, size=400), 0.1)
    assert np.array_equal(gate_product(sequence).matrix, dense_gate_product(sequence))


def test_gate_product_matches_dense_loop_on_a_six_qubit_chain():
    schedule = schedule_from_dict(chain_schedule(np.random.default_rng(11), 6, 0.5))
    sequence = _synthesize(schedule, MetricConfig(6, 64.0), 0.25)
    assert sequence.gates.size == 2 * 4 * 27
    # one substep block runs once, so it is walked gate by gate
    block = GateSequence(6, sequence.gates[:27], sequence.angles[:27], 0.25)
    assert np.array_equal(gate_product(block).matrix, dense_gate_product(block))
    # the full product takes each slice's block to its fourth power
    assert np.max(np.abs(gate_product(sequence).matrix - dense_gate_product(sequence))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    blocks=st.lists(st.tuples(st.lists(st.integers(0, 20), min_size=1, max_size=6), st.integers(0, 3)),
                    min_size=1, max_size=3),
    tiling=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), max_size=6),
    delta=st.floats(0.05, 3.0),
)
@example(n=2, blocks=[([0], 0)], tiling=[], delta=0.5)  # the empty sequence
@example(n=2, blocks=[([0, 2], 0)], tiling=[(0, 3), (0, 2)], delta=0.5)  # adjacent equal slices
@example(n=1, blocks=[([1], 0), ([1], 1)], tiling=[(0, 2), (1, 1), (0, 3)], delta=0.3)  # single words
@example(n=2, blocks=[([0, 2], 0), ([0, 2, 5], 0)], tiling=[(0, 2), (1, 2), (0, 1)], delta=0.5)  # prefix
@example(n=2, blocks=[([0, 2], 0), ([0, 2], 1)], tiling=[(0, 2), (1, 3)], delta=0.4)  # angles differ
@example(n=2, blocks=[([3, 4], 2)], tiling=[(0, 3)], delta=1.0)  # one substep per slice
@example(n=1, blocks=[([0], 0), ([1], 0), ([0, 1], 0)], tiling=[(0, 1), (1, 1), (2, 1)], delta=1.0)
def test_gate_product_of_tiled_blocks_matches_the_dense_walk(n, blocks, tiling, delta):
    # a block is sorted word positions with angles fixed by (position, seed), so two
    # blocks with one seed agree on the words they share; each slice tiles its block
    # m = ceil(1/delta) times, as synthesis does
    local = np.flatnonzero(weight_vector(n) <= 2)
    pool = []
    for picks, seed in blocks:
        positions = np.unique(local[np.array(picks) % local.size])
        pool.append((positions, 0.3 * np.sin(0.77 * positions + 1.3 * seed + 0.4)))
    substeps = int(np.ceil(1.0 / delta - simulation.COUNT_GUARD))
    gates, angles = [np.empty(0, dtype=int)], [np.empty(0)]
    for index, slices in tiling:
        positions, block_angles = pool[index % len(pool)]
        gates.append(np.tile(positions, slices * substeps))
        angles.append(np.tile(block_angles, slices * substeps))
    sequence = GateSequence(n, np.concatenate(gates), np.concatenate(angles), delta)
    product = gate_product(sequence)
    assert isinstance(product, Unitary) and product.n == n
    assert np.max(np.abs(product.matrix - dense_gate_product(sequence))) <= 1e-12


def test_gate_product_forms_each_distinct_run_once(monkeypatch):
    # bench-shaped: 40 slices of 20 substeps of 27 words, four distinct slice means
    config = MetricConfig(6, 64.0)
    schedule = schedule_from_dict(chain_schedule(np.random.default_rng(11), 6, 2.0))
    means = [CoeffVector(6, row) for row, tau in project_schedule(schedule, config).segments for _ in range(10)]
    sequence = synthesize_gates(means, 0.05, config)
    assert sequence.gates.size == 21_600
    calls = []

    def counting(*args):
        calls.append(1)
        return _rotate(*args)

    monkeypatch.setattr(simulation, "_rotate", counting)
    gate_product(sequence)
    assert len(calls) == 4 * 27
    # a synthesized schedule forms one run per segment: its slice means are the
    # segment rows bit for bit, and its full last slice is not rescaled
    calls.clear()
    gate_product(_synthesize(schedule, config, 0.05))
    assert len(calls) == 4 * 27


def test_gate_product_empty():
    assert np.array_equal(gate_product(GateSequence(2, [], [], 0.1)).matrix, np.eye(4))


def test_schedule_endpoint_constant_oracle():
    sched = Schedule.constant(XI_ZZ, 1.3)
    want = unitary_exp(reconstruct(XI_ZZ), 1.3)
    assert np.max(np.abs(schedule_endpoint(sched).matrix - want)) < 1e-12


def test_schedule_endpoint_piecewise_product():
    a = _coeffs(1, {"X": 0.4})
    b = _coeffs(1, {"Z": 1.1})
    sched = Schedule(1, np.array([0.0, 0.6]), np.array([a.values, b.values]), 1.0)
    want = unitary_exp(reconstruct(b), 0.4) @ unitary_exp(reconstruct(a), 0.6)
    assert np.max(np.abs(schedule_endpoint(sched).matrix - want)) < 1e-12


def _witness(n, legs):
    rng = np.random.default_rng(9)
    target = unitary_exp(reconstruct(CoeffVector(n, rng.uniform(-0.2, 0.2, size=4**n - 1))), 1.0)
    estimate = distance_upper(Unitary(n, target), MetricConfig(n, 4.0), legs)
    return estimate.witness


def _per_leg_endpoint(schedule):
    state = np.eye(2**schedule.n, dtype=complex)
    for row, tau in schedule.segments:
        state = unitary_exp(reconstruct(CoeffVector(schedule.n, row)), tau) @ state
    return state


def test_schedule_endpoint_diagonalises_equal_legs_once(monkeypatch):
    witness = _witness(3, 8)
    assert len(witness.segments) == 8
    calls = []

    def counting(*args):
        calls.append(args)
        return unitary_exp(*args)

    monkeypatch.setattr(simulation, "unitary_exp", counting)
    schedule_endpoint(witness)
    assert len(calls) == 1


def test_schedule_endpoint_matches_a_per_leg_loop_bit_for_bit():
    witness = _witness(2, 8)
    assert np.array_equal(schedule_endpoint(witness).matrix, _per_leg_endpoint(witness))
    # repeated and distinct legs interleaved: equal rows with another tau are new legs
    a, b = _coeffs(2, {"XI": 0.4, "ZZ": 0.3}).values, _coeffs(2, {"YX": -0.7}).values
    mixed = Schedule.from_segments(2, [a, a, b, b, a, a], [0.25, 0.25, 0.25, 0.5, 0.5, 0.5])
    assert np.array_equal(schedule_endpoint(mixed).matrix, _per_leg_endpoint(mixed))


def test_result_validation():
    seq = _sequence(1, [("X", 0.1)])
    point = gate_product(seq)
    with pytest.raises(ValidationError):
        SimulationResult(seq, point, 0.1, 0.0, 0.2, 0.1)
    with pytest.raises(ValidationError):
        SimulationResult(seq, point, 0.1, -1.0, 0.1, 0.1)
    # out-of-bounds lengths stay constructible: the sandwich checker is
    # the component that must flag them
    assert SimulationResult(seq, point, 99.0, 0.0, 0.1, 0.1).gate_count == 1


def test_simulate_accounting():
    cfg = MetricConfig(2, 1.0)
    sched = Schedule.constant(XI_ZZ, 1.0)
    result = simulate(sched, cfg, 0.1)
    assert result.gate_count == 200
    angles = np.abs(result.gate_sequence.angles)
    assert result.synthesized_length == np.sum(angles)
    assert result.rho_inf == np.min(angles)
    assert result.rho_sup == np.max(angles)
    assert result.endpoint_error < 5e-3


def test_simulate_error_shrinks_with_delta():
    cfg = MetricConfig(2, 1.0)
    sched = Schedule.constant(XI_ZZ, 1.0)
    errors = [simulate(sched, cfg, d).endpoint_error for d in (0.2, 0.1, 0.05)]
    assert errors[0] > errors[1] > errors[2]


def test_simulate_projs_heavy_directions():
    cfg = MetricConfig(3, 8.0)
    y = _coeffs(3, {"XII": 0.5, "XXX": 0.5})
    result = simulate(Schedule.constant(y, 0.5), cfg, 0.25)
    assert np.all(weight_vector(3)[result.gate_sequence.gates] <= 2)
    # the projected evolution cannot track the weight-3 part
    assert result.endpoint_error > 1e-3


def test_trotter_order_at_least_1p8():
    cfg = MetricConfig(2, 1.0)
    sched = Schedule.constant(XI_ZZ, 1.0)
    deltas = (0.2, 0.1, 0.05)
    errors = []
    for delta in deltas:
        mean = slice_mean(sched, delta)[0]
        seq = synthesize_gates([mean], delta, cfg)
        exact = unitary_exp(reconstruct(mean), delta)
        errors.append(np.linalg.norm(gate_product(seq).matrix - exact))
    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    assert slope >= 1.8


def test_simulate_refuses_oversize_synthesis():
    # slice and gate counts are checked in closed form before synthesis; a
    # schedule the projection empties still counts one gate per substep
    heavy = Schedule.constant(_coeffs(3, {"XXX": 0.5}), 1e-12)
    with pytest.raises(ValidationError, match="limit"):
        simulate(heavy, MetricConfig(3, 8.0), 1e-12)
    long = Schedule.constant(_coeffs(1, {"X": 0.5}), 5000.0)
    with pytest.raises(ValidationError, match="4096 slices"):
        simulate(long, MetricConfig(1, 2.0), 1.0)
