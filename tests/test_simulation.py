"""Schedules, slicing, projection, gate synthesis, and the pipeline."""

import os

import numpy as np
import pytest

from circuit_geometry import (
    CoeffVector,
    CoefficientBoundError,
    DomainError,
    Gate,
    GateSequence,
    MetricConfig,
    PauliString,
    Schedule,
    SimulationResult,
    ValidationError,
    enumerate_basis,
    gate_product,
    identity,
    project_hamiltonian,
    project_schedule,
    reconstruct,
    schedule_endpoint,
    simulate,
    slice_mean,
    synthesize_gates,
    unitary_exp,
    weight_vector,
)
from circuit_geometry.io import load_schedule
from circuit_geometry.simulation import slice_edges

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _coeffs(n, words):
    values = np.zeros(4**n - 1)
    index = {str(s): i for i, s in enumerate(enumerate_basis(n))}
    for word, value in words.items():
        values[index[word]] = value
    return CoeffVector(n, values)


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
    with pytest.raises(DomainError):
        empty.value_at(0.0)
    with pytest.raises(ValidationError):
        Schedule(1, np.array([]), np.zeros((0, 3)), 1.0)


def test_schedule_rejects_sample_at_duration():
    # a last sample at the duration would be a zero-length segment, which
    # the schedule format cannot hold (every tau must be positive)
    with pytest.raises(ValidationError, match="before the duration"):
        Schedule(1, np.array([0.0, 1.0]), np.zeros((2, 3)), 1.0)


def test_value_at_constant_hold():
    sched = Schedule.piecewise(1, [(0.0, np.array([1.0, 0.0, 0.0])),
                                   (0.5, np.array([2.0, 0.0, 0.0]))], 1.0)
    assert sched.value_at(0.0)[0] == 1.0
    assert sched.value_at(0.49)[0] == 1.0
    assert sched.value_at(0.5)[0] == 2.0
    assert sched.value_at(1.0)[0] == 2.0
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError):
        slice_edges(1.0, 0.0)
    with pytest.raises(DomainError):
        slice_edges(1.0, 2.0)


def test_slice_mean_constant():
    sched = Schedule.constant(XI_ZZ, 1.0)
    means = slice_mean(sched, 0.25)
    assert len(means) == 4
    for mean in means:
        assert np.array_equal(mean.values, XI_ZZ.values)


def test_slice_mean_two_halves_exact():
    a = np.array([0.3, 0.0, -1.1])
    b = np.array([0.7, 0.4, 0.1])
    sched = Schedule.piecewise(1, [(0.0, a), (0.25, b)], 0.5)
    (mean,) = slice_mean(sched, 0.5)
    assert np.array_equal(mean.values, (a + b) / 2.0)


def test_slice_mean_truncated_width():
    # final slice covers [0.9, 1.0]; its mean is taken over width 0.1
    sched = Schedule.piecewise(1, [(0.0, np.array([1.0, 0.0, 0.0])),
                                   (0.95, np.array([3.0, 0.0, 0.0]))], 1.0)
    means = slice_mean(sched, 0.3)
    # over [0.9, 1.0]: 0.05 at value 1 and 0.05 at value 3, mean 2
    assert means[-1].values[0] == pytest.approx(2.0, abs=1e-12)


def test_projection_zeroes_heavy_words():
    cfg = MetricConfig(3, 8.0)
    values = np.arange(1.0, 64.0)
    projected = project_hamiltonian(CoeffVector(3, values), cfg)
    weights = weight_vector(3)
    assert np.all(projected.values[weights >= 3] == 0.0)
    assert np.array_equal(projected.values[weights <= 2], values[weights <= 2])


def test_projection_identity_when_no_heavy_words():
    cfg = MetricConfig(2, 8.0)
    values = np.arange(1.0, 16.0)
    projected = project_hamiltonian(CoeffVector(2, values), cfg)
    assert np.array_equal(projected.values, values)


def test_project_schedule_rows():
    cfg = MetricConfig(3, 8.0)
    rng = np.random.default_rng(0)
    sched = Schedule(3, np.array([0.0, 0.5]), rng.normal(size=(2, 63)), 1.0)
    projected = project_schedule(sched, cfg)
    assert np.all(projected.values[:, weight_vector(3) >= 3] == 0.0)
    assert projected.duration == sched.duration


def test_gate_matrix_oracle():
    gate = Gate(PauliString("XZ"), 0.3)
    sigma = PauliString("XZ").matrix()
    want = np.cos(0.3) * np.eye(4) - 1j * np.sin(0.3) * sigma
    assert np.max(np.abs(gate.matrix() - want)) < 1e-15


def test_gate_sequence_validation():
    with pytest.raises(ValidationError):
        GateSequence(3, (Gate(PauliString("XXX"), 0.1),), 0.1)
    with pytest.raises(ValidationError):
        GateSequence(2, (Gate(PauliString("X"), 0.1),), 0.1)
    with pytest.raises(ValidationError):
        GateSequence(2, (), 0.0)
    seq = GateSequence(2, (Gate(PauliString("XZ"), 0.01),), 0.1)
    assert seq.substep == pytest.approx(0.01)


def test_synthesize_counts_and_angles():
    cfg = MetricConfig(2, 1.0)
    means = slice_mean(Schedule.constant(XI_ZZ, 1.0), 0.2)
    seq = synthesize_gates(means, 0.2, cfg)
    # 5 slices x 5 substeps x 2 nonzero terms
    assert len(seq.gates) == 50
    words = [str(g.string) for g in seq.gates[:2]]
    assert words == ["XI", "ZZ"]  # canonical order within a substep
    assert seq.gates[0].angle == 0.8 * 0.2 * 0.2
    assert seq.gates[1].angle == 0.6 * 0.2 * 0.2


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


def test_synthesize_second_order_flag():
    cfg = MetricConfig(2, 1.0)
    means = slice_mean(Schedule.constant(XI_ZZ, 0.2), 0.2)
    first = synthesize_gates(means, 0.2, cfg, order=1)
    second = synthesize_gates(means, 0.2, cfg, order=2)
    assert len(second.gates) == 2 * len(first.gates)
    # mirrored halves: angles are halved, order reversed in the second half
    assert second.gates[0].angle == first.gates[0].angle / 2.0
    assert str(second.gates[0].string) == str(second.gates[3].string)
    assert str(second.gates[1].string) == str(second.gates[2].string)
    # second order beats first order on the same slice
    exact = unitary_exp(reconstruct(means[0]), 0.2)
    err1 = np.linalg.norm(gate_product(first).matrix - exact)
    err2 = np.linalg.norm(gate_product(second).matrix - exact)
    assert err2 < err1


def test_synthesize_rejects_heavy_support():
    cfg = MetricConfig(3, 8.0)
    with pytest.raises(ValidationError):
        synthesize_gates([_coeffs(3, {"XXX": 0.1})], 0.2, cfg)


def test_synthesize_rejects_large_coefficients():
    cfg = MetricConfig(1, 1.0)
    with pytest.raises(CoefficientBoundError):
        synthesize_gates([_coeffs(1, {"X": 1.5})], 0.2, cfg)


def test_gate_product_oracle():
    seq = GateSequence(1, (Gate(PauliString("X"), 0.4),), 0.5)
    want = unitary_exp(PauliString("X").matrix(), 0.4)
    assert np.max(np.abs(gate_product(seq).matrix - want)) < 1e-14
    # both share one rotation formula, so a one-gate product is the gate itself
    for word in ("X", "Y", "Z"):
        gate = Gate(PauliString(word), -0.7)
        single = gate_product(GateSequence(1, (gate,), 0.5)).matrix
        assert np.array_equal(single, gate.matrix())


def test_gate_product_ordering():
    gx = Gate(PauliString("X"), 0.9)
    gz = Gate(PauliString("Z"), 0.8)
    seq = GateSequence(1, (gx, gz), 0.5)
    want = gz.matrix() @ gx.matrix()
    assert np.max(np.abs(gate_product(seq).matrix - want)) < 1e-14


def test_gate_product_empty():
    assert np.array_equal(gate_product(GateSequence(2, (), 0.1)).matrix, np.eye(4))


def test_schedule_endpoint_constant_oracle():
    sched = Schedule.constant(XI_ZZ, 1.3)
    want = unitary_exp(reconstruct(XI_ZZ), 1.3)
    assert np.max(np.abs(schedule_endpoint(sched).matrix - want)) < 1e-12


def test_schedule_endpoint_piecewise_product():
    a = _coeffs(1, {"X": 0.4})
    b = _coeffs(1, {"Z": 1.1})
    sched = Schedule.piecewise(1, [(0.0, a), (0.6, b)], 1.0)
    want = unitary_exp(reconstruct(b), 0.4) @ unitary_exp(reconstruct(a), 0.6)
    assert np.max(np.abs(schedule_endpoint(sched).matrix - want)) < 1e-12


def test_result_validation():
    seq = GateSequence(1, (Gate(PauliString("X"), 0.1),), 0.5)
    point = gate_product(seq)
    with pytest.raises(ValidationError):
        SimulationResult(seq, point, 2, 0.1, 0.0, 0.1, 0.1)
    with pytest.raises(ValidationError):
        SimulationResult(seq, point, 1, 0.1, 0.0, 0.2, 0.1)
    with pytest.raises(ValidationError):
        SimulationResult(seq, point, 1, 0.1, -1.0, 0.1, 0.1)
    # out-of-bounds lengths stay constructible: the sandwich checker is
    # the component that must flag them
    SimulationResult(seq, point, 1, 99.0, 0.0, 0.1, 0.1)


def test_simulate_accounting():
    cfg = MetricConfig(2, 1.0)
    sched = Schedule.constant(XI_ZZ, 1.0)
    result = simulate(sched, cfg, 0.1)
    assert result.gate_count == 200
    angles = np.abs(result.gate_sequence.angles())
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
    assert all(g.string.weight <= 2 for g in result.gate_sequence.gates)
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
    with pytest.raises(DomainError, match="limit"):
        simulate(heavy, MetricConfig(3, 8.0), 1e-12)
    long = Schedule.constant(_coeffs(1, {"X": 0.5}), 5000.0)
    with pytest.raises(DomainError, match="4096 slices"):
        simulate(long, MetricConfig(1, 2.0), 1.0)
