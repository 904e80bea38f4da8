"""Acceptance gate: every advertised property at its stated tolerance.

Each criterion is one test that prints a single ``[PASS]``/``[FAIL]``
line (visible with ``pytest -s``; the test name carries the criterion
number for ``-v`` output).  Tolerances here are contractual -- do not
loosen them to make a failing build green.
"""

import json
import math
import time
from itertools import product

import numpy as np
from click.testing import CliRunner

from circuit_geometry import (
    CoeffVector,
    GateSequence,
    MetricConfig,
    PenaltyNorm,
    Schedule,
    Unitary,
    chart_segment_rho,
    check_segment_distortion,
    check_sim_sandwich,
    decompose,
    distance_lower,
    distance_upper,
    distortion_constants,
    enumerate_basis,
    estimate_distortion,
    exp_coords,
    gate_count_bounds_chart,
    gate_count_bounds_metric,
    gate_count_scaling,
    gate_product,
    identity,
    log_coords,
    partition_k,
    reconstruct,
    simulate,
    slice_mean,
    synthesize_gates,
    unitary_exp,
)
from circuit_geometry.cli import main as cli_main
from util import random_coeffs, random_traceless_hermitian


def _line(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def _coeffs(n, words):
    return CoeffVector.from_words(n, words)


def test_criterion_01_pauli_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for index in range(1000):
        n = 1 + index % 3
        matrix = random_traceless_hermitian(rng, n)
        rebuilt = reconstruct(decompose(matrix, n))
        worst = max(worst, float(np.max(np.abs(rebuilt - matrix))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _line(1, ok, f"1000 round trips, worst entrywise error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_chart_round_trip():
    rng = np.random.default_rng(202)
    worst = 0.0
    for index in range(1000):
        n = 1 + index % 3
        base = exp_coords(random_coeffs(rng, n, scale=rng.uniform(0.1, 0.8)), identity(n))
        y = random_coeffs(rng, n, scale=rng.uniform(0.05, 1.0))
        recovered = log_coords(exp_coords(y, base), base)
        worst = max(worst, float(np.max(np.abs(recovered.values - y.values))))
    ok = worst < 1e-9
    _line(2, ok, f"1000 chart round trips, worst componentwise error {worst:.3e}")


def test_criterion_03_partition_formula():
    expected = {1: 3, 2: 15, 3: 36, 4: 66, 5: 105}
    counted = {
        n: sum(1 for s in enumerate_basis(n) if s.weight <= 2) for n in expected
    }
    formula = {n: partition_k(n) for n in expected}
    ok = counted == expected and formula == expected
    _line(3, ok, f"enumerated weight<=2 counts {sorted(counted.values())}")


def test_criterion_04_norm_sandwich():
    rng = np.random.default_rng(404)
    sandwich_ok = True
    for n, p in product((1, 2, 3), (1.0, 2.0, 8.0)):
        config = MetricConfig(n, p)
        draws = rng.standard_normal((10000, 4**n - 1))
        norms = PenaltyNorm(config)(draws)
        lengths = np.sqrt(np.sum(np.square(draws), axis=-1))
        sandwich_ok &= bool(np.all(lengths <= norms) and np.all(norms <= p * lengths))

    segments_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 4))
        config = MetricConfig(n, float(rng.uniform(1.0, 8.0)))
        base = exp_coords(random_coeffs(rng, n, scale=0.5), identity(n))
        target = exp_coords(random_coeffs(rng, n, scale=0.8), base)
        segments_ok &= check_segment_distortion(base, target, config).passed

    ok = sandwich_ok and segments_ok
    _line(4, ok, "9 x 10^4 sandwich draws exact, 200 segment pairs pass")


def test_criterion_05_finsler_hessian():
    # F_p^2 / 2 is the quadratic form of G = diag(w^2): smooth, with Hessian G everywhere
    rng = np.random.default_rng(505)
    cases = [(n, p, rng.standard_normal((100, 4**n - 1)))
             for n, p in product((1, 2, 3), (1.0, 2.0, 8.0))]
    worst_homogeneity = worst_form = worst_curvature = 0.0
    min_eig = min_curvature = np.inf
    for n, p, points in cases:
        norm = PenaltyNorm(MetricConfig(n, p))
        gram = norm.weights**2
        values = norm(points)
        for s in (0.5, 2.0, 10.0):
            worst_homogeneity = max(worst_homogeneity, float(np.max(np.abs(norm(s * points) - s * values))))
        form = np.sum(gram * np.square(points), axis=-1)
        worst_form = max(worst_form, float(np.max(np.abs(values**2 - form) / form)))
        min_eig = min(min_eig, float(np.min(gram)))

        # empirical: the second difference of F^2 / 2 along a random unit direction v is v^T G v
        directions = rng.standard_normal(points.shape)
        directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
        steps = 1e-4 * np.maximum(1.0, np.linalg.norm(points, axis=-1))[:, None]
        plus, minus = (0.5 * norm(points + sign * steps * directions) ** 2 for sign in (1.0, -1.0))
        curvature = (plus - values**2 + minus) / steps[:, 0] ** 2
        expected = np.sum(gram * np.square(directions), axis=-1)
        min_curvature = min(min_curvature, float(np.min(curvature)))
        worst_curvature = max(worst_curvature, float(np.max(np.abs(curvature - expected) / expected)))

    ok = (worst_homogeneity <= 1e-9 and worst_form <= 1e-12 and min_eig > 1e-6
          and min_curvature > 1e-6 and worst_curvature <= 1e-4)
    _line(5, ok, f"9 x 100 points: homogeneity {worst_homogeneity:.1e}, Hessian diag(w^2) "
                 f"(min eig {min_eig:.3f}), directional curvature >= {min_curvature:.6f} "
                 f"within {worst_curvature:.1e} of v^T G v")


def test_criterion_06_distortion_monte_carlo():
    norm = PenaltyNorm(MetricConfig(3, 4.0))
    start = time.perf_counter()
    estimates = [estimate_distortion(norm, 3, s, seed=12) for s in (12500, 25000, 50000, 100000)]
    elapsed = time.perf_counter() - start
    m_hat, big_m_hat = estimates[-1]
    monotone = all(
        later[0] <= earlier[0] and later[1] >= earlier[1]
        for earlier, later in zip(estimates, estimates[1:])
    )
    ok = (0.98 <= m_hat <= 1.0 and 3.92 <= big_m_hat <= 4.0 and monotone and elapsed < 30.0)
    _line(6, ok, f"m_hat {m_hat:.4f}, M_hat {big_m_hat:.4f}, monotone {monotone}, {elapsed:.2f}s")


def test_criterion_07_distance_consistency():
    rng = np.random.default_rng(707)
    segments = 2
    consistent = True
    for index in range(50):
        n = 1 + index % 2
        config = MetricConfig(n, 2.0**n)
        target = exp_coords(random_coeffs(rng, n, scale=rng.uniform(0.2, 1.2)), identity(n))
        lower = distance_lower(target, config)
        estimate = distance_upper(target, config, segments)
        consistent &= lower <= estimate.upper + 1e-6

    pinch_ok = True
    worst_gap = 0.0
    x_matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    config = MetricConfig(1, 2.0)
    for theta in (0.3, 0.7, 1.2):
        target = Unitary(1, unitary_exp(x_matrix, theta))
        lower = distance_lower(target, config)
        estimate = distance_upper(target, config, segments)
        pinch_ok &= abs(lower - theta) < 1e-9 and estimate.upper <= theta + 1e-3
        worst_gap = max(worst_gap, estimate.upper - theta)
    ok = consistent and pinch_ok
    _line(7, ok, f"50 brackets ordered; pinch gap at worst {worst_gap:.2e}")


def test_criterion_08_simulation_sandwich():
    rng = np.random.default_rng(808)
    combos = list(product((2, 3), (1.0, 4.0), (0.2, 0.1, 0.05)))
    combos += combos[:8]  # 20 schedules total
    sandwich_ok = True
    refinement_worst = 0.0
    rho_worst = 0.0
    for n, p, delta in combos:
        config = MetricConfig(n, p)
        rows = rng.uniform(-0.85, 0.85, size=(3, 4**n - 1))
        schedule = Schedule(n, np.array([0.0, 0.35, 0.7]), rows, 1.0)
        result = simulate(schedule, config, delta)
        sandwich_ok &= check_sim_sandwich(result, config).passed

        sequence = result.gate_sequence
        angles = sequence.angles
        refinement = abs(math.fsum(abs(a) for a in angles) - result.synthesized_length)
        refinement_worst = max(refinement_worst, refinement)

        # each gate is its own chart segment; rho_s is |angle_s| by
        # right-invariance, measured here through the chart itself
        picks = np.linspace(0, len(angles) - 1, min(15, len(angles))).astype(int)
        for s in picks:
            gate = gate_product(GateSequence(n, sequence.gates[s:s + 1], angles[s:s + 1], sequence.delta))
            rho = chart_segment_rho(identity(n), gate)
            rho_worst = max(rho_worst, abs(rho - abs(angles[s])))

    ok = sandwich_ok and refinement_worst <= 1e-10 and rho_worst < 1e-12
    _line(8, ok, f"20 schedules pass, refinement off by {refinement_worst:.2e}, "
                 f"rho mismatch {rho_worst:.2e}")


def test_criterion_09_trotter_order():
    config = MetricConfig(2, 1.0)
    schedule = Schedule.constant(_coeffs(2, {"XI": 0.8, "ZZ": 0.6}), 1.0)
    deltas = (0.2, 0.1, 0.05)
    errors = []
    for delta in deltas:
        mean = slice_mean(schedule, delta)[0]
        sequence = synthesize_gates([mean], delta, config)
        exact = unitary_exp(reconstruct(mean), delta)
        errors.append(float(np.linalg.norm(gate_product(sequence).matrix - exact)))
    slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    ok = slope >= 1.8
    _line(9, ok, f"per-slice error order {slope:.3f} against the dense oracle")


def test_criterion_10_gate_count_scaling():
    config = MetricConfig(2, 1.0)
    schedule = Schedule.constant(_coeffs(2, {"XI": 0.8, "ZZ": 0.6}), 1.0)
    report = gate_count_scaling(schedule, config, (0.2, 0.1, 0.05))
    halving_exact = (report.gate_counts[1] == 4 * report.gate_counts[0]
                     and report.gate_counts[2] == 4 * report.gate_counts[1])
    ok = abs(report.slope - 2.0) <= 0.15 and halving_exact
    _line(10, ok, f"slope {report.slope:.4f}, counts {report.gate_counts}")


def test_criterion_11_count_bounds_on_known_geodesic():
    config = MetricConfig(1, 2.0)
    steps = 9
    theta = 0.9
    step_coeffs = _coeffs(1, {"X": theta / steps})
    points = [identity(1)]
    for _ in range(steps):
        points.append(exp_coords(step_coeffs, points[-1]))

    rhos, betas = [], []
    for before, after in zip(points, points[1:]):
        y = log_coords(after, before)
        rhos.append(y.norm)
        betas.append(PenaltyNorm(config)(y))
    distance = distance_lower(points[-1], config)
    m_lower, m_upper = distortion_constants(config)

    chart = gate_count_bounds_chart(distance, min(rhos), max(rhos), m_lower, m_upper)
    metric = gate_count_bounds_metric(distance, min(betas), max(betas), m_lower, m_upper)
    inside = (chart[0] - 1e-9 <= steps <= chart[1] + 1e-9
              and metric[0] - 1e-9 <= steps <= metric[1] + 1e-9)
    pinched = all(abs(value - steps) <= 1e-9 for value in (*chart, *metric))
    ok = inside and pinched
    _line(11, ok, f"chart bounds ({chart[0]:.12f}, {chart[1]:.12f}) pinch to {steps}")


def test_criterion_12_cli_determinism(tmp_path):
    runner = CliRunner()
    x_rot = np.cos(0.3) * np.eye(2) - 1j * np.sin(0.3) * np.array([[0.0, 1.0], [1.0, 0.0]])
    unitary_path = tmp_path / "target.json"
    unitary_path.write_text(json.dumps({
        "n": 1, "re": x_rot.real.tolist(), "im": x_rot.imag.tolist(),
    }))
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "n": 1, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
    }))
    schedule_path = tmp_path / "schedule.json"
    schedule_path.write_text(json.dumps({
        "n": 1, "segments": [{"tau": 1.0, "y": {"X": 0.5}}],
    }))

    fast = ["--segments", "2", "--seed", "9"]
    invocations = {
        "decompose": ["decompose", "--matrix", str(matrix_path)],
        "distance": ["distance", "--unitary", str(unitary_path), *fast],
        "simulate": ["simulate", "--schedule", str(schedule_path), "--delta", "0.25"],
        "verify": ["verify", "--unitary", str(unitary_path), *fast],
        "distortion": ["distortion", "--n", "2", "--samples", "500", "--seed", "9"],
        "scaling": ["scaling", "--schedule", str(schedule_path)],
    }
    ok = True
    for name, args in invocations.items():
        out = tmp_path / f"{name}.json"
        full = args + ["--out", str(out)]
        first = runner.invoke(cli_main, full)
        ok &= first.exit_code == 0
        payload = out.read_bytes()
        second = runner.invoke(cli_main, full)
        ok &= second.exit_code == 0 and out.read_bytes() == payload
    _line(12, ok, "all six subcommands byte-identical across repeated runs")
