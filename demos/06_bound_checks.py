#!/usr/bin/env python3
"""Verified inequalities end to end: segment sandwiches, the simulation
length sandwich, gate-count brackets on a known geodesic, and the
count-vs-width scaling fit."""

import numpy as np

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    PenaltyNorm,
    Schedule,
    check_segment_distortion,
    check_sim_sandwich,
    distance_upper,
    distortion_constants,
    exp_coords,
    gate_count_bounds_chart,
    gate_count_bounds_metric,
    gate_count_scaling,
    identity,
    log_coords,
    simulate,
)


def show(report):
    print(f"  [{'ok' if report.passed else 'FAIL'}] {report.context}: "
          f"{report.lower:.6f} <= {report.observed:.6f} <= {report.upper:.6f}")


def main():
    print("== chart segment sandwich ==")
    config = MetricConfig(3, 4.0)
    light = exp_coords(CoeffVector.from_words(3, {"XII": 0.3}), identity(3))
    show(check_segment_distortion(identity(3), light, config))
    heavy = exp_coords(CoeffVector.from_words(3, {"XXX": 0.2}), identity(3))
    show(check_segment_distortion(identity(3), heavy, config))

    print("\n== simulation length sandwich ==")
    rng = np.random.default_rng(6)
    rows = rng.uniform(-0.8, 0.8, size=(3, 63))
    schedule = Schedule(3, np.array([0.0, 0.4, 0.7]), rows, 1.0)
    result = simulate(schedule, config, 0.1)
    show(check_sim_sandwich(result, config))

    print("\n== count brackets on a 9-step single-axis geodesic ==")
    steps, theta = 9, 0.9
    cfg1 = MetricConfig(1, 2.0)
    stride = CoeffVector.from_words(1, {"X": theta / steps})
    points = [identity(1)]
    for _ in range(steps):
        points.append(exp_coords(stride, points[-1]))
    rhos = [log_coords(b, a).norm for a, b in zip(points, points[1:])]
    betas = [PenaltyNorm(cfg1)(log_coords(b, a)) for a, b in zip(points, points[1:])]
    d = distance_upper(points[-1], cfg1).lower
    m_low, m_high = distortion_constants(cfg1)
    chart = gate_count_bounds_chart(d, min(rhos), max(rhos), m_low, m_high)
    metric = gate_count_bounds_metric(d, min(betas), max(betas), m_low, m_high)
    print(f"  distance {d:.4f}, uniform steps rho = beta = {rhos[0]:.4f}")
    print(f"  chart-form bracket:  [{chart[0]:.4f}, {chart[1]:.4f}]  (actual {steps})")
    print(f"  metric-form bracket: [{metric[0]:.4f}, {metric[1]:.4f}]  (actual {steps})")

    print("\n== gate count grows like (1/delta)^2 ==")
    drive = Schedule.constant(CoeffVector.from_words(2, {"XI": 0.8, "ZZ": 0.6}), 1.0)
    fit = gate_count_scaling(drive, MetricConfig(2, 1.0), (0.2, 0.1, 0.05))
    for delta, count in zip(fit.deltas, fit.gate_counts):
        print(f"  delta {delta:5.2f} -> {count:4d} gates")
    print(f"  fitted slope {fit.slope:.4f} (residual {fit.residual:.1e})")


if __name__ == "__main__":
    main()
