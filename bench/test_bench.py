"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import metrics
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    build = workloads.WORKLOADS[name].build
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        commands = build(seed, tmp_path / label)
        assert [c.subcommand for c in commands]
    first, again, other = (_files(tmp_path / label) for label in "abc")
    assert first == again
    assert first != other


def test_bracket_target_has_the_fixed_ratio_and_stays_in_the_chart():
    target = inputs.bracket_target(3, 3, inputs.BRACKET_TARGET_RATIO)
    ratio = target["subgroup_length"] / target["lower"]
    assert ratio == pytest.approx(inputs.BRACKET_TARGET_RATIO, abs=1e-9)
    _, max_phase = inputs.principal_log(target["matrix"])
    assert max_phase < np.pi - inputs.CHART_MARGIN


def test_closed_form_gate_count():
    # 40 slices x 20 substeps x (2 n + 3 (n - 1)) nearest-neighbour words
    assert inputs.expected_gate_count(6, "0.05") == 40 * 20 * 27
    assert inputs.expected_gate_count(4, "0.2") == 10 * 5 * 17


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert metrics.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    trace = metrics.CommandTrace(-1.0, 12.0, ["x"], np.zeros(4, dtype=int), start, end, parent, {}, 0.0)
    assert trace.top_level_s() == 10.0
    assert trace.cli_self_s() + trace.top_level_s() == trace.wall_s
    assert trace.spans_inside_wall()


def test_tracer_records_parents_and_probes():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("pauli.inner", inner)
    outer = tracer.wrap("pauli.basis_matrices", lambda n: wrapped_inner(n))
    assert outer(3) == 4
    assert tracer.parent == [-1, 0]
    assert [tracer.names[i] for i in tracer.span_name] == ["pauli.basis_matrices", "pauli.inner"]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]
    assert tracer.counts == {0: {"n": 3}}


def _distance_report(target: dict) -> dict:
    generator, _ = inputs.principal_log(target["matrix"])
    y = {w: v for w, v in inputs.coefficients(generator, target["n"]).items() if v != 0.0}
    upper = inputs.penalty_norm(y, target["p"])
    return {
        "config": {"p": target["p"]},
        "results": {
            "lower": target["lower"], "upper": upper,
            "stats": {"endpoint_error": 0.0, "evaluations": 1, "runs": 1},
            "witness": {"n": target["n"], "segments": [{"tau": 1.0, "y": y}]},
        },
        "bound_reports": [{"context": "distance-bracket", "passed": True}],
    }


def test_distance_check_rejects_lower_above_upper(tmp_path):
    target = inputs.bracket_target(5, 3, inputs.BRACKET_TARGET_RATIO)
    inspect = workloads.check_distance(target)
    report = _distance_report(target)
    problems, values = inspect(report, tmp_path)
    assert problems == []
    assert values["bracket_ratio"] == pytest.approx(inputs.BRACKET_TARGET_RATIO, abs=1e-9)
    assert values["search_gain"] == pytest.approx(0.0, abs=1e-12)
    report["results"]["lower"] = report["results"]["upper"] + 1.0
    problems, _ = inspect(report, tmp_path)
    assert any("exceeds upper" in p for p in problems)


def test_distance_check_rejects_a_witness_that_misses_the_target(tmp_path):
    target = inputs.bracket_target(5, 3, inputs.BRACKET_TARGET_RATIO)
    report = _distance_report(target)
    report["results"]["witness"]["segments"][0]["tau"] = 0.9
    problems, _ = workloads.check_distance(target)(report, tmp_path)
    assert any("from the target" in p for p in problems)


def test_simulate_check_rejects_a_wrong_gate_count(tmp_path):
    n, delta = 4, "0.2"
    count = inputs.expected_gate_count(n, delta)
    words = inputs.chain_support(n)
    gates = [{"pauli": words[i % len(words)], "angle": 0.01} for i in range(count)]
    (tmp_path / "gates.json").write_text(json.dumps({"n": n, "delta": 0.2, "gates": gates}))
    report = {
        "results": {"gate_count": count, "endpoint_error": 0.01},
        "bound_reports": [{"context": "simulation-sandwich", "passed": True}],
    }
    inspect = workloads.check_simulate(n, delta, "gates.json")
    assert inspect(report, tmp_path)[0] == []
    report["results"]["gate_count"] = count + 1
    problems, _ = inspect(report, tmp_path)
    assert any("expected" in p for p in problems)
    assert any("gate file holds" in p for p in problems)


def test_failed_bound_report_is_a_problem(tmp_path):
    report = {
        "results": {"coefficients": {"XI": 0.5}},
        "bound_reports": [{"context": "x", "passed": False}],
    }
    problems, _ = workloads.check_decompose({"XI": 0.5})(report, tmp_path)
    assert problems == ["bound check failed: x"]
    report["results"]["coefficients"]["XI"] = 0.25
    problems, _ = workloads.check_decompose({"XI": 0.5})(report, tmp_path)
    assert any("differ from the generating" in p for p in problems)


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [m.to_json() for m in metrics.END_TO_END]
    assert spec["per_layer"] == [m.to_json() for m in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert set(metrics.ALIASES) == set(workloads.WORKLOADS)


def test_predictions_cite_known_workloads_and_metrics():
    known = {m.name for m in metrics.END_TO_END}
    for aliases in metrics.ALIASES.values():
        known |= set(aliases.values())
    for row in metrics.PREDICTIONS:
        assert set(row["moves"]) <= set(workloads.WORKLOADS)
        for moved in row["moves"].values():
            assert {name.split()[0] for name in moved} <= known
