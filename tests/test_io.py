"""File formats, loaders, and deterministic report writing."""

import json

import numpy as np
import pytest

from circuit_geometry import (
    CoeffVector,
    MetricConfig,
    Schedule,
    ValidationError,
    gate_product,
    gates_from_dict,
    gates_to_dict,
    load_gates,
    load_json,
    load_matrix,
    load_schedule,
    load_unitary,
    save_gates,
    save_matrix,
    schedule_from_dict,
    schedule_to_dict,
    slice_mean,
    synthesize_gates,
    write_bounds_csv,
    write_report,
)
from circuit_geometry.bounds import BoundReport


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


X_MATRIX = {"n": 1, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
SCHEDULE = {"n": 1, "segments": [{"tau": 0.5, "y": {"X": 0.3}},
                                 {"tau": 1.0, "y": {"Z": -0.2, "Y": 0.1}}]}


def test_load_json_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="broken.json"):
        load_json(str(path))


def test_load_matrix_happy(tmp_path):
    n, matrix = load_matrix(_write(tmp_path, "x.json", X_MATRIX))
    assert n == 1
    assert np.array_equal(matrix, np.array([[0, 1], [1, 0]], dtype=complex))


def test_load_matrix_missing_key(tmp_path):
    payload = {"n": 1, "re": X_MATRIX["re"]}
    with pytest.raises(ValidationError, match="missing key 'im'"):
        load_matrix(_write(tmp_path, "m.json", payload))


def test_load_matrix_shape_and_type_errors(tmp_path):
    wrong_shape = {"n": 2, "re": X_MATRIX["re"], "im": X_MATRIX["im"]}
    with pytest.raises(ValidationError, match="4x4"):
        load_matrix(_write(tmp_path, "s.json", wrong_shape))
    bad_entries = {"n": 1, "re": [["a", 0], [0, 0]], "im": X_MATRIX["im"]}
    with pytest.raises(ValidationError, match="numbers"):
        load_matrix(_write(tmp_path, "t.json", bad_entries))
    with pytest.raises(ValidationError, match="'n'"):
        load_matrix(_write(tmp_path, "n.json", {"n": 0, "re": [[]], "im": [[]]}))


def test_load_unitary_checks_group_membership(tmp_path):
    path = _write(tmp_path, "u.json", {
        "n": 1, "re": [[2.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
    })
    with pytest.raises(ValidationError, match="not unitary"):
        load_unitary(path)


def test_save_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = str(tmp_path / "m.json")
    save_matrix(path, 2, matrix)
    n, loaded = load_matrix(path)
    assert n == 2
    assert np.array_equal(loaded, matrix)  # repr round-trips floats exactly


def test_schedule_from_dict_errors():
    with pytest.raises(ValidationError, match="missing key 'segments'"):
        schedule_from_dict({"n": 1}, "f")
    with pytest.raises(ValidationError, match="nonempty"):
        schedule_from_dict({"n": 1, "segments": []}, "f")
    with pytest.raises(ValidationError, match="segment 0"):
        schedule_from_dict({"n": 1, "segments": [{"tau": 0.5}]}, "f")
    with pytest.raises(ValidationError, match="'tau' must be a number"):
        schedule_from_dict({"n": 1, "segments": [{"tau": True, "y": {}}]}, "f")
    with pytest.raises(ValidationError, match="coefficient for 'X'"):
        schedule_from_dict({"n": 1, "segments": [{"tau": 0.5, "y": {"X": "big"}}]}, "f")
    with pytest.raises(ValidationError, match="unknown Pauli word"):
        schedule_from_dict({"n": 1, "segments": [{"tau": 0.5, "y": {"XX": 0.1}}]}, "f")
    for tau in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="segment 1 duration"):
            schedule_from_dict({"n": 1, "segments": [{"tau": 0.5, "y": {}}, {"tau": tau, "y": {}}]}, "f")


def test_path_dict_round_trip(tmp_path):
    schedule = load_schedule(_write(tmp_path, "p.json", SCHEDULE))
    assert schedule_to_dict(schedule) == SCHEDULE
    again = schedule_from_dict(schedule_to_dict(schedule))
    assert again.n == schedule.n
    assert again.duration == schedule.duration
    assert np.array_equal(again.times, schedule.times)
    assert np.array_equal(again.values, schedule.values)
    empty = Schedule.from_segments(2, [], [])
    assert schedule_to_dict(empty) == {"n": 2, "segments": []}


def test_load_path_happy(tmp_path):
    schedule = load_schedule(_write(tmp_path, "p.json", SCHEDULE))
    assert schedule.n == 1
    assert len(schedule.segments) == 2
    (first_y, first_tau), (second_y, second_tau) = schedule.segments
    assert (first_tau, second_tau) == (0.5, 1.0)
    assert CoeffVector(1, first_y).to_words() == {"X": 0.3}
    assert CoeffVector(1, second_y).to_words() == {"Y": 0.1, "Z": -0.2}


def test_schedule_from_path_times():
    rows = [CoeffVector.from_words(1, {"X": 0.3}).values,
            CoeffVector.from_words(1, {"Z": -0.2, "Y": 0.1}).values]
    schedule = Schedule.from_segments(1, rows, [0.5, 1.0])
    assert np.array_equal(schedule.times, [0.0, 0.5])
    assert schedule.duration == 1.5
    assert schedule.value_at(0.4)[0] == 0.3  # X coefficient held on first segment


def test_load_schedule(tmp_path):
    schedule = load_schedule(_write(tmp_path, "p.json", SCHEDULE))
    assert isinstance(schedule, Schedule)
    assert schedule.n == 1
    assert np.array_equal(schedule.times, [0.0, 0.5])
    assert schedule.duration == 1.5


def test_gates_round_trip(tmp_path):
    config = MetricConfig(1, 1.0)
    means = slice_mean(Schedule.constant(CoeffVector.from_words(1, {"X": 0.4, "Z": 0.3}), 1.0), 0.5)
    sequence = synthesize_gates(means, 0.5, config)
    path = str(tmp_path / "g.json")
    save_gates(path, sequence)
    loaded = load_gates(path)
    assert loaded.n == sequence.n
    assert loaded.delta == sequence.delta
    assert [str(g.string) for g in loaded.gates] == [str(g.string) for g in sequence.gates]
    assert np.array_equal(loaded.angles(), sequence.angles())
    assert np.array_equal(gate_product(loaded).matrix, gate_product(sequence).matrix)


def test_gates_from_dict_errors():
    with pytest.raises(ValidationError, match="missing key 'delta'"):
        gates_from_dict({"n": 1, "gates": []}, "f")
    with pytest.raises(ValidationError, match="'delta' must be a number"):
        gates_from_dict({"n": 1, "delta": False, "gates": []}, "f")
    with pytest.raises(ValidationError, match="gate 0"):
        gates_from_dict({"n": 1, "delta": 0.1, "gates": [{"pauli": "X"}]}, "f")
    with pytest.raises(ValidationError, match="'angle' must be a number"):
        gates_from_dict({"n": 1, "delta": 0.1, "gates": [{"pauli": "X", "angle": "x"}]}, "f")
    # weight and qubit constraints come from the sequence itself
    with pytest.raises(ValidationError):
        gates_from_dict({"n": 3, "delta": 0.1,
                         "gates": [{"pauli": "XXX", "angle": 0.1}]}, "f")


def test_readers_reject_integers_too_large_for_a_float():
    huge = 10**400
    with pytest.raises(ValidationError, match="'delta' is too large"):
        gates_from_dict({"n": 1, "delta": huge, "gates": []}, "f")
    with pytest.raises(ValidationError, match="'angle' is too large"):
        gates_from_dict({"n": 1, "delta": 0.1, "gates": [{"pauli": "X", "angle": huge}]}, "f")
    with pytest.raises(ValidationError, match="'tau' is too large"):
        schedule_from_dict({"n": 1, "segments": [{"tau": huge, "y": {"X": 0.5}}]}, "f")
    with pytest.raises(ValidationError, match="coefficient for 'X' is too large"):
        schedule_from_dict({"n": 1, "segments": [{"tau": 1, "y": {"X": huge}}]}, "f")


def test_gates_to_dict_lists_in_order():
    config = MetricConfig(1, 1.0)
    means = slice_mean(Schedule.constant(CoeffVector.from_words(1, {"X": 0.4}), 0.5), 0.5)
    sequence = synthesize_gates(means, 0.5, config)
    payload = gates_to_dict(sequence)
    assert payload["n"] == 1
    assert payload["delta"] == 0.5
    assert all(entry["pauli"] == "X" for entry in payload["gates"])


def test_write_report_deterministic_bytes(tmp_path):
    payload = {"b": 1, "a": {"z": [1.5, 2.5], "y": "s"}}
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    write_report(str(first), payload)
    write_report(str(second), payload)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # keys sorted


def test_write_report_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_report(str(tmp_path / "r.json"), {"x": float("nan")})


def test_write_report_failure_leaves_no_debris(tmp_path):
    target = tmp_path / "r.json"
    write_report(str(target), {"ok": 1})
    before = target.read_bytes()
    with pytest.raises(ValueError):
        write_report(str(target), {"x": float("nan")})
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_write_bounds_csv_golden(tmp_path):
    reports = [BoundReport("alpha", 0.5, 1.0, 2.0), BoundReport("beta", 0.0, 3.0, 2.0)]
    path = tmp_path / "b.csv"
    write_bounds_csv(str(path), reports)
    assert path.read_text() == (
        "context,lower,observed,upper,passed\n"
        "alpha,0.5,1.0,2.0,true\n"
        "beta,0.0,3.0,2.0,false\n"
    )


def test_report_files_end_with_single_newline(tmp_path):
    path = tmp_path / "r.json"
    write_report(str(path), {"x": 1})
    data = path.read_bytes()
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    assert b"\r" not in data  # unix line endings on every platform
