"""File formats, loaders, and deterministic report writing."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from circuit_geometry import (
    CoeffVector,
    GateSequence,
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
    weight_vector,
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
    with pytest.raises(ValidationError) as caught:
        load_unitary(path)
    assert str(caught.value) == f"{path}: matrix is not unitary: max |U U^dagger - I| = 3.000e+00"


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


def _schedule_file(tmp_path, segments):
    """A schedule file written by hand: Python's json reads ``NaN`` and ``Infinity`` literals."""
    path = tmp_path / "s.json"
    path.write_text('{"n": 1, "segments": [' + ", ".join(segments) + "]}")
    return str(path)


@pytest.mark.parametrize("tau, shown", [("NaN", "nan"), ("-1", "-1.0")])
def test_schedule_reader_names_the_file_for_a_bad_tau(tmp_path, tau, shown):
    path = _schedule_file(tmp_path, ['{"tau": 0.5, "y": {}}', f'{{"tau": {tau}, "y": {{"X": 0.1}}}}'])
    with pytest.raises(ValidationError) as caught:
        load_schedule(path)
    assert str(caught.value) == f"{path}: segment 1 duration must be positive and finite, got {shown}"


def test_schedule_reader_names_the_file_and_the_segment_when_the_time_overflows(tmp_path):
    path = _schedule_file(tmp_path, ['{"tau": 1e308, "y": {}}', '{"tau": 1e308, "y": {"X": 0.1}}'])
    with pytest.raises(ValidationError) as caught:
        load_schedule(path)
    assert str(caught.value) == f"{path}: segment 1 (tau 1e+308) ends past the largest float, from time 1e+308"


@pytest.mark.parametrize("value, shown", [("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan")])
def test_schedule_reader_names_the_file_segment_and_word_of_a_non_finite_coefficient(tmp_path, value, shown):
    path = _schedule_file(tmp_path, ['{"tau": 0.5, "y": {}}', f'{{"tau": 0.5, "y": {{"Z": 0.1, "X": {value}}}}}'])
    with pytest.raises(ValidationError) as caught:
        load_schedule(path)
    assert str(caught.value) == f"{path}: segment 1: coefficient for 'X' must be finite, got {shown}"


def test_schedule_reader_names_the_file_for_a_segment_below_the_float_resolution(tmp_path):
    path = _schedule_file(tmp_path, ['{"tau": 1e17, "y": {}}', '{"tau": 1.0, "y": {"X": 0.1}}'])
    with pytest.raises(ValidationError, match=r"^.*s\.json: segment 1 \(tau 1\.0\) is below the float resolution"):
        load_schedule(path)


def test_schedule_reader_names_the_file_and_the_segment_of_an_unknown_word(tmp_path):
    path = _schedule_file(tmp_path, ['{"tau": 0.5, "y": {"X": 0.1}}', '{"tau": 0.5, "y": {"XX": 0.1}}'])
    with pytest.raises(ValidationError) as caught:
        load_schedule(path)
    assert str(caught.value) == f"{path}: segment 1: unknown Pauli word 'XX' for n=1 (identity word excluded)"


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_matrix_reader_names_the_file_for_a_non_finite_entry(tmp_path, part, entry):
    rows = {"re": "[[0, 1], [1, 0]]", "im": "[[0, 0], [0, 0]]"}
    rows[part] = f"[[0, {entry}], [1, 0]]"
    path = tmp_path / "m.json"
    path.write_text(f'{{"n": 1, "re": {rows["re"]}, "im": {rows["im"]}}}')
    with pytest.raises(ValidationError) as caught:
        load_matrix(str(path))
    assert str(caught.value) == f"{path}: matrix entries must be finite"


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
    assert np.array_equal(loaded.gates, sequence.gates)
    assert np.array_equal(loaded.angles, sequence.angles)
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
    with pytest.raises(ValidationError, match="gate 0 .*weight above two"):
        gates_from_dict({"n": 3, "delta": 0.1,
                         "gates": [{"pauli": "XXX", "angle": 0.1}]}, "f")


@pytest.mark.parametrize("word", ["II", "I", "XXX", "XQ", "", 3, None])
def test_gates_from_dict_refuses_a_word_that_is_not_a_gate(word):
    # the identity word once loaded and then failed inside the gate product
    payload = {"n": 2, "delta": 0.1, "gates": [{"pauli": "XZ", "angle": 0.1}, {"pauli": word, "angle": 0.1}]}
    with pytest.raises(ValidationError, match="f: gate 1: 'pauli' must be a non-identity word of 2 letters"):
        gates_from_dict(payload, "f")


def test_gates_reader_refuses_a_nan_angle(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 1, "delta": 0.1, "gates": [{"pauli": "X", "angle": 0.1}, '
                    '{"pauli": "Z", "angle": NaN}]}')
    with pytest.raises(ValidationError, match="gate 1 .*non-finite angle"):
        load_gates(str(path))


def test_gates_reader_names_the_file_and_the_letters_of_a_weight_three_word():
    payload = {"n": 3, "delta": 0.1, "gates": [{"pauli": "XXI", "angle": 0.1}, {"pauli": "XYZ", "angle": 0.2}]}
    with pytest.raises(ValidationError) as caught:
        gates_from_dict(payload, "f.json")
    assert str(caught.value) == "f.json: gate 1 (XYZ, angle 0.2) has a word of weight above two"


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
def test_gates_reader_names_the_file_for_a_non_finite_angle(angle):
    payload = {"n": 2, "delta": 0.1, "gates": [{"pauli": "ZI", "angle": angle}]}
    with pytest.raises(ValidationError) as caught:
        gates_from_dict(payload, "f.json")
    assert str(caught.value) == f"f.json: gate 0 (ZI, angle {angle}) has a non-finite angle"


@pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan"), float("inf")])
def test_gates_reader_names_the_file_for_a_bad_delta(delta):
    with pytest.raises(ValidationError) as caught:
        gates_from_dict({"n": 1, "delta": delta, "gates": []}, "f.json")
    assert str(caught.value) == f"f.json: 'delta' must be positive and finite, got {delta}"


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


@st.composite
def _gate_sequences(draw):
    n = draw(st.integers(1, 6))
    positions = np.flatnonzero(weight_vector(n) <= 2).tolist()
    pairs = draw(st.lists(st.tuples(st.sampled_from(positions), st.floats(allow_nan=False, allow_infinity=False)),
                          max_size=30))
    delta = draw(st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           st.integers(1, 10**6),
                           st.floats(min_value=1e-9, max_value=1.0).map(np.float64)))
    return GateSequence(n, np.array([k for k, _ in pairs], dtype=np.intp), [a for _, a in pairs], delta)


@given(sequence=_gate_sequences())
@example(sequence=GateSequence(2, np.array([], dtype=np.intp), [], 0.25))
@example(sequence=GateSequence(1, [0, 1, 2, 0, 1], [-0.0, 5e-324, 1e300, -1e-7, 1e16], 0.05))
@example(sequence=GateSequence(2, [0, 4], [0.1, -0.2], 1))
@example(sequence=GateSequence(3, [0, 5], [0.1, -0.2], np.float64(0.05)))
# four equal slices of four substeps: one block repeated sixteen times
@example(sequence=synthesize_gates(
    slice_mean(Schedule.constant(CoeffVector.from_words(2, {"XI": 0.4, "ZZ": -0.3}), 1.0), 0.25),
    0.25, MetricConfig(2, 1.0)))
@example(sequence=GateSequence(2, [0, 3, 1], [0.1, 0.2, 0.3], 0.5))  # runs of one block
# equal positions with different angles, among them the zeros of either sign
@example(sequence=GateSequence(1, [0, 1, 0, 1, 0, 1], [0.1, 0.2, 0.1, 0.2, 0.1, -0.2], 0.5))
@example(sequence=GateSequence(1, [0, 0, 0, 0], [0.0, -0.0, -0.0, 0.0], 0.5))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_gates_writes_the_json_encoding_byte_for_byte(tmp_path, sequence):
    path = tmp_path / "g.json"
    save_gates(str(path), sequence)
    expected = json.dumps(gates_to_dict(sequence), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_outputs_get_the_mode_open_would_give_under_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_report(str(tmp_path / "r.json"), {"x": 1})
        write_bounds_csv(str(tmp_path / "b.csv"), [BoundReport("alpha", 0.5, 1.0, 2.0)])
        save_gates(str(tmp_path / "g.json"), GateSequence(1, [0], [0.1], 0.25))
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"r.json": mode, "b.csv": mode, "g.json": mode}


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


def test_write_report_onto_a_directory_leaves_no_temporary_file(tmp_path):
    # the temporary file is written, and the rename onto the directory fails
    (tmp_path / "r.json").mkdir()
    with pytest.raises(OSError):
        write_report(str(tmp_path / "r.json"), {"x": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    assert (tmp_path / "r.json").is_dir()


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
