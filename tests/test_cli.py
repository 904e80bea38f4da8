"""Command-line front end: exit codes, report shape, determinism."""

import gc
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import click
import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circuit_geometry import (
    cli,
    gate_product,
    identity,
    load_schedule,
    load_unitary,
    paths,
    pauli,
    phase_aligned_frobenius,
    schedule_endpoint,
)
from circuit_geometry import __main__ as entry
from circuit_geometry.cli import main
from util import (COMPUTE_MODULES, brute_force_distance, chain_schedule, gates_payload, haar_unitary,
                  random_traceless_hermitian, read_gates, subprocess_env)

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _x_rotation(tmp_path, angle=0.3, name="target.json", phase=1.0):
    matrix = phase * (np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * np.array([[0, 1], [1, 0]]))
    return _write(tmp_path, name, {
        "n": 1, "re": matrix.real.tolist(), "im": matrix.imag.tolist(),
    })


def _identity(tmp_path, n=1, name="identity.json"):
    dim = 2**n
    return _write(tmp_path, name, {
        "n": n, "re": np.eye(dim).tolist(), "im": np.zeros((dim, dim)).tolist(),
    })


SCHEDULE = {"n": 1, "segments": [{"tau": 1.0, "y": {"X": 0.5}}]}

FAST = ["--segments", "2"]


def _report(path):
    with open(path) as handle:
        return json.load(handle)


def test_decompose_happy(runner, tmp_path):
    matrix = _write(tmp_path, "x.json", {
        "n": 1, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
    })
    out = str(tmp_path / "report.json")
    result = runner.invoke(main, ["decompose", "--matrix", matrix, "--out", out])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["version"] == "1"
    assert set(report) == {"version", "config", "results", "bound_reports"}
    assert report["results"]["coefficients"] == {"X": 1.0}
    (round_trip,) = report["bound_reports"]
    assert round_trip["context"] == "pauli-round-trip" and round_trip["passed"]


@pytest.mark.parametrize("source", ["golden", "n=6"])
def test_decompose_exits_1_when_the_transform_skips_a_butterfly_stage(runner, tmp_path, monkeypatch, source):
    # a defect in the Pauli transform must read as a failed bound: exit 1, not 0 and not 2
    if source == "golden":
        matrix = os.path.join(GOLDEN_INPUTS, "hamiltonian.json")
    else:
        matrix = _write(tmp_path, "h.json", _matrix_file(random_traceless_hermitian(np.random.default_rng(11), 6)))
    walsh = pauli._walsh

    def skipping(a):
        out = np.empty_like(a)
        for low in (0, 1):  # no butterfly across the lowest bit
            out[:, low::2] = walsh(np.ascontiguousarray(a[:, low::2]))
        return out

    out = str(tmp_path / "r.json")
    assert runner.invoke(main, ["decompose", "--matrix", matrix, "--out", out]).exit_code == 0
    monkeypatch.setattr(pauli, "_walsh", skipping)
    result = runner.invoke(main, ["decompose", "--matrix", matrix, "--out", out])
    assert result.exit_code == 1, result.output
    (round_trip,) = _report(out)["bound_reports"]
    assert not round_trip["passed"]


def test_decompose_rejects_non_hermitian(runner, tmp_path):
    matrix = _write(tmp_path, "bad.json", {
        "n": 1, "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
    })
    result = runner.invoke(main, ["decompose", "--matrix", matrix,
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert f"error: {matrix}: matrix is not Hermitian" in result.output


def test_decompose_overflowing_coefficients_exit_2_naming_the_file(runner, tmp_path):
    # finite entries whose Pauli coefficients overflow: the refusal comes from CoeffVector
    matrix = _write(tmp_path, "big.json", {
        "n": 1, "re": [[0.0, 1e308], [1e308, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
    })
    result = runner.invoke(main, ["decompose", "--matrix", matrix,
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert f"error: {matrix}: coefficient vector has non-finite entries" in result.output


def test_missing_file_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["decompose", "--matrix", str(tmp_path / "absent.json"),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2


def test_malformed_json_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = runner.invoke(main, ["decompose", "--matrix", str(bad),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "invalid JSON" in result.output


def test_a_file_that_is_not_utf8_is_refused_as_invalid_json(runner, tmp_path):
    # JSON text is UTF-8; a decode failure is a refusal, not an internal error
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["decompose", "--matrix", str(bad), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {bad}: invalid JSON ('utf-8' codec can't decode byte 0xff")


#: A JSON integer with 401 digits: valid JSON, too large for a float.
HUGE = 10**400


@pytest.mark.parametrize("command, option, payload", [
    ("simulate", "--schedule", {"n": 1, "segments": [{"tau": HUGE, "y": {"X": 0.5}}]}),
    ("simulate", "--schedule", {"n": 1, "segments": [{"tau": 1, "y": {"X": HUGE}}]}),
    ("decompose", "--matrix", {"n": 1, "re": [[0, HUGE], [HUGE, 0]], "im": [[0, 0], [0, 0]]}),
], ids=["tau", "coefficient", "matrix-entry"])
def test_number_too_large_for_a_float_exits_2(runner, tmp_path, command, option, payload):
    path = _write(tmp_path, "huge.json", payload)
    extra = ["--delta", "0.1"] if command == "simulate" else []
    result = runner.invoke(main, [command, option, path, *extra, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output
    assert "too large" in result.output


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_non_finite_unitary_exits_2(runner, tmp_path, entry):
    # Python's JSON reader accepts these literals; the unitary check must reject them
    path = tmp_path / "nonfinite.json"
    path.write_text(f'{{"n": 1, "re": [[{entry}, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}')
    result = runner.invoke(main, ["distance", "--unitary", str(path), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


@pytest.mark.parametrize("command, option", [
    ("decompose", "--matrix"), ("distance", "--unitary"), ("verify", "--unitary"),
])
def test_non_finite_matrix_entry_exits_2_naming_the_file(runner, tmp_path, command, option):
    # a NaN slips past decompose's Hermitian and trace checks; the reader refuses it first
    path = tmp_path / "nan.json"
    path.write_text('{"n": 1, "re": [[0, NaN], [1, 0]], "im": [[0, 0], [0, 0]]}')
    result = runner.invoke(main, [command, option, str(path), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert f"error: {path}: matrix entries must be finite" in result.output


@pytest.mark.parametrize("command, option", [("decompose", "--matrix"), ("distance", "--unitary")])
def test_boolean_matrix_entry_exits_2_naming_the_file(runner, tmp_path, command, option):
    # numpy would read true as 1: this identity would decompose to a trace error and get a distance
    path = _write(tmp_path, "bool.json", {"n": 1, "re": [[True, 0], [0, True]], "im": [[0, 0], [0, 0]]})
    result = runner.invoke(main, [command, option, path, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {path}: matrix entries must be numbers\n"


def test_distortion_refuses_a_penalty_too_large_to_sample(runner, tmp_path):
    # p^2 overflows a float: a refusal naming p, not an internal error after a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["distortion", "--n", "3", "--p", "1e160", "--samples", "100",
                                      "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert result.stderr == ("error: penalty norm evaluated to a non-finite ratio: "
                             "p = 1e+160 is too large to sample\n")
    assert not [str(w.message) for w in caught]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["distance", "verify", "simulate"])
def test_a_penalty_that_overflows_the_norm_is_refused_naming_p(runner, tmp_path, command):
    # F_p^2 of an n = 3 witness with heavy content overflows at p = 1e160
    if command == "simulate":
        payload = {"n": 3, "segments": [{"tau": 1.0, "y": {"XXX": 0.5}}]}
        source = ["--schedule", _write(tmp_path, "s3.json", payload), "--delta", "auto"]
    else:
        matrix = haar_unitary(np.random.default_rng(3), 3).matrix
        source = ["--unitary", _write(tmp_path, "u3.json", {"n": 3, "re": matrix.real.tolist(),
                                                             "im": matrix.imag.tolist()})]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [command, *source, "--p", "1e160", "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert result.stderr == ("error: penalty norm evaluated to a non-finite value: "
                             "p = 1e+160 is too large for these coordinates\n")
    assert not [str(w.message) for w in caught]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("n, words", [(1, {"X": 0.5}), (3, {"XII": 0.5, "IZZ": 0.2})])
def test_a_penalty_that_overflows_the_simulation_sandwich_is_refused_naming_p(runner, tmp_path, n, words):
    # no penalized word: the norm stays finite, and count * p * rho_sup overflows
    schedule = _write(tmp_path, "s.json", {"n": n, "segments": [{"tau": 1.0, "y": words}]})
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "0.1", "--p", "1e308",
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert result.stderr == ("error: simulation sandwich evaluated to a non-finite upper bound: "
                             "p = 1e+308 is too large for this gate sequence\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("part", ["re", "im"])
def test_ragged_matrix_exits_2_naming_the_shape(runner, tmp_path, part):
    payload = {"n": 1, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
    payload[part] = [[0, 1], [1, 0, 0]]
    path = _write(tmp_path, "rag.json", payload)
    result = runner.invoke(main, ["decompose", "--matrix", path, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {path}: {part!r} must be a 2x2 array\n"


def test_distance_brackets_rotation(runner, tmp_path):
    out = str(tmp_path / "d.json")
    result = runner.invoke(main, ["distance", "--unitary", _x_rotation(tmp_path),
                                  "--out", out, *FAST])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["results"]["lower"] == pytest.approx(0.3, abs=1e-9)
    assert report["results"]["upper"] <= 0.3 + 1e-6
    (bracket,) = report["bound_reports"]
    assert bracket["context"] == "distance-bracket"
    assert bracket["passed"]


def test_verify_identity_gives_zero_bracket(runner, tmp_path):
    out = str(tmp_path / "v.json")
    result = runner.invoke(main, ["verify", "--unitary", _identity(tmp_path),
                                  "--out", out, *FAST])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["results"]["lower"] == 0.0
    assert report["results"]["upper"] == 0.0
    assert report["results"]["segment_rhos"] == []


def test_verify_rotation_reports_segments(runner, tmp_path):
    out = str(tmp_path / "v.json")
    result = runner.invoke(main, ["verify", "--unitary", _x_rotation(tmp_path, 0.4),
                                  "--out", out, *FAST])
    assert result.exit_code == 0, result.output
    report = _report(out)
    contexts = [entry["context"] for entry in report["bound_reports"]]
    assert contexts[0] == "distance-bracket"
    assert any(c.startswith("segment-distortion-") for c in contexts)
    assert contexts[-1] == "decomposition-sandwich"
    assert all(entry["passed"] for entry in report["bound_reports"])
    assert len(report["results"]["segment_rhos"]) == len(contexts) - 2


def test_simulate_writes_gates(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    out = str(tmp_path / "sim.json")
    gates_out = str(tmp_path / "gates.json")
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "0.25",
                                  "--out", out, "--gates-out", gates_out])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["results"]["gate_count"] == 16  # 4 slices x 4 substeps x 1 term
    gates = _report(gates_out)
    assert len(gates["gates"]) == 16
    assert gates["delta"] == 0.25


def test_gates_file_reproduces_the_reported_endpoint_error(runner, tmp_path):
    # the writer and the gate product of the columnar sequence, end to end
    schedule = os.path.join(GOLDEN_INPUTS, "schedule3.json")
    out = str(tmp_path / "sim.json")
    gates_out = str(tmp_path / "gates.json")
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "0.25",
                                  "--out", out, "--gates-out", gates_out])
    assert result.exit_code == 0, result.output
    report = _report(out)["results"]
    sequence = read_gates(gates_out)
    assert sequence.gates.size == report["gate_count"]
    target = schedule_endpoint(load_schedule(schedule)).matrix
    error = phase_aligned_frobenius(gate_product(sequence).matrix, target) / 2 ** (sequence.n / 2)
    assert float(error) == report["endpoint_error"]


def test_auto_delta_gates_file_is_the_json_encoding_of_its_sequence(runner, tmp_path):
    schedule = os.path.join(GOLDEN_INPUTS, "schedule3.json")
    out = str(tmp_path / "sim.json")
    gates_out = tmp_path / "gates.json"
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "auto",
                                  "--out", out, "--gates-out", str(gates_out)])
    assert result.exit_code == 0, result.output
    sequence = read_gates(gates_out)
    expected = json.dumps(gates_payload(sequence), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert gates_out.read_bytes() == expected.encode("utf-8")
    report = _report(out)["results"]
    assert sequence.delta == report["delta"] and sequence.gates.size == report["gate_count"]
    target = schedule_endpoint(load_schedule(schedule)).matrix
    error = phase_aligned_frobenius(gate_product(sequence).matrix, target) / 2 ** (sequence.n / 2)
    assert float(error) == report["endpoint_error"]


def test_simulate_auto_delta(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", {"n": 1, "segments": [{"tau": 1.0, "y": {"X": 0.6}}]})
    out = str(tmp_path / "sim.json")
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "auto",
                                  "--p", "2", "--out", out])
    assert result.exit_code == 0, result.output
    results = _report(out)["results"]
    assert 0 < results["delta"] <= 1.0
    assert results["endpoint_error"] < 0.05


def test_simulate_auto_delta_refuses_oversize_synthesis_quickly(runner, tmp_path):
    # the auto width needs only the closed-form distance witness, so the
    # size refusal (622 slices, 1.93e6 gates at delta 0.003216) comes at once
    words = ["XIII", "IXII", "IIXI", "IIIX", "ZZII", "IZZI", "IIZZ", "XXII", "IXXI", "IIXX"]
    schedule = _write(tmp_path, "s4.json", {"n": 4, "segments": [
        {"tau": 1.0, "y": {word: 0.8 for word in words}},
        {"tau": 1.0, "y": {word: 0.8 * (-1) ** index for index, word in enumerate(words)}},
    ]})
    started = time.perf_counter()
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "auto",
                                  "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - started
    assert result.exit_code == 2, result.output
    assert "needs 622 slices and 1.93e+06 gates" in result.stderr
    assert elapsed < 3.0


def test_simulate_rejects_bad_delta(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "banana",
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "--delta" in result.output


def test_simulate_reports_are_byte_identical(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    out = tmp_path / "sim.json"
    args = ["simulate", "--schedule", schedule, "--delta", "0.2", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    first = out.read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    assert out.read_bytes() == first


def test_distance_reports_are_byte_identical(runner, tmp_path):
    out = tmp_path / "d.json"
    args = ["distance", "--unitary", _x_rotation(tmp_path), "--out", str(out),
            "--seed", "5", *FAST]
    assert runner.invoke(main, args).exit_code == 0
    first = out.read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    assert out.read_bytes() == first


def _branch_cut_target(tmp_path):
    # eigenvalues within 1e-9 of -1: no principal logarithm, but a bracket
    # on the projective group, from the shortest logarithm modulo global phase
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    matrix = np.diag(np.exp(1j * phases))
    return _write(tmp_path, "cut.json", {
        "n": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist(),
    })


def test_infeasible_target_exits_3(runner, tmp_path):
    # named for the exit 3 this target got while only the principal logarithm
    # was tried; exit 3 is gone, and the target now gets its bracket
    target = _branch_cut_target(tmp_path)
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["distance", "--unitary", target, "--out", str(out)])
    assert result.exit_code == 0, result.output
    bracket = _report(out)["results"]
    assert bracket["lower"] == pytest.approx(1.5850555511629048, abs=1e-12)
    assert bracket["upper"] == pytest.approx(1.5850555511629048, abs=1e-12)
    assert bracket["lower"] == pytest.approx(brute_force_distance(load_unitary(target)), abs=1e-12)


def test_branch_cut_target_exits_3_without_searching(runner, tmp_path):
    # named for the exit 3 this target once got; it still needs no search:
    # one witness from the shortest logarithm, well inside the time guard
    target = _branch_cut_target(tmp_path)
    started = time.perf_counter()
    result = runner.invoke(main, ["distance", "--unitary", target, "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0, result.output
    assert "no feasible schedule" not in result.stderr
    assert elapsed < 0.25


def _phased_rotation(tmp_path, phase, name):
    matrix = phase * scipy.linalg.expm(-0.2j * np.kron(np.diag([1.0, -1.0]), np.eye(2)))
    return _write(tmp_path, name, {"n": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist()})


@pytest.mark.parametrize("command", ["distance", "verify"])
def test_a_global_phase_gets_the_same_bracket(runner, tmp_path, command):
    # i exp(-0.2i ZI) and exp(-0.2i ZI) are one point of the projective group
    brackets = []
    for phase, name in ((1j, "phased.json"), (1.0, "plain.json")):
        target = _phased_rotation(tmp_path, phase, name)
        out = tmp_path / f"{command}_{name}"
        result = runner.invoke(main, [command, "--unitary", target, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = _report(out)
        assert all(entry["passed"] for entry in report["bound_reports"])
        assert report["results"]["lower"] == pytest.approx(brute_force_distance(load_unitary(target)), abs=1e-12)
        brackets.append((report["results"]["lower"], report["results"]["upper"]))
    assert brackets[0] == pytest.approx(brackets[1], abs=1e-12)
    assert brackets[1] == pytest.approx((0.2, 0.2), abs=1e-12)


def test_distance_accepts_a_determinant_error_that_unitary_admits(runner, tmp_path):
    # |det - 1| = 8e-9 <= DET_TOL; the central phase exp(4e-9 i) must not
    # reach the logarithm's roundtrip check (ROUNDTRIP_TOL = 1e-9)
    target = _x_rotation(tmp_path, phase=np.exp(4e-9j))
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["distance", "--unitary", target, "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = _report(out)["results"]
    assert (results["lower"], results["upper"]) == (0.3, 0.3)
    assert results["stats"]["endpoint_error"] <= 1e-15


def test_simulate_auto_brackets_an_endpoint_off_the_principal_branch(runner, tmp_path):
    # the endpoint's eigenphases sum to 2 pi k != 0, which once made the
    # default --delta auto exit 3 on a valid schedule
    schedule = _write(tmp_path, "s.json", {
        "n": 2, "segments": [{"tau": 2.5, "y": {"ZI": 1.0, "IZ": 0.3, "ZZ": 0.2}}],
    })
    out = tmp_path / "sim.json"
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = _report(out)
    (sandwich,) = report["bound_reports"]
    assert sandwich["context"] == "simulation-sandwich"
    assert sandwich["passed"]
    # at n = 2 the penalty is idle, so d_hat is the brute-force minimum: 1.1064091165298633
    d_hat = brute_force_distance(schedule_endpoint(load_schedule(schedule)))
    assert d_hat == pytest.approx(1.1064091165298633, abs=1e-12)
    assert report["results"]["delta"] == pytest.approx(1.0 / (4 * d_hat), rel=1e-12)


def test_a_witness_that_misses_its_target_is_an_internal_error(runner, tmp_path, monkeypatch):
    # the witness reaches its target by construction, so a miss is a fault
    # of the package: exit 2, never 1 (bound failed)
    monkeypatch.setattr(paths, "schedule_endpoint", lambda schedule: identity(schedule.n))
    result = runner.invoke(main, ["distance", "--unitary", _x_rotation(tmp_path),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "error: internal error: RuntimeError: the subgroup witness misses the target" in result.stderr
    assert not (tmp_path / "r.json").exists()


def test_distance_echoes_seed(runner, tmp_path):
    out = tmp_path / "d.json"
    result = runner.invoke(main, ["distance", "--unitary", _x_rotation(tmp_path), "--seed", "5",
                                  "--out", str(out), *FAST])
    assert result.exit_code == 0, result.output
    config = _report(out)["config"]
    assert config["seed"] == 5
    assert "restarts" not in config


def test_unexpected_exception_exits_2(runner, tmp_path, monkeypatch):
    # exit 1 means "a bound check failed"; a crash must never read as one
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.paths, "distance_upper", broken)
    result = runner.invoke(main, ["distance", "--unitary", _x_rotation(tmp_path),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "error: internal error: RuntimeError: boom" in result.stderr
    assert not (tmp_path / "r.json").exists()


def test_guard_lets_interrupts_through():
    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(SystemExit) as exit_info:
        cli._guarded(interrupted)
    assert exit_info.value.code == 130
    with pytest.raises(SystemExit) as exit_info:
        cli._guarded(lambda: sys.exit(0))
    assert exit_info.value.code == 0


def test_interrupted_run_exits_130(runner, tmp_path, monkeypatch):
    # click alone would print "Aborted!" and exit 1, the bound-failure code
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.paths, "distance_upper", interrupted)
    result = runner.invoke(main, ["distance", "--unitary", _x_rotation(tmp_path),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 130
    assert "error: interrupted" in result.stderr
    assert not (tmp_path / "r.json").exists()


#: Child-interpreter script that runs ``cgeo``.
CGEO = "from circuit_geometry.cli import main\nmain(prog_name='cgeo')\n"

#: Child-interpreter script that runs ``cgeo`` and says "sampling" on stderr
#: once the distortion sampler starts.
ANNOUNCED_SAMPLER_CGEO = (
    "import sys\n"
    "from circuit_geometry import cli\n"
    "sampler = cli.bounds.estimate_distortion\n"
    "def announced(*args):\n"
    "    print('sampling', file=sys.stderr, flush=True)\n"
    "    return sampler(*args)\n"
    "cli.bounds.estimate_distortion = announced\n"
    "cli.main(prog_name='cgeo')\n"
)


def test_sigint_stops_the_sampler(tmp_path):
    # a billion n = 6 samples run for minutes, one 1 MB block after another;
    # SIGINT lands mid-run, and the run stays under the n = 6 memory cap
    report = tmp_path / "r.json"
    proc = subprocess.Popen(
        [sys.executable, "-c", _capped_cgeo(N6_MEMORY_CAP, ANNOUNCED_SAMPLER_CGEO), "distortion",
         "--n", "6", "--samples", "1000000000", "--out", str(report)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=subprocess_env(),
    )
    try:
        assert proc.stderr.readline() == "sampling\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, stderr
    assert "error: interrupted" in stderr
    assert stdout == ""
    assert not report.exists()


#: Values the fuzz writes over entries of a valid file: numbers (NaN,
#: infinities, integers no float can hold) and values of the wrong type.
NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), st.just(10**400))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), NUMBERS, st.lists(NUMBERS, max_size=2))


def _matrix_file(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return {"n": len(matrix).bit_length() - 1, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


#: Valid files to mutate.  X and Z(x)Z decompose; the identity and
#: exp(-0.3i X) have a distance (exit 0), and so does Z(x)Z = i exp(-i pi/2 Z(x)Z),
#: whose eigenvalues sit on the branch cut.
MATRIX_FILES = [_matrix_file(m) for m in (
    np.eye(2), [[0, 1], [1, 0]], np.diag([1, -1, -1, 1]),
    [[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]],
)]
SCHEDULE_FILES = [SCHEDULE, {"n": 2, "segments": [{"tau": 0.5, "y": {"XX": 0.3, "ZI": -0.2}},
                                                  {"tau": 0.2, "y": {"YI": 0.1}}]}]


@st.composite
def _mutants(draw, files):
    """One of ``files`` with up to two entries, at any depth, replaced by junk."""
    payload = json.loads(json.dumps(draw(st.sampled_from(files))))
    for _ in range(draw(st.integers(0, 2))):
        node = payload
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            else:
                node[key] = draw(JUNK)
                break
    return payload


READERS = st.one_of(
    st.tuples(st.just(["decompose", "--matrix"]), _mutants(MATRIX_FILES)),
    st.tuples(st.just(["distance", "--segments", "1", "--unitary"]), _mutants(MATRIX_FILES)),
    st.tuples(st.just(["simulate", "--delta", "0.5", "--schedule"]), _mutants(SCHEDULE_FILES)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(READERS)
def test_json_readers_never_exit_1(runner, tmp_path, case):
    args, payload = case
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, [*args, str(path), "--out", str(tmp_path / "r.json")])
    assert result.exit_code in (0, 2), (payload, result.output)


def test_scaling_happy(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    out = str(tmp_path / "sc.json")
    result = runner.invoke(main, ["scaling", "--schedule", schedule, "--out", out])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["results"]["slope"] == pytest.approx(2.0, abs=1e-9)
    (slope_report,) = report["bound_reports"]
    assert slope_report["context"] == "scaling-slope"


def test_scaling_bound_failure_exits_1(runner, tmp_path):
    # coarse widths distort the substep count enough to drag the fitted
    # slope outside the acceptance band; the report is still written
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    out = str(tmp_path / "sc.json")
    result = runner.invoke(main, ["scaling", "--schedule", schedule,
                                  "--deltas", "0.9,0.3,0.1", "--out", out])
    assert result.exit_code == 1
    report = _report(out)
    assert not report["bound_reports"][0]["passed"]


def test_scaling_rejects_a_width_that_is_not_a_number(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    result = runner.invoke(main, ["scaling", "--schedule", schedule,
                                  "--deltas", "0.2,x,0.05", "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "error: --deltas must be comma-separated numbers, got '0.2,x,0.05'" in result.output


def test_scaling_rejects_thin_sweeps(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", SCHEDULE)
    result = runner.invoke(main, ["scaling", "--schedule", schedule,
                                  "--deltas", "0.2,0.1", "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2


def test_distortion_stratified_extremes(runner, tmp_path):
    out = str(tmp_path / "dist.json")
    result = runner.invoke(main, ["distortion", "--n", "3", "--p", "4",
                                  "--samples", "3000", "--out", out])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["results"]["m_hat"] == 1.0
    assert report["results"]["M_hat"] == 4.0
    contexts = [entry["context"] for entry in report["bound_reports"]]
    assert contexts == ["distortion-min", "distortion-max"]


def test_distortion_without_penalized_block(runner, tmp_path):
    out = str(tmp_path / "dist.json")
    result = runner.invoke(main, ["distortion", "--n", "2", "--samples", "500", "--out", out])
    assert result.exit_code == 0, result.output
    report = _report(out)
    assert report["results"]["m_exact"] == 1.0
    assert report["results"]["M_exact"] == 1.0
    assert report["results"]["m_hat"] == 1.0 == report["results"]["M_hat"]


def test_default_out_honors_env_dir(runner, tmp_path):
    result = runner.invoke(
        main,
        ["distortion", "--n", "2", "--samples", "200"],
        env={"CGEO_OUT_DIR": str(tmp_path)},
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "distortion_report.json").exists()


def test_csv_format(runner, tmp_path):
    out = tmp_path / "dist.csv"
    result = runner.invoke(main, ["distortion", "--n", "2", "--samples", "200",
                                  "--format", "csv", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "context,lower,observed,upper,passed"
    assert lines[1].startswith("distortion-min,")
    assert lines[1].endswith(",true")


@pytest.mark.parametrize("command", ["decompose", "distance", "simulate", "verify", "distortion", "scaling"])
def test_every_subcommand_ends_with_out_and_format(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    options = [line.split()[0] for line in result.output.splitlines() if line.startswith("  --")]
    assert options[-3:] == ["--out", "--format", "--help"]


def test_subcommand_declares_out_and_format(monkeypatch):
    group = click.Group()
    monkeypatch.setattr(cli, "main", group)

    @cli._subcommand
    @click.option("--x")
    def probe(x, **_):
        return None, {}, []

    assert [param.name for param in group.commands["probe"].params] == ["x", "out", "format"]


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "circuit_geometry", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("decompose", "distance", "simulate", "verify", "distortion", "scaling"):
        assert command in proc.stdout


#: numpy and the compute modules, by their names in ``sys.modules``.
NUMERICAL_MODULES = ["numpy", *(f"circuit_geometry.{name}" for name in COMPUTE_MODULES)]

#: Child-interpreter script that runs ``python -m circuit_geometry`` with its
#: arguments, then prints last on stdout which of ``NUMERICAL_MODULES`` ran; a
#: module bound but not yet run is still a lazy subclass of the module type.
LOADED_AFTER_CGEO = (
    "import runpy, sys, types\n"
    "try:\n"
    "    runpy.run_module('circuit_geometry', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    f"    print([name for name in {NUMERICAL_MODULES!r} if type(sys.modules.get(name)) is types.ModuleType])\n"
)


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["decompose", "--help"], 0),
    (["distance"], 2),
], ids=["help", "subcommand-help", "usage-error"])
def test_help_and_usage_errors_run_no_compute_module(args, code):
    # start-up outweighs most commands' own work; only a command that computes pays for numpy
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_CGEO, *args],
                          capture_output=True, text=True, timeout=60, env=subprocess_env())
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_process_entry_freezes_the_heap_once_after_running(monkeypatch):
    calls = []
    monkeypatch.setattr(entry.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(entry, "main", lambda **kwargs: calls.append(kwargs))
    entry.run()
    assert calls == [{"prog_name": "cgeo"}, "freeze"]


def test_cli_main_leaves_the_heap_unfrozen(runner):
    # the freeze belongs to the process entry; in-process callers keep their collector as it was
    before = gc.get_freeze_count()
    assert runner.invoke(main, ["--help"]).exit_code == 0
    assert gc.get_freeze_count() == before


def test_installed_script_is_the_process_entry():
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")) as handle:
        scripts = re.findall(r'^cgeo = "(.+)"$', handle.read(), re.MULTILINE)
    assert scripts == ["circuit_geometry.__main__:run"]


#: Address-space cap for the oversize-schedule runs: ample for a refused
#: run, far below what an unguarded synthesis of these schedules allocates.
MEMORY_CAP = 1 << 30


def _capped_cgeo(cap, script=CGEO):
    """Child-interpreter ``script`` with its address space capped at ``cap`` bytes."""
    return f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n{script}"


CAPPED_CGEO = _capped_cgeo(MEMORY_CAP)


@pytest.mark.parametrize("tau, delta", [(1e300, "0.1"), (1e6, "0.001")])
def test_oversize_schedule_exits_2(tmp_path, tau, delta):
    # closed-form slice and gate counts are checked before anything is allocated
    schedule = _write(tmp_path, "big.json", {"n": 1, "segments": [{"tau": tau, "y": {"X": 0.5}}]})
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CGEO, "simulate", "--schedule", schedule,
         "--delta", delta, "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "the limit is" in proc.stderr


def test_a_schedule_of_more_segments_than_the_slice_limit_exits_2(tmp_path):
    # 20,000 empty n = 6 segments (460 KB) would become gigabytes of 4095-coefficient rows
    schedule = _write(tmp_path, "long.json", {"n": 6, "segments": [{"tau": 1.0, "y": {}}] * 20000})
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CGEO, "simulate", "--schedule", schedule,
         "--delta", "1000", "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {schedule}: 20000 segments; the limit is 4096 segments\n"


@pytest.mark.parametrize("command, option, payload", [
    ("decompose", "--matrix", {"n": 10**12, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}),
    ("distance", "--unitary", {"n": 10**12, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}),
    ("simulate", "--schedule", {"n": 10**12, "segments": [{"tau": 1.0, "y": {"X": 0.5}}]}),
])
def test_huge_qubit_count_exits_2(tmp_path, command, option, payload):
    # the qubit count is range-checked before any 2**n is formed
    path = _write(tmp_path, "huge_n.json", payload)
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CGEO, command, option, path, "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "'n' must be an integer from 1 to 6" in proc.stderr


@pytest.mark.parametrize("segments", ["100000", "100000000"])
def test_oversize_witness_exits_2(tmp_path, segments):
    # segments x (4^n - 1) witness coefficients are checked before the witness is built
    hamiltonian = random_traceless_hermitian(np.random.default_rng(5), 3)
    matrix = scipy.linalg.expm(-0.1j * hamiltonian)
    target = _write(tmp_path, "u3.json", {"n": 3, "re": matrix.real.tolist(), "im": matrix.imag.tolist()})
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CGEO, "distance", "--unitary", target,
         "--segments", segments, "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "the limit is 1048576 coefficients" in proc.stderr


#: Address-space cap for the n = 6 runs.  An 8192-row batch of whole n = 6
#: draws (268 MB) does not fit under it; the block-sum sampler holds 1 MB.
N6_MEMORY_CAP = 576 << 20


@pytest.mark.parametrize("command", ["decompose", "distortion"])
def test_n6_runs_fit_under_memory_cap(tmp_path, command):
    if command == "decompose":
        matrix = random_traceless_hermitian(np.random.default_rng(3), 6)
        path = _write(tmp_path, "h6.json", {"n": 6, "re": matrix.real.tolist(), "im": matrix.imag.tolist()})
        args = ["decompose", "--matrix", path]
    else:
        args = ["distortion", "--n", "6", "--samples", "8192"]
    proc = subprocess.run(
        [sys.executable, "-c", _capped_cgeo(N6_MEMORY_CAP), *args, "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr


#: Address-space cap under which n = 6 ``decompose`` and ``simulate`` run:
#: the interpreter with numpy and click loaded (the package imports no
#: scipy), a 64 x 64 matrix and the word tables (a few MB); a dense stack
#: of the 4095 basis words (268 MB) does not fit.
N6_KERNEL_CAP = 320 << 20


@pytest.mark.parametrize("command", ["decompose", "simulate"])
def test_n6_kernel_runs_without_a_dense_basis_stack(tmp_path, command):
    if command == "decompose":
        matrix = random_traceless_hermitian(np.random.default_rng(3), 6)
        path = _write(tmp_path, "h6.json", {"n": 6, "re": matrix.real.tolist(), "im": matrix.imag.tolist()})
        args = ["decompose", "--matrix", path]
    else:
        path = _write(tmp_path, "chain6.json", chain_schedule(np.random.default_rng(11), 6, 2.0))
        args = ["simulate", "--schedule", path, "--delta", "0.05"]
    proc = subprocess.run(
        [sys.executable, "-c", _capped_cgeo(N6_KERNEL_CAP), *args, "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_distance_refuses_a_witness_over_the_coefficient_limit(runner, tmp_path):
    # 257 legs at n = 6 hold 1,052,415 coefficients, just over the limit of 2**20
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["distance", "--unitary", _identity(tmp_path, n=6),
                                  "--segments", "257", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "holds 1052415 coefficients; the limit is 1048576 coefficients" in result.output
    assert not out.exists()


def test_a_target_that_is_not_unitary_is_reported_with_its_file(runner, tmp_path):
    target = _write(tmp_path, "u.json", {"n": 1, "re": [[2.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    result = runner.invoke(main, ["distance", "--unitary", target, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert f"error: {target}: matrix is not unitary: " in result.output


def test_an_overflowing_target_is_refused_without_numpy_warnings(tmp_path):
    # the entries are finite, but U U^dagger overflows
    target = _write(tmp_path, "big.json", {"n": 1, "re": [[1e300, 0], [0, 1e300]], "im": [[0, 0], [0, 0]]})
    proc = subprocess.run(
        [sys.executable, "-m", "circuit_geometry", "distance", "--unitary", target, "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {target}: matrix is not unitary: max |U U^dagger - I| = inf\n"


def test_an_unknown_word_is_reported_with_the_file_and_the_segment(runner, tmp_path):
    schedule = _write(tmp_path, "bad.json", {"n": 1, "segments": [{"tau": 1.0, "y": {"XX": 0.5}}]})
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert f"error: {schedule}: segment 0: unknown Pauli word 'XX'" in result.output


def test_segment_below_float_resolution_exits_2(runner, tmp_path):
    # 1e17 + 1.0 == 1e17: the second segment would vanish from the running sum
    schedule = _write(tmp_path, "tiny.json", {"n": 1, "segments": [
        {"tau": 1e17, "y": {"X": 0.5}}, {"tau": 1.0, "y": {"Z": 0.5}},
    ]})
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "1e16",
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert "segment 1 (tau 1.0) is below the float resolution of its start time 1e+17" in result.output
