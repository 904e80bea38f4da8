"""Command-line front end: exit codes, report shape, determinism."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circuit_geometry import cli
from circuit_geometry.cli import main
from util import random_traceless_hermitian, subprocess_env


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _x_rotation(tmp_path, angle=0.3, name="target.json"):
    matrix = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * np.array([[0, 1], [1, 0]])
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
    assert report["bound_reports"] == []


def test_decompose_rejects_non_hermitian(runner, tmp_path):
    matrix = _write(tmp_path, "bad.json", {
        "n": 1, "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]],
    })
    result = runner.invoke(main, ["decompose", "--matrix", matrix,
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "not Hermitian" in result.output


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


def test_simulate_auto_delta(runner, tmp_path):
    schedule = _write(tmp_path, "s.json", {"n": 1, "segments": [{"tau": 1.0, "y": {"X": 0.6}}]})
    out = str(tmp_path / "sim.json")
    result = runner.invoke(main, ["simulate", "--schedule", schedule, "--delta", "auto",
                                  "--segments", "2", "--p", "2", "--out", out])
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


def test_infeasible_target_exits_3(runner, tmp_path):
    # diagonal with eigenvalues pinned to the branch cut: the subgroup
    # start is rejected, so there is nothing to search
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    matrix = np.diag(np.exp(1j * phases))
    target = _write(tmp_path, "cut.json", {
        "n": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist(),
    })
    result = runner.invoke(main, ["distance", "--unitary", target,
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 3


def test_branch_cut_target_exits_3_without_searching(runner, tmp_path):
    phases = np.array([np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3])
    matrix = np.diag(np.exp(1j * phases))
    target = _write(tmp_path, "cut.json", {
        "n": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist(),
    })
    started = time.perf_counter()
    result = runner.invoke(main, ["distance", "--unitary", target, "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - started
    assert result.exit_code == 3
    assert "no feasible schedule found" in result.stderr
    assert "principal logarithm" in result.stderr
    assert elapsed < 0.25


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

    monkeypatch.setattr(cli, "distance_upper", broken)
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

    monkeypatch.setattr(cli, "distance_upper", interrupted)
    result = runner.invoke(main, ["distance", "--unitary", _x_rotation(tmp_path),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 130
    assert "error: interrupted" in result.stderr
    assert not (tmp_path / "r.json").exists()


#: Values the fuzz writes over entries of a valid file: numbers (NaN,
#: infinities, integers no float can hold) and values of the wrong type.
NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), st.just(10**400))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), NUMBERS, st.lists(NUMBERS, max_size=2))


def _matrix_file(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return {"n": len(matrix).bit_length() - 1, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


#: Valid files to mutate.  X and Z(x)Z decompose; the identity and
#: exp(-0.3i X) have a distance (exit 0), and Z(x)Z sits on the branch cut (exit 3).
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
    assert result.exit_code in (0, 2, 3), (payload, result.output)


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


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "circuit_geometry", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("decompose", "distance", "simulate", "verify", "distortion", "scaling"):
        assert command in proc.stdout


#: Address-space cap for the oversize-schedule runs: ample for a refused
#: run, far below what an unguarded synthesis of these schedules allocates.
MEMORY_CAP = 1 << 30


def _capped_cgeo(cap):
    """Child-interpreter script that runs ``cgeo`` with its address space capped at ``cap`` bytes."""
    return (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from circuit_geometry.cli import main\n"
        "main(prog_name='cgeo')\n"
    )


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


#: Address-space cap for the n = 6 runs.  The dense basis stack is 268 MB
#: and fits once; a second full copy of it, or a distortion batch of 8192
#: rows (268 MB), does not.
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
