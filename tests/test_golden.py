"""Byte-for-byte golden reports for every ``cgeo`` subcommand.

Each case runs in-process from a fresh directory holding copies of
``golden/inputs``, with relative file names, because the ``config`` block
of a report echoes its input and output paths.  The exit code and the
console line are kept next to the report as ``<case>.txt``.

Each case also runs in a child interpreter with scipy blocked and must
still match its golden: the package needs numpy and click only, and this
guards against a scipy import coming back.

The goldens pin report bytes across refactors.  A change that alters the
report format on purpose regenerates them with ``python tests/test_golden.py``.
"""

import os
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

from circuit_geometry.cli import OUT_DIR_ENV, main
from util import subprocess_env

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

FAST = ["--segments", "2"]

#: Case name -> (cgeo arguments, report format).  Every case writes its
#: report to ``<case>.<format>``; ``simulate_fixed`` also writes its gates.
CASES = {
    "decompose": (["decompose", "--matrix", "hamiltonian.json"], "json"),
    "distance_rotation": (["distance", "--unitary", "rotation.json", *FAST], "json"),
    "distance_identity": (["distance", "--unitary", "identity.json", *FAST], "json"),
    "verify_rotation": (["verify", "--unitary", "rotation.json", *FAST], "json"),
    "verify_identity": (["verify", "--unitary", "identity.json", *FAST], "json"),
    "verify_rotation_csv": (["verify", "--unitary", "rotation.json", *FAST], "csv"),
    "simulate_fixed": (["simulate", "--schedule", "schedule3.json", "--delta", "0.25",
                        "--gates-out", "simulate_fixed.gates.json"], "json"),
    "simulate_auto": (["simulate", "--schedule", "schedule2.json", "--delta", "auto"], "json"),
    "distortion": (["distortion", "--n", "3", "--samples", "3000", "--seed", "5"], "json"),
    "scaling": (["scaling", "--schedule", "schedule2.json"], "json"),
}

#: Child-interpreter script that runs ``cgeo`` with scipy blocked: any
#: ``import scipy`` in it raises ``ModuleNotFoundError``.
NO_SCIPY_CGEO = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "from circuit_geometry.cli import main\n"
    "main(prog_name='cgeo')\n"
)


def _in_process(args: list[str]) -> tuple[int, str]:
    result = CliRunner().invoke(main, args)
    return result.exit_code, result.stdout


def run_case(name: str, workdir: str, invoke=_in_process) -> dict[str, bytes]:
    """Run one case inside ``workdir``; return every file it wrote, by name.

    ``invoke(args)`` runs ``cgeo`` from ``workdir`` and returns its exit
    code and standard output.
    """
    args, fmt = CASES[name]
    for entry in os.listdir(INPUTS):
        shutil.copy(os.path.join(INPUTS, entry), workdir)
    inputs = set(os.listdir(workdir))
    exit_code, stdout = invoke([*args, "--out", f"{name}.{fmt}", "--format", fmt])
    outputs = {f"{name}.txt": f"exit {exit_code}\n{stdout}".encode()}
    for entry in sorted(set(os.listdir(workdir)) - inputs):
        with open(os.path.join(workdir, entry), "rb") as handle:
            outputs[entry] = handle.read()
    return outputs


def golden_files(name: str) -> dict[str, bytes]:
    outputs = {}
    for entry in sorted(e for e in os.listdir(GOLDEN) if e.split(".")[0] == name):
        with open(os.path.join(GOLDEN, entry), "rb") as handle:
            outputs[entry] = handle.read()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    outputs = run_case(name, str(tmp_path))
    expected = golden_files(name)
    assert sorted(outputs) == sorted(expected)
    for entry in expected:
        assert outputs[entry] == expected[entry], entry


def _cgeo_without_scipy(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    # a child interpreter, since this one has scipy loaded already
    env = subprocess_env()
    env.pop(OUT_DIR_ENV, None)
    return subprocess.run([sys.executable, "-c", NO_SCIPY_CGEO, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_without_scipy(name, tmp_path):
    stderr = []

    def invoke(args):
        proc = _cgeo_without_scipy(args, str(tmp_path))
        stderr.append(proc.stderr)
        return proc.returncode, proc.stdout

    outputs = run_case(name, str(tmp_path), invoke)
    assert outputs == golden_files(name), stderr[0]


def test_help_without_scipy(tmp_path):
    proc = _cgeo_without_scipy(["--help"], str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Usage: cgeo [OPTIONS] COMMAND [ARGS]...")


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            os.environ.pop(OUT_DIR_ENV, None)
            for entry, data in run_case(case, scratch).items():
                with open(os.path.join(GOLDEN, entry), "wb") as handle:
                    handle.write(data)
        print(f"wrote goldens for {case}", file=sys.stderr)
