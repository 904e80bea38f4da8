"""Byte-for-byte golden reports for every ``cgeo`` subcommand.

Each case runs in-process from a fresh directory holding copies of
``golden/inputs``, with relative file names, because the ``config`` block
of a report echoes its input and output paths.  The exit code and the
console line are kept next to the report as ``<case>.txt``.

The goldens pin report bytes across refactors.  A change that alters the
report format on purpose regenerates them with ``python tests/test_golden.py``.
"""

import os
import shutil
import sys

import pytest
from click.testing import CliRunner

from circuit_geometry.cli import OUT_DIR_ENV, main

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
    "simulate_auto": (["simulate", "--schedule", "schedule2.json", "--delta", "auto", *FAST],
                      "json"),
    "distortion": (["distortion", "--n", "3", "--samples", "3000", "--seed", "5"], "json"),
    "scaling": (["scaling", "--schedule", "schedule2.json"], "json"),
}


def run_case(name: str, workdir: str) -> dict[str, bytes]:
    """Run one case inside ``workdir``; return every file it wrote, by name."""
    args, fmt = CASES[name]
    for entry in os.listdir(INPUTS):
        shutil.copy(os.path.join(INPUTS, entry), workdir)
    inputs = set(os.listdir(workdir))
    result = CliRunner().invoke(main, [*args, "--out", f"{name}.{fmt}", "--format", fmt])
    outputs = {f"{name}.txt": f"exit {result.exit_code}\n{result.stdout}".encode()}
    for entry in sorted(set(os.listdir(workdir)) - inputs):
        with open(os.path.join(workdir, entry), "rb") as handle:
            outputs[entry] = handle.read()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    outputs = run_case(name, str(tmp_path))
    expected = sorted(e for e in os.listdir(GOLDEN) if e.split(".")[0] == name)
    assert sorted(outputs) == expected
    for entry in expected:
        with open(os.path.join(GOLDEN, entry), "rb") as handle:
            assert outputs[entry] == handle.read(), entry


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
