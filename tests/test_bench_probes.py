"""The benchmark's per-layer probes still find the counts they read.

``bench/tracer.py`` wraps package functions by name and reads counts from
their arguments and results.  A refactor that renames a traced function,
or changes what it takes or returns, silently drops those counts; these
runs catch that.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from util import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "bench", "tracer.py")
INPUTS = os.path.join(ROOT, "tests", "golden", "inputs")


def _traced(tmp_path, args):
    """Run ``cgeo args`` under the tracer in a copy of the golden inputs; the spans file."""
    for entry in os.listdir(INPUTS):
        shutil.copy(os.path.join(INPUTS, entry), tmp_path)
    spans = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, TRACER, str(spans), "--", *args, "--out", "report.json"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return str(spans)


def _probe_counts(spans_path: str) -> dict[str, list[dict]]:
    """Recorded counts, grouped by traced function name."""
    with np.load(spans_path) as data:
        meta = json.loads(str(data["meta"]))
        span_names = data["name"]
    grouped: dict[str, list[dict]] = {}
    for index, counts in meta["counts"].items():
        grouped.setdefault(meta["names"][span_names[int(index)]], []).append(counts)
    return grouped


@pytest.mark.parametrize("args, traced, keys", [
    (["distance", "--unitary", "rotation.json", "--segments", "2"],
     "paths.distance_upper", {"evaluations", "runs"}),
    (["simulate", "--schedule", "schedule3.json", "--delta", "0.25"],
     "simulation.gate_product", {"n", "gates"}),
    (["distortion", "--n", "2", "--samples", "200"],
     "bounds.estimate_distortion", {"samples", "chunk_bytes"}),
])
def test_tracer_records_probe_counts(tmp_path, args, traced, keys):
    recorded = _probe_counts(_traced(tmp_path, args)).get(traced, [])
    assert recorded, f"no counts recorded for {traced}"
    assert all(keys <= set(counts) for counts in recorded)


def test_tracer_sees_the_gates_write(tmp_path):
    # io.write.self_s counts the gates file only while save_gates is the function that writes it
    spans = _traced(tmp_path, ["simulate", "--schedule", "schedule3.json", "--delta", "0.25",
                               "--gates-out", "g.json"])
    with np.load(spans) as data:
        names = json.loads(str(data["meta"]))["names"]
        called = {names[index] for index in data["name"]}
    assert "io.save_gates" in called
