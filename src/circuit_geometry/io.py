"""File formats and deterministic report writing.

Three JSON formats cross the package boundary:

* matrix: ``{"n": int, "re": [[...]], "im": [[...]]}`` -- a dense complex
  matrix split into real and imaginary parts, row major;
* schedule: ``{"n": int, "segments": [{"tau": float, "y": {word: coeff}}]}``
  -- a piecewise-constant control schedule (a path) of at most
  ``MAX_SLICES`` segments, omitted words read as zero; read and written
  by :func:`schedule_from_dict` and :func:`schedule_to_dict`;
* gates: ``{"n": int, "delta": float, "gates": [{"pauli": word,
  "angle": float}]}`` -- a synthesized gate sequence in order, written
  by :func:`save_gates` and never read by the package.

Reports are serialized with sorted keys, two-space indentation, and a
trailing newline, and written atomically, so identical inputs produce
byte-identical files.  The gates file is written from a template in that
layout, which a test pins to the json encoder byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .charts import Unitary
from .errors import ValidationError
from .pauli import MAX_QUBITS, CoeffVector, _words
from .simulation import MAX_SLICES, GateSequence, Schedule, _block_runs


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _qubits(n, source: str) -> int:
    """The ``n`` field, checked before anything is sized by it (``2**n`` for
    a huge ``n`` would exhaust memory)."""
    _require(type(n) is int and 1 <= n <= MAX_QUBITS,
             f"{source}: 'n' must be an integer from 1 to {MAX_QUBITS}")
    return n


def _number(value, what: str) -> float:
    """``float(value)`` for a JSON number; ``ValidationError`` for anything else,
    including an integer too large for a float."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is too large for a float") from None


def _named(where: str, build, *args):
    """``build(*args)``, with ``where: `` put in front of any ``ValidationError`` it raises."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _as_complex(payload: dict, path: str) -> tuple[int, np.ndarray]:
    _require(isinstance(payload, dict), f"{path}: expected a JSON object")
    for key in ("n", "re", "im"):
        _require(key in payload, f"{path}: missing key {key!r}")
    n = _qubits(payload["n"], path)
    dim = 2**n
    # the shape is checked on the lists: numpy's refusal of a ragged one names no part of the file
    for part in ("re", "im"):
        rows = payload[part]
        _require(isinstance(rows, list) and len(rows) == dim
                 and all(isinstance(row, list) and len(row) == dim for row in rows),
                 f"{path}: {part!r} must be a {dim}x{dim} array")
    # numpy reads true as 1 and "2" as 2.0; a JSON number is an int or a float, and never a bool
    kinds = {type(v) for part in ("re", "im") for row in payload[part] for v in row}
    _require(kinds <= {int, float}, f"{path}: matrix entries must be numbers")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"{path}: matrix entries must be numbers ({exc})")
    _require(np.all(np.isfinite(re)) and np.all(np.isfinite(im)), f"{path}: matrix entries must be finite")
    return n, re + 1j * im


def load_json(path: str) -> dict:
    """Read a JSON file, converting parse failures to ``ValidationError``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})")


def load_matrix(path: str) -> tuple[int, np.ndarray]:
    """Read a matrix file; returns ``(n, complex matrix)`` without unitarity checks."""
    return _as_complex(load_json(path), path)


def load_unitary(path: str) -> Unitary:
    """Read a matrix file and validate it as an element of SU(2^n)."""
    return _named(path, Unitary, *load_matrix(path))


def schedule_from_dict(payload: dict, source: str = "<schedule>") -> Schedule:
    """Parse the schedule format.  The reader checks the JSON shape, and
    :meth:`CoeffVector.from_words` and :meth:`Schedule.from_segments` check the
    words, coefficients and durations.  Every refusal starts with ``source``
    and names the segment.  More than :data:`MAX_SLICES` segments are
    refused before any row is built."""
    _require(isinstance(payload, dict), f"{source}: expected a JSON object")
    for key in ("n", "segments"):
        _require(key in payload, f"{source}: missing key {key!r}")
    n = _qubits(payload["n"], source)
    segments = payload["segments"]
    _require(isinstance(segments, list) and segments, f"{source}: 'segments' must be a nonempty list")
    # each segment becomes a 4^n - 1 row: refuse a long list before building any
    _require(len(segments) <= MAX_SLICES,
             f"{source}: {len(segments)} segments; the limit is {MAX_SLICES} segments")
    rows = []
    taus = []
    for index, entry in enumerate(segments):
        where = f"{source}: segment {index}"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        _require("tau" in entry and "y" in entry, f"{where}: needs 'tau' and 'y'")
        taus.append(_number(entry["tau"], f"{where}: 'tau'"))
        mapping = entry["y"]
        _require(isinstance(mapping, dict), f"{where}: 'y' must be an object of word: coefficient")
        mapping = {word: _number(value, f"{where}: coefficient for {word!r}") for word, value in mapping.items()}
        rows.append(_named(where, CoeffVector.from_words, n, mapping).values)
    return _named(source, Schedule.from_segments, n, rows, taus)


def schedule_to_dict(schedule: Schedule) -> dict:
    """The schedule format of a piecewise-constant schedule (no segments when empty)."""
    return {
        "n": schedule.n,
        "segments": [
            {"tau": tau, "y": CoeffVector(schedule.n, row).to_words()}
            for row, tau in schedule.segments
        ],
    }


def load_schedule(path: str) -> Schedule:
    """Read a schedule file."""
    return schedule_from_dict(load_json(path), path)


def save_gates(path: str, sequence: GateSequence) -> None:
    """:func:`write_report` of the gates format, each position as its word's letters, from a template;
    json's indenting encoder is pure Python.  json too writes floats by ``float.__repr__``;
    :class:`GateSequence` refuses non-finite ones.  Each run of repeated blocks is formatted once."""
    letters = _words(sequence.n)[0]
    positions, angles = sequence.gates.tolist(), sequence.angles.tolist()
    blocks = []
    # runs compare the angles' bits, since 0.0 == -0.0 but their reprs differ
    for lo, hi, count in _block_runs(sequence.gates, sequence.angles.view(np.int64)):
        block = ",\n".join([f'    {{\n      "angle": {angle!r},\n      "pauli": "{letters[k]}"\n    }}'
                            for k, angle in zip(positions[lo:hi], angles[lo:hi])])
        blocks += [block] * count
    body = ",\n".join(blocks)
    gates = f"[\n{body}\n  ]" if body else "[]"
    _write_atomic(path, f'{{\n  "delta": {json.dumps(sequence.delta)},\n  "gates": {gates},\n'
                        f'  "n": {json.dumps(sequence.n)}\n}}\n')


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as stream:
            stream.write(text)
        umask = os.umask(0)  # read by setting it, which is safe: the package starts no threads
        os.umask(umask)
        os.chmod(temp_path, 0o666 & ~umask)  # the mode open(path, "w") gives, not mkstemp's 0600
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def write_report(path: str, payload: dict) -> None:
    """Serialize ``payload`` deterministically and write it atomically.

    Sorted keys, two-space indentation, trailing newline; NaNs are
    rejected rather than emitted as nonstandard JSON.
    """
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_atomic(path, text)


def write_bounds_csv(path: str, reports) -> None:
    """Write bound reports as CSV with a fixed header and row order."""
    lines = ["context,lower,observed,upper,passed"]
    for report in reports:
        lines.append(
            f"{report.context},{report.lower!r},{report.observed!r},"
            f"{report.upper!r},{str(report.passed).lower()}"
        )
    _write_atomic(path, "\n".join(lines) + "\n")
