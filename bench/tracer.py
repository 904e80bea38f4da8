"""Run one ``cgeo`` command with a span around every call into a traced function.

Usage::

    python bench/tracer.py SPANS.npz -- <cgeo arguments>

The package is imported from ``PYTHONPATH``.  Each function in ``TRACED`` is
replaced by a wrapper in every ``circuit_geometry`` namespace that binds it
(``paths.phase_aligned_frobenius`` as well as ``charts.phase_aligned_frobenius``),
so internal calls are seen too.  A span is (function, start, end, parent
span); spans stay in memory and are written once, when the command exits,
together with a few counts read from the arguments and results (``PROBES``).
Times come from ``time.perf_counter``, which reads the system-wide monotonic
clock, so the benchmark can place spans inside the wall time it measured.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

#: Public functions whose calls are timed, by module.  A name missing from
#: the package is skipped, so the list may run ahead of refactors.
TRACED = {
    "pauli": ["basis_matrices", "decompose", "reconstruct"],
    "charts": ["unitary_exp", "phase_aligned_frobenius", "log_coords", "exp_coords"],
    "metric": ["minkowski_norm", "PenaltyNorm.__call__"],
    "paths": ["distance_upper", "distance_lower", "path_length", "path_endpoint"],
    "simulation": [
        "simulate", "schedule_endpoint", "project_schedule", "slice_mean",
        "synthesize_gates", "gate_product",
    ],
    "bounds": [
        "estimate_distortion", "check_segment_distortion", "check_sim_sandwich",
        "gate_count_scaling",
    ],
    "io": [
        "load_json", "load_matrix", "load_unitary", "load_path", "load_schedule",
        "write_report", "write_bounds_csv", "save_gates",
    ],
}


def _rows(values) -> int:
    values = getattr(values, "values", values)
    shape = np.shape(values)
    return int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1


def _estimate_distortion(args, result):
    import circuit_geometry.bounds as bounds

    samples, n = int(args[2]), int(args[1])
    chunk = min(getattr(bounds, "SAMPLE_CHUNK", samples), samples)
    return {"samples": samples, "chunk_bytes": chunk * (4**n - 1) * 8}


#: Counts recorded on a span after its call returns: name -> f(args, result).
PROBES = {
    "pauli.basis_matrices": lambda args, result: {"n": int(args[0])},
    "io.load_json": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "io.write_report": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "io.write_bounds_csv": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "paths.distance_upper": lambda args, result: {
        "evaluations": int(result.stats.evaluations), "runs": int(result.stats.runs),
    },
    "simulation.gate_product": lambda args, result: {
        "n": int(args[0].n), "gates": len(args[0].gates),
    },
    "metric.PenaltyNorm.__call__": lambda args, result: {"rows": _rows(args[1])},
    "metric.minkowski_norm": lambda args, result: {"rows": _rows(args[0])},
    "bounds.estimate_distortion": _estimate_distortion,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, function):
        probe = PROBES.get(name)
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_index[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if probe is not None:
                try:
                    self.counts[index] = probe(args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    pass
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Wrap every traced function at every package namespace that binds it."""
        modules = [
            module for key, module in sys.modules.items()
            if module is not None and key.split(".")[0] == "circuit_geometry"
        ]
        for module_name, functions in TRACED.items():
            module = sys.modules.get(f"circuit_geometry.{module_name}")
            if module is None:
                continue
            for qualified in functions:
                owner_name, _, attr = qualified.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{qualified}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)

    def dump(self, path: str, meta: dict) -> None:
        meta = dict(meta, names=self.names, counts={str(k): v for k, v in self.counts.items()})
        np.savez(
            path,
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def main(argv: list[str]) -> None:
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py SPANS.npz -- <cgeo arguments>")
    spans_path, cgeo_args = argv[0], argv[2:]
    began = time.perf_counter()
    import circuit_geometry.cli as cli

    import_s = time.perf_counter() - began
    tracer = Tracer()
    tracer.install()
    try:
        cli.main(args=cgeo_args, prog_name="cgeo")
    finally:
        tracer.dump(spans_path, {"import_s": import_s})


if __name__ == "__main__":
    main(sys.argv[1:])
