"""Metric definitions, the predictions that tie layers to them, and span arithmetic.

End-to-end metrics come from untraced runs and are what a ``cgeo`` user
pays: every command is a fresh process, so process start and imports count.
The contract requires every end-to-end metric on every workload, so the two
per-command times and the quality number are named by role; ``ALIASES``
gives the name each takes on each workload (``main_cmd_s`` is
``distance_s`` on ``bracket``).  Per-layer metrics come from a separate
traced run (see ``tracer.py``); the layers are the package's modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None

    def to_json(self) -> dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


END_TO_END = [
    # median wall time of `python -m circuit_geometry --help`, a fresh process
    Metric("setup_s", "s", "lower", 0.25),
    # wall time of one pass over the workload's command sequence: the sum of
    # every command's median wall time over the run's samples of it
    Metric("wall_s", "s", "lower", 0.24),
    # the same sum over the workload's main / other subcommands only
    Metric("main_cmd_s", "s", "lower", 0.24),
    Metric("other_cmd_s", "s", "lower", 0.24),
    # largest ru_maxrss of any one command
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    # bound or synthesis quality of the workload's main command
    Metric("quality", "1", "lower", 0.15),
]

#: What the role-named metrics are on each workload.
ALIASES = {
    "bracket": {"main_cmd_s": "distance_s", "other_cmd_s": "verify_s", "quality": "bracket_ratio"},
    "synthesis": {"main_cmd_s": "simulate_s", "other_cmd_s": "scaling_s", "quality": "endpoint_error"},
    "sampling": {
        "main_cmd_s": "distortion_s", "other_cmd_s": "decompose_s", "quality": "distortion_coverage",
    },
}

LAYERS = ("pauli", "charts", "metric", "paths", "simulation", "bounds", "io", "cli")

PER_LAYER = [
    Metric("paths.self_s", "s"),
    Metric("paths.distance_upper.self_s", "s"),
    Metric("paths.evaluations", "count", "higher"),
    Metric("paths.runs", "count"),
    Metric("paths.evals_per_s", "1/s", "higher"),
    Metric("paths.search_gain", "1", "higher"),
    Metric("charts.self_s", "s"),
    Metric("charts.phase_aligned_frobenius.calls", "count"),
    Metric("charts.phase_aligned_frobenius.self_s", "s"),
    Metric("charts.log_coords.calls", "count"),
    Metric("charts.log_coords.self_s", "s"),
    Metric("charts.unitary_exp.calls", "count"),
    Metric("charts.unitary_exp.self_s", "s"),
    Metric("pauli.self_s", "s"),
    Metric("pauli.basis_matrices.first_s", "s"),
    Metric("pauli.decompose.calls", "count"),
    Metric("pauli.decompose.self_s", "s"),
    Metric("pauli.reconstruct.calls", "count"),
    Metric("pauli.reconstruct.self_s", "s"),
    Metric("pauli.dense_stack_bytes", "B"),
    Metric("simulation.self_s", "s"),
    Metric("simulation.schedule_endpoint.self_s", "s"),
    Metric("simulation.slice_mean.self_s", "s"),
    Metric("simulation.synthesize_gates.self_s", "s"),
    Metric("simulation.gate_product.self_s", "s"),
    Metric("simulation.gates", "count"),
    Metric("simulation.gate_product.flops", "flop"),
    Metric("metric.self_s", "s"),
    Metric("metric.norm.rows", "count"),
    Metric("metric.norm.self_s", "s"),
    Metric("bounds.self_s", "s"),
    Metric("bounds.estimate_distortion.self_s", "s"),
    Metric("bounds.samples_per_s", "1/s", "higher"),
    Metric("bounds.chunk_bytes", "B"),
    Metric("io.self_s", "s"),
    Metric("io.read.self_s", "s"),
    Metric("io.read.bytes", "B"),
    Metric("io.write.self_s", "s"),
    Metric("io.write.bytes", "B"),
    Metric("cli.self_s", "s"),
    Metric("cli.import_s", "s"),
    Metric("tracing_overhead", "1"),
]

#: Which end-to-end metric each layer's work should move, on which workload,
#: and where the prediction is no change.  End-to-end names are the workload
#: aliases above; later performance work cites these rows.
PREDICTIONS = [
    {
        "layer": "paths",
        "metrics": ["paths.distance_upper.self_s", "paths.evaluations", "paths.runs",
                    "paths.evals_per_s", "paths.search_gain"],
        "moves": {"bracket": ["distance_s", "verify_s", "bracket_ratio"]},
        "no_change": ["synthesis", "sampling"],
    },
    {
        "layer": "charts",
        "metrics": ["charts.phase_aligned_frobenius.*", "charts.log_coords.*", "charts.unitary_exp.*"],
        "moves": {"bracket": ["distance_s"]},
        "no_change": ["sampling"],
    },
    {
        "layer": "pauli",
        "metrics": ["pauli.basis_matrices.first_s", "pauli.decompose.*", "pauli.reconstruct.*",
                    "pauli.dense_stack_bytes"],
        "moves": {
            "sampling": ["decompose_s", "peak_rss_mb"],
            "synthesis": ["simulate_s", "peak_rss_mb"],
        },
        "no_change": ["bracket: peak_rss_mb"],
    },
    {
        "layer": "simulation",
        "metrics": ["simulation.*.self_s", "simulation.gates", "simulation.gate_product.flops"],
        "moves": {"synthesis": ["simulate_s", "scaling_s"]},
        "no_change": ["bracket", "sampling"],
    },
    {
        "layer": "metric, bounds",
        "metrics": ["metric.norm.rows", "metric.norm.self_s", "bounds.estimate_distortion.self_s",
                    "bounds.samples_per_s", "bounds.chunk_bytes"],
        "moves": {"sampling": ["distortion_s", "peak_rss_mb"]},
        "no_change": ["synthesis"],
    },
    {
        "layer": "io",
        "metrics": ["io.read.*", "io.write.*"],
        "moves": {"synthesis": ["simulate_s (writes)"], "sampling": ["decompose_s (reads)"]},
        "no_change": ["bracket"],
    },
    {
        "layer": "cli",
        "metrics": ["cli.self_s", "cli.import_s"],
        "moves": {"bracket": ["setup_s"], "synthesis": ["setup_s"], "sampling": ["setup_s"]},
        "no_change": [],
    },
]

IO_READERS = ("io.load_json", "io.load_matrix", "io.load_unitary", "io.load_path", "io.load_schedule")
IO_WRITERS = ("io.write_report", "io.write_bounds_csv", "io.save_gates")
NORMS = ("metric.PenaltyNorm.__call__", "metric.minkowski_norm")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread's call stack, so the children of a span are
    disjoint and lie inside it, and the time they cover is their summed
    duration.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


@dataclass
class CommandTrace:
    """Spans of one traced command, with the wall interval the benchmark measured."""

    wall_start: float
    wall_end: float
    names: list[str]
    span_name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    counts: dict
    import_s: float

    @property
    def wall_s(self) -> float:
        return self.wall_end - self.wall_start

    def top_level_s(self) -> float:
        """Time covered by spans with no traced parent."""
        top = self.parent < 0
        return float(np.sum(self.end[top] - self.start[top]))

    def cli_self_s(self) -> float:
        """Wall time not covered by any traced call: start-up, parsing, exit."""
        return self.wall_s - self.top_level_s()

    def spans_inside_wall(self) -> bool:
        if self.start.size == 0:
            return True
        return bool(self.start.min() >= self.wall_start and self.end.max() <= self.wall_end)


def layer_metrics(commands: list[CommandTrace], untraced_wall_s: float, search_gain: float) -> dict:
    """Per-layer metrics summed over the traced commands of one workload pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, list[dict]] = {}
    first_basis_s = 0.0
    for command in commands:
        own = self_times(command.start, command.end, command.parent)
        duration = command.end - command.start
        for name_id, name in enumerate(command.names):
            mine = command.span_name == name_id
            calls[name] = calls.get(name, 0) + int(np.count_nonzero(mine))
            self_s[name] = self_s.get(name, 0.0) + float(np.sum(own[mine]))
            total_s[name] = total_s.get(name, 0.0) + float(np.sum(duration[mine]))
        for index, values in command.counts.items():
            counts.setdefault(command.names[command.span_name[int(index)]], []).append(values)
        if "pauli.basis_matrices" in command.names:
            first = np.flatnonzero(command.span_name == command.names.index("pauli.basis_matrices"))
            if first.size:
                first_basis_s += float(duration[first[0]])

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def count(name, key):
        return sum(entry.get(key, 0) for entry in counts.get(name, []))

    def layer(prefix):
        return sum(value for name, value in self_s.items() if name.startswith(prefix + "."))

    evaluations = count("paths.distance_upper", "evaluations")
    samples = count("bounds.estimate_distortion", "samples")
    gate_spans = counts.get("simulation.gate_product", [])
    basis_n = [entry["n"] for entry in counts.get("pauli.basis_matrices", [])]
    traced_wall = sum(c.wall_s for c in commands)
    metrics = {
        "paths.distance_upper.self_s": s("paths.distance_upper"),
        "paths.evaluations": evaluations,
        "paths.runs": count("paths.distance_upper", "runs"),
        "paths.evals_per_s": evaluations / total_s["paths.distance_upper"] if evaluations else 0.0,
        "paths.search_gain": search_gain,
        "pauli.basis_matrices.first_s": first_basis_s,
        "pauli.dense_stack_bytes": max(((4**n - 1) * 4**n * 16 for n in basis_n), default=0),
        "simulation.gates": sum(entry["gates"] for entry in gate_spans),
        "simulation.gate_product.flops": sum(e["gates"] * 8 * (2 ** e["n"]) ** 3 for e in gate_spans),
        "metric.norm.rows": sum(count(name, "rows") for name in NORMS),
        "metric.norm.self_s": s(*NORMS),
        "bounds.samples_per_s": samples / total_s["bounds.estimate_distortion"] if samples else 0.0,
        "bounds.chunk_bytes": max(
            (e["chunk_bytes"] for e in counts.get("bounds.estimate_distortion", [])), default=0
        ),
        "io.read.self_s": s(*IO_READERS),
        "io.read.bytes": count("io.load_json", "bytes"),
        "io.write.self_s": s(*IO_WRITERS),
        "io.write.bytes": count("io.write_report", "bytes") + count("io.write_bounds_csv", "bytes"),
        "cli.self_s": sum(c.cli_self_s() for c in commands),
        "cli.import_s": float(np.median([c.import_s for c in commands])) if commands else 0.0,
        "tracing_overhead": traced_wall / untraced_wall_s - 1.0 if untraced_wall_s > 0 else 0.0,
    }
    for name in ("charts.phase_aligned_frobenius", "charts.log_coords", "charts.unitary_exp",
                 "pauli.decompose", "pauli.reconstruct"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = s(name)
    for name in ("simulation.schedule_endpoint", "simulation.slice_mean", "simulation.synthesize_gates",
                 "simulation.gate_product", "bounds.estimate_distortion"):
        metrics[f"{name}.self_s"] = s(name)
    for prefix in LAYERS:
        if prefix != "cli":
            metrics[f"{prefix}.self_s"] = layer(prefix)
    return metrics


def layer_breakdown(command: CommandTrace) -> dict:
    """Self time per layer for one command, with ``cli`` as the uncovered rest."""
    own = self_times(command.start, command.end, command.parent)
    shares = {"cli": command.cli_self_s()}
    for name_id, name in enumerate(command.names):
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + float(np.sum(own[command.span_name == name_id]))
    return shares
