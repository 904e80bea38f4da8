"""Penalty-metric circuit geometry on SU(2^n).

Tangent directions are coordinates over the generalized Pauli basis; a
weight-penalty Riemannian norm prices many-body directions; distances are
bracketed between a chart lower bound and the length of an explicit
schedule; and schedules compile into weight-two gate products whose
count and length obey the verified sandwich inequalities.

The compute modules, and numpy with them, load on first use: each sits in
``sys.modules`` from package import on, but its body runs only when one of
its attributes is read, so ``cgeo --help`` and usage errors never run them.
"""

import importlib.util
import sys

from .errors import ValidationError

__version__ = "0.1.0"

#: Public names by the compute module that defines them.
_EXPORTS = {
    "bounds": [
        "BoundReport", "ScalingReport", "check_round_trip", "check_segment_distortion", "check_sim_sandwich",
        "estimate_distortion", "gate_count_bounds_chart", "gate_count_bounds_metric",
        "gate_count_scaling",
    ],
    "charts": ["Unitary", "exp_coords", "identity", "log_coords", "phase_aligned_frobenius", "unitary_exp"],
    "io": [
        "load_json", "load_matrix", "load_schedule", "load_unitary", "save_gates", "schedule_from_dict",
        "schedule_to_dict", "write_bounds_csv", "write_report",
    ],
    "metric": ["MetricConfig", "PenaltyNorm", "default_penalty", "distortion_constants"],
    "pauli": ["CoeffVector", "decompose", "partition_k", "reconstruct", "weight_vector", "word_actions"],
    "paths": ["DistanceEstimate", "WitnessStats", "distance_upper", "path_length"],
    "simulation": [
        "GateSequence", "Schedule", "SimulationResult", "gate_product", "project_schedule",
        "schedule_endpoint", "simulate", "slice_mean", "synthesize_gates",
    ],
}


def _lazy(name: str):
    """Bind submodule ``name`` without running it (importlib's ``LazyLoader`` recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _EXPORTS)

#: Public name -> the module that defines it.
_HOME = {name: globals()[module] for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["ValidationError", *_HOME])


def __getattr__(name: str):
    # an unknown name falls through to the plain lookup, whose AttributeError
    # is what PEP 562 asks of a module __getattr__
    home = _HOME.get(name)
    return getattr(home, name) if home is not None else object.__getattribute__(sys.modules[__name__], name)


def __dir__():
    return sorted([*globals(), *_HOME])
