"""Penalty-metric circuit geometry on SU(2^n).

Tangent directions are coordinates over the generalized Pauli basis; a
weight-penalty Riemannian norm prices many-body directions; distances are
bracketed between a chart lower bound and the length of an explicit
schedule; and schedules compile into weight-two gate products whose
count and length obey the verified sandwich inequalities.
"""

from .bounds import (
    BoundReport,
    ScalingReport,
    check_segment_distortion,
    check_sim_sandwich,
    estimate_distortion,
    gate_count_bounds_chart,
    gate_count_bounds_metric,
    gate_count_scaling,
)
from .charts import (
    Unitary,
    exp_coords,
    identity,
    log_coords,
    phase_aligned_frobenius,
    unitary_exp,
)
from .errors import ValidationError
from .io import (
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
    write_bounds_csv,
    write_report,
)
from .metric import (
    MetricConfig,
    PenaltyNorm,
    default_penalty,
    distortion_constants,
)
from .pauli import (
    CoeffVector,
    decompose,
    partition_k,
    reconstruct,
    weight_vector,
    word_actions,
)
from .paths import (
    DistanceEstimate,
    WitnessStats,
    distance_upper,
    path_length,
)
from .simulation import (
    GateSequence,
    Schedule,
    SimulationResult,
    gate_product,
    project_schedule,
    schedule_endpoint,
    simulate,
    slice_mean,
    synthesize_gates,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CoeffVector",
    "DistanceEstimate",
    "GateSequence",
    "MetricConfig",
    "PenaltyNorm",
    "ScalingReport",
    "Schedule",
    "SimulationResult",
    "Unitary",
    "ValidationError",
    "WitnessStats",
    "check_segment_distortion",
    "check_sim_sandwich",
    "decompose",
    "default_penalty",
    "distance_upper",
    "distortion_constants",
    "estimate_distortion",
    "exp_coords",
    "gate_count_bounds_chart",
    "gate_count_bounds_metric",
    "gate_count_scaling",
    "gate_product",
    "gates_from_dict",
    "gates_to_dict",
    "identity",
    "load_gates",
    "load_json",
    "load_matrix",
    "load_schedule",
    "load_unitary",
    "log_coords",
    "partition_k",
    "path_length",
    "phase_aligned_frobenius",
    "project_schedule",
    "reconstruct",
    "save_gates",
    "save_matrix",
    "schedule_endpoint",
    "schedule_from_dict",
    "schedule_to_dict",
    "simulate",
    "slice_mean",
    "synthesize_gates",
    "unitary_exp",
    "weight_vector",
    "word_actions",
    "write_bounds_csv",
    "write_report",
]
