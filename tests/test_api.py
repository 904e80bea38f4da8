"""The public surface: every exported name resolves, and removed names stay removed."""

import ast
import importlib
import pathlib

import pytest
from click.testing import CliRunner

import circuit_geometry
from circuit_geometry.cli import main

#: Names deleted when each job was left with a single public entry point, the
#: "infeasible" outcome, which no target has once every target gets a bracket,
#: the exception classes folded into the one refusal type, ``ValidationError``,
#: and the dense Pauli word type, which only the tests' oracle needed.
REMOVED = {
    "bounds": ["_strata", "_require_positive"],
    "charts": ["ChartPoint", "CHART_RADIUS", "eigen_exp", "chart_segment_rho"],
    "cli": ["EXIT_INFEASIBLE"],
    "errors": ["InfeasibleError", "DomainError", "IdentityComponentError", "CoefficientBoundError",
               "BranchCutError", "EvaluationError"],
    "metric": ["minkowski_norm", "penalty_weights", "_weighted_norm", "_coerce_values",
               "check_finsler_properties", "half_square_hessian", "NormPropertyReport",
               "_evaluate", "_central_gradient"],
    "paths": ["OptimizerSettings", "OptimizerStats", "distance_lower"],
    "pauli": ["PauliString", "enumerate_basis", "_SINGLE", "_phase_grid"],
    "simulation": ["project_hamiltonian"],
}


def test_every_exported_name_resolves():
    assert len(set(circuit_geometry.__all__)) == len(circuit_geometry.__all__)
    for name in circuit_geometry.__all__:
        assert getattr(circuit_geometry, name) is not None, name


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_names_are_gone(module, name):
    assert name not in circuit_geometry.__all__
    assert not hasattr(circuit_geometry, name)
    assert not hasattr(importlib.import_module(f"circuit_geometry.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from circuit_geometry import {name}", {})


SOURCES = sorted(pathlib.Path(circuit_geometry.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_raise_is_a_refusal_or_a_fault(path):
    # a refusal is a ValidationError and a fault a RuntimeError; no other exception class comes back
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert isinstance(raised, ast.Name) and raised.id in ("ValidationError", "RuntimeError"), \
                f"{path.name}:{node.lineno}"


def test_the_one_exception_class_is_validation_error():
    tree = ast.parse(pathlib.Path(circuit_geometry.errors.__file__).read_text(encoding="utf-8"))
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["ValidationError"]


def test_removed_modules_are_gone():
    # the distortion sampler, its only caller, builds its stream itself
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("circuit_geometry.seeding")


def test_removed_options_are_gone():
    assert not hasattr(circuit_geometry.Schedule, "piecewise")
    # the adjoint and the report margins had no reader outside their own tests
    assert not hasattr(circuit_geometry.Unitary, "dagger")
    assert not hasattr(circuit_geometry.BoundReport, "slack")
    with pytest.raises(TypeError):
        circuit_geometry.synthesize_gates([], 0.5, circuit_geometry.MetricConfig(1, 1.0), order=1)
    with pytest.raises(TypeError):
        circuit_geometry.CoeffVector.zeros(1).to_words(include_zeros=True)
    # simulate draws no random numbers, and its auto width does not depend on the witness legs
    for option in (["--seed", "1"], ["--segments", "2"]):
        result = CliRunner().invoke(main, ["simulate", "--schedule", "s.json", *option])
        assert result.exit_code == 2
        assert "No such option" in result.output
