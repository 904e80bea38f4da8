"""The public surface: every exported name resolves, and removed names stay removed."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import circuit_geometry
from circuit_geometry.cli import main
from util import COMPUTE_MODULES, subprocess_env

#: Names deleted when each job was left with a single public entry point, the
#: "infeasible" outcome, which no target has once every target gets a bracket,
#: the exception classes folded into the one refusal type, ``ValidationError``,
#: the dense Pauli word type, which only the tests' oracle needed, and the
#: matrix writer, which no command used.
REMOVED = {
    "bounds": ["_strata", "_require_positive"],
    "charts": ["ChartPoint", "CHART_RADIUS", "eigen_exp", "chart_segment_rho"],
    "cli": ["EXIT_INFEASIBLE"],
    "errors": ["InfeasibleError", "DomainError", "IdentityComponentError", "CoefficientBoundError",
               "BranchCutError", "EvaluationError"],
    "io": ["save_matrix"],
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


def test_every_exported_name_is_its_modules_object():
    assert set(circuit_geometry.__all__) <= set(dir(circuit_geometry))
    for name in circuit_geometry.__all__:
        value = getattr(circuit_geometry, name)
        module = value.__module__.rpartition(".")[2]
        assert module in [*COMPUTE_MODULES, "errors"], name
        assert getattr(getattr(circuit_geometry, module), name) is value, name


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(circuit_geometry, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        circuit_geometry.no_such_name


def test_importing_the_cli_binds_every_compute_module():
    # bench/tracer.py wraps the functions of the modules it finds in sys.modules after this import
    script = ("import sys\nimport circuit_geometry.cli\n"
              f"print([name for name in {COMPUTE_MODULES!r} if 'circuit_geometry.' + name not in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
