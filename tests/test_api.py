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
#: the dense Pauli word type, which only the tests' oracle needed, the
#: matrix writer, which no command used, and the gates reader and second
#: gates encoder: gates files are written, never read.
REMOVED = {
    "bounds": ["_strata", "_require_positive"],
    "charts": ["ChartPoint", "CHART_RADIUS", "eigen_exp", "chart_segment_rho"],
    "cli": ["EXIT_INFEASIBLE"],
    "errors": ["InfeasibleError", "DomainError", "IdentityComponentError", "CoefficientBoundError",
               "BranchCutError", "EvaluationError"],
    "io": ["save_matrix", "gates_from_dict", "gates_to_dict", "load_gates"],
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


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_module_level_import_is_used_or_exported(path):
    # a deletion can leave an import behind, as the gates reader would have left pauli._word_positions
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(circuit_geometry.__all__) if path.name == "__init__.py" else set()
    assert {f"{name} (line {line})" for name, line in imported.items() if name not in used | exported} == set()


def _module_level_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def test_every_private_module_level_name_is_referenced():
    # a private helper whose last caller is deleted is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
    private = {f"{name}:{definition}" for name, tree in trees.items() for definition in _module_level_definitions(tree)
               if definition.startswith("_") and not definition.startswith("__")}
    assert len(private) > 20
    assert {entry for entry in private if entry.partition(":")[2] not in loaded} == set()


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
