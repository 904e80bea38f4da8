"""Batch command-line front end.

Six subcommands wire the file formats to the library: ``decompose``,
``distance``, ``simulate``, ``verify``, ``distortion``, and ``scaling``.
Every run writes one report file -- JSON with the fixed top level
``{"version", "config", "results", "bound_reports"}`` or a CSV of the
bound reports -- deterministically: the same flags and seed produce the
same bytes, and the distance search draws no random numbers.  Exit
codes: 0 all checks pass, 1 a bound check failed, 2 parse or validation
error or any unexpected internal error, 3 infeasible optimization.
"""

from __future__ import annotations

import os
import sys

import click

from .bounds import (
    BoundReport,
    check_segment_distortion,
    check_sim_sandwich,
    estimate_distortion,
    gate_count_scaling,
)
from .charts import exp_coords, identity
from .errors import BranchCutError, DomainError, InfeasibleError, ValidationError
from .io import (
    load_matrix,
    load_schedule,
    load_unitary,
    save_gates,
    schedule_to_dict,
    write_bounds_csv,
    write_report,
)
from .metric import MetricConfig, PenaltyNorm, default_penalty, distortion_constants
from .paths import ENDPOINT_TOL, OptimizerSettings, distance_upper
from .pauli import CoeffVector
from .pauli import decompose as pauli_decompose
from .simulation import simulate as run_simulate

REPORT_VERSION = "1"
OUT_DIR_ENV = "CGEO_OUT_DIR"

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

#: Acceptance band for the gate-count scaling slope.
EXPECTED_SLOPE = 2.0
SLOPE_TOL = 0.15


def _default_out(command: str, fmt: str) -> str:
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{command}_report.{fmt}")


def _finish(command: str, config: dict, results: dict, reports: list, out: str | None, fmt: str) -> None:
    out = out or _default_out(command, fmt)
    if fmt == "json":
        payload = {
            "version": REPORT_VERSION,
            "config": config,
            "results": results,
            "bound_reports": [r.to_dict() for r in reports],
        }
        write_report(out, payload)
    else:
        write_bounds_csv(out, reports)
    passed = sum(1 for r in reports if r.passed)
    click.echo(f"wrote {out} ({passed}/{len(reports)} bound checks passed)")
    sys.exit(EXIT_OK if passed == len(reports) else EXIT_BOUND_FAILURE)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(body):
    try:
        body()
    except InfeasibleError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    except (ValidationError, DomainError, BranchCutError) as exc:
        _fail(EXIT_INVALID, str(exc))
    except OSError as exc:
        _fail(EXIT_INVALID, f"{exc.filename or ''}: {exc.strerror or exc}")
    except Exception as exc:
        # exit 1 means a bound check failed; a crash must never read as one
        _fail(EXIT_INVALID, f"internal error: {type(exc).__name__}: {exc}")


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True,
    help="Report format: full JSON or a CSV of the bound checks.",
)
out_option = click.option(
    "--out", type=click.Path(dir_okay=False), default=None,
    help=f"Report path (default: <command>_report.<format> under ${OUT_DIR_ENV} or '.').",
)
seed_option = click.option(
    "--seed", type=int, default=0, show_default=True,
    help="Master RNG seed (echoed in the report; only the distortion sampler draws random numbers).",
)
p_option = click.option(
    "--p", type=float, default=None,
    help="Penalty factor on weight-3+ directions (default: 2^n).",
)
segments_option = click.option(
    "--segments", type=click.IntRange(min=1), default=8, show_default=True,
    help="Schedule segments used by the distance optimizer.",
)


def _metric(n: int, p: float | None) -> MetricConfig:
    return MetricConfig(n, default_penalty(n) if p is None else p)


def _estimate_to_results(estimate) -> dict:
    return {
        "lower": estimate.lower,
        "upper": estimate.upper,
        "witness": schedule_to_dict(estimate.witness),
        "stats": {
            "runs": estimate.stats.runs,
            "evaluations": estimate.stats.evaluations,
            "endpoint_error": estimate.stats.endpoint_error,
        },
    }


def _bracket_report(estimate) -> BoundReport:
    # the lower estimate must not exceed the upper beyond the optimizer's
    # endpoint feasibility tolerance
    return BoundReport("distance-bracket", 0.0, estimate.lower, estimate.upper + ENDPOINT_TOL)


@click.group()
def main():
    """Penalty-metric circuit geometry on SU(2^n)."""


@main.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=False), required=True,
              help="Traceless Hermitian matrix file (JSON with n, re, im).")
@out_option
@format_option
def decompose(matrix_path, out, fmt):
    """Expand a traceless Hermitian matrix over the Pauli basis."""

    def body():
        n, matrix = load_matrix(matrix_path)
        coefficients = pauli_decompose(matrix, n)
        config = {"command": "decompose", "matrix": matrix_path, "out": out, "format": fmt}
        results = {
            "n": n,
            "coefficients": coefficients.to_words(),
            "euclidean_norm": coefficients.norm,
        }
        _finish("decompose", config, results, [], out, fmt)

    _guarded(body)


@main.command()
@click.option("--unitary", "unitary_path", type=click.Path(exists=False), required=True,
              help="Target unitary file (JSON with n, re, im).")
@p_option
@segments_option
@seed_option
@out_option
@format_option
def distance(unitary_path, p, segments, seed, out, fmt):
    """Bracket the distance from the identity to a target unitary."""

    def body():
        target = load_unitary(unitary_path)
        metric = _metric(target.n, p)
        settings = OptimizerSettings(segments=segments)
        estimate = distance_upper(target, metric, settings)
        config = {
            "command": "distance", "unitary": unitary_path, "n": target.n, "p": metric.p,
            "segments": segments, "seed": seed, "out": out, "format": fmt,
        }
        _finish("distance", config, _estimate_to_results(estimate), [_bracket_report(estimate)], out, fmt)

    _guarded(body)


@main.command()
@click.option("--schedule", "schedule_path", type=click.Path(exists=False), required=True,
              help="Piecewise-constant schedule file (JSON with n, segments).")
@p_option
@click.option("--delta", default="auto", show_default=True,
              help="Slice width, or 'auto' to derive one from the distance estimate.")
@segments_option
@seed_option
@click.option("--gates-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the synthesized gate sequence to this file.")
@out_option
@format_option
def simulate(schedule_path, p, delta, segments, seed, gates_out, out, fmt):
    """Synthesize a schedule into weight-2 gates and check the length sandwich."""

    def body():
        schedule = load_schedule(schedule_path)
        metric = _metric(schedule.n, p)
        if delta != "auto":
            try:
                width = float(delta)
            except ValueError:
                raise ValidationError(f"--delta must be a number or 'auto', got {delta!r}")
        else:
            width = "auto"
        settings = OptimizerSettings(segments=segments)
        result = run_simulate(schedule, metric, width, optimizer_settings=settings)
        if gates_out:
            save_gates(gates_out, result.gate_sequence)
        config = {
            "command": "simulate", "schedule": schedule_path, "n": schedule.n, "p": metric.p,
            "delta": delta, "segments": segments, "seed": seed,
            "gates_out": gates_out, "out": out, "format": fmt,
        }
        results = {
            "delta": result.gate_sequence.delta,
            "gate_count": result.gate_count,
            "synthesized_length": result.synthesized_length,
            "endpoint_error": result.endpoint_error,
            "rho_inf": result.rho_inf,
            "rho_sup": result.rho_sup,
        }
        _finish("simulate", config, results, [check_sim_sandwich(result, metric)], out, fmt)

    _guarded(body)


@main.command()
@click.option("--unitary", "unitary_path", type=click.Path(exists=False), required=True,
              help="Target unitary file (JSON with n, re, im).")
@p_option
@segments_option
@seed_option
@out_option
@format_option
def verify(unitary_path, p, segments, seed, out, fmt):
    """Estimate the distance to a target and verify the chart sandwiches."""

    def body():
        target = load_unitary(unitary_path)
        metric = _metric(target.n, p)
        settings = OptimizerSettings(segments=segments)
        estimate = distance_upper(target, metric, settings)
        reports = [_bracket_report(estimate)]
        rhos = []
        current = identity(target.n)
        for index, (row, tau) in enumerate(estimate.witness.segments):
            following = exp_coords(CoeffVector(target.n, row * tau), current)
            report = check_segment_distortion(current, following, metric)
            rhos.append(report.lower)
            reports.append(
                BoundReport(f"segment-distortion-{index}", report.lower, report.observed, report.upper)
            )
            current = following
        if rhos:
            m_lower, m_upper = distortion_constants(metric)
            count = len(rhos)
            reports.append(
                BoundReport(
                    "decomposition-sandwich",
                    count * m_lower * min(rhos),
                    estimate.upper,
                    count * m_upper * max(rhos),
                )
            )
        config = {
            "command": "verify", "unitary": unitary_path, "n": target.n, "p": metric.p,
            "segments": segments, "seed": seed, "out": out, "format": fmt,
        }
        results = _estimate_to_results(estimate)
        results["segment_rhos"] = rhos
        _finish("verify", config, results, reports, out, fmt)

    _guarded(body)


@main.command()
@click.option("--n", "n", type=click.IntRange(1, 6), required=True, help="Qubit count.")
@p_option
@click.option("--samples", type=click.IntRange(min=1), default=100000, show_default=True,
              help="Monte Carlo sample count.")
@seed_option
@out_option
@format_option
def distortion(n, p, samples, seed, out, fmt):
    """Estimate the distortion constants of the penalty norm by sampling."""

    def body():
        metric = _metric(n, p)
        norm = PenaltyNorm(metric)
        m_hat, big_m_hat = estimate_distortion(norm, n, samples, seed)
        m_exact, big_m_exact = distortion_constants(metric)
        reports = [
            BoundReport("distortion-min", m_exact, m_hat, big_m_exact),
            BoundReport("distortion-max", m_exact, big_m_hat, big_m_exact),
        ]
        config = {
            "command": "distortion", "n": n, "p": metric.p, "samples": samples,
            "seed": seed, "out": out, "format": fmt,
        }
        results = {
            "m_hat": m_hat, "M_hat": big_m_hat,
            "m_exact": m_exact, "M_exact": big_m_exact,
        }
        _finish("distortion", config, results, reports, out, fmt)

    _guarded(body)


@main.command()
@click.option("--schedule", "schedule_path", type=click.Path(exists=False), required=True,
              help="Piecewise-constant schedule file (JSON with n, segments).")
@p_option
@click.option("--deltas", default="0.2,0.1,0.05", show_default=True,
              help="Comma-separated slice widths (at least three, spanning a factor of 4).")
@out_option
@format_option
def scaling(schedule_path, p, deltas, out, fmt):
    """Fit the gate-count growth against the inverse slice width."""

    def body():
        schedule = load_schedule(schedule_path)
        metric = _metric(schedule.n, p)
        try:
            widths = [float(part) for part in deltas.split(",") if part.strip()]
        except ValueError:
            raise ValidationError(f"--deltas must be comma-separated numbers, got {deltas!r}")
        report = gate_count_scaling(schedule, metric, widths)
        config = {
            "command": "scaling", "schedule": schedule_path, "n": schedule.n, "p": metric.p,
            "deltas": deltas, "out": out, "format": fmt,
        }
        results = {
            "deltas": list(report.deltas),
            "gate_counts": list(report.gate_counts),
            "slope": report.slope,
            "intercept": report.intercept,
            "residual": report.residual,
        }
        slope_report = BoundReport(
            "scaling-slope", EXPECTED_SLOPE - SLOPE_TOL, report.slope, EXPECTED_SLOPE + SLOPE_TOL
        )
        _finish("scaling", config, results, [slope_report], out, fmt)

    _guarded(body)


if __name__ == "__main__":
    main(prog_name="cgeo")
