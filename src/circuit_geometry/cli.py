"""Batch command-line front end.

Six subcommands wire the file formats to the library: ``decompose``,
``distance``, ``simulate``, ``verify``, ``distortion``, and ``scaling``.
Every run writes one report file -- JSON with the fixed top level
``{"version", "config", "results", "bound_reports"}`` or a CSV of the
bound reports -- deterministically: the same flags produce the same bytes;
only ``distortion`` draws random numbers (from ``--seed``, which ``distance``
and ``verify`` just echo).  The ``config`` block echoes the command name,
every option, and the resolved qubit count ``n`` and penalty ``p``.  Exit
codes: 0 all checks pass, 1 a bound check failed, 2 parse or validation
error or any unexpected internal error, 130 interrupted.  Every target has
a distance bracket: distances are measured on the projective group.

``simulate --delta auto`` is a policy of this front end, not of the
library: the slice width is ``1 / (n^2 d_hat)`` clipped to the schedule
duration, with ``d_hat`` the distance upper bound for the schedule
endpoint (Nielsen-Dowling-Gu-Doherty, quant-ph/0603161).
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import asdict

import click

from .bounds import (
    BoundReport,
    check_segment_distortion,
    check_sim_sandwich,
    estimate_distortion,
    gate_count_scaling,
)
from .charts import exp_coords, identity
from .errors import ValidationError
from .io import (
    _named,
    load_matrix,
    load_schedule,
    load_unitary,
    save_gates,
    schedule_to_dict,
    write_bounds_csv,
    write_report,
)
from .metric import MetricConfig, PenaltyNorm, default_penalty, distortion_constants
from .paths import ENDPOINT_TOL, distance_upper
from .pauli import CoeffVector
from .pauli import decompose as pauli_decompose
from .simulation import schedule_endpoint
from .simulation import simulate as run_simulate

REPORT_VERSION = "1"
OUT_DIR_ENV = "CGEO_OUT_DIR"

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_INVALID = 2
#: The shell's code for a process ended by SIGINT (128 + 2).
EXIT_INTERRUPTED = 130

#: Acceptance band for the gate-count scaling slope.
EXPECTED_SLOPE = 2.0
SLOPE_TOL = 0.15


def _default_out(command: str, fmt: str) -> str:
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{command}_report.{fmt}")


def _finish(
    command: str, options: dict, metric: MetricConfig | None, results: dict, reports: list
) -> None:
    config = {"command": command, **options}
    if metric is not None:
        config.update(n=metric.n, p=metric.p)
    fmt = options["format"]
    out = options["out"] or _default_out(command, fmt)
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
    except ValidationError as exc:
        _fail(EXIT_INVALID, str(exc))
    except OSError as exc:
        _fail(EXIT_INVALID, f"{exc.filename or ''}: {exc.strerror or exc}")
    except Exception as exc:
        # exit 1 means a bound check failed; a crash must never read as one
        _fail(EXIT_INVALID, f"internal error: {type(exc).__name__}: {exc}")
    except KeyboardInterrupt:
        # click would print "Aborted!" and exit 1, the bound-failure code
        _fail(EXIT_INTERRUPTED, "interrupted")


@click.group()
def main():
    """Penalty-metric circuit geometry on SU(2^n)."""


def _subcommand(function):
    """Register ``function`` as a subcommand of :func:`main` under the exit-code contract.

    The function receives every option as a keyword and returns
    ``(metric, results, reports)``: the resolved :class:`MetricConfig`
    (``None`` for a command without one), the report's ``results`` block
    and its bound reports.  Every subcommand ends with ``--out`` and
    ``--format``, which only :func:`_finish` reads.
    """

    @functools.wraps(function)
    def run(**options):
        _guarded(lambda: _finish(function.__name__, options, *function(**options)))

    command = main.command()(run)
    command.params += [
        click.Option(["--out"], type=click.Path(dir_okay=False), default=None,
                     help=f"Report path (default: <command>_report.<format> under ${OUT_DIR_ENV} or '.')."),
        click.Option(["--format"], type=click.Choice(["json", "csv"]), default="json", show_default=True,
                     help="Report format: full JSON or a CSV of the bound checks."),
    ]
    return command


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
    help="Legs of the distance witness (the one-parameter subgroup, split evenly).",
)
unitary_option = click.option(
    "--unitary", type=click.Path(exists=False), required=True,
    help="Target unitary file (JSON with n, re, im).",
)
schedule_option = click.option(
    "--schedule", type=click.Path(exists=False), required=True,
    help="Piecewise-constant schedule file (JSON with n, segments).",
)


def _metric(n: int, p: float | None) -> MetricConfig:
    return MetricConfig(n, default_penalty(n) if p is None else p)


def _bracket(unitary: str, p: float | None, segments: int):
    """Bracket the distance to the target in ``unitary``: ``(metric, estimate, results, reports)``."""
    target = load_unitary(unitary)
    metric = _metric(target.n, p)
    estimate = distance_upper(target, metric, segments)
    results = {
        "lower": estimate.lower,
        "upper": estimate.upper,
        "witness": schedule_to_dict(estimate.witness),
        "stats": asdict(estimate.stats),
    }
    # the lower estimate must not exceed the upper beyond the witness's
    # endpoint feasibility tolerance
    report = BoundReport("distance-bracket", 0.0, estimate.lower, estimate.upper + ENDPOINT_TOL)
    return metric, estimate, results, [report]


@_subcommand
@click.option("--matrix", type=click.Path(exists=False), required=True,
              help="Traceless Hermitian matrix file (JSON with n, re, im).")
def decompose(matrix, **_):
    """Expand a traceless Hermitian matrix over the Pauli basis."""
    n, values = load_matrix(matrix)
    coefficients = _named(matrix, pauli_decompose, values, n)
    results = {
        "n": n,
        "coefficients": coefficients.to_words(),
        "euclidean_norm": coefficients.norm,
    }
    return None, results, []


@_subcommand
@unitary_option
@p_option
@segments_option
@seed_option
def distance(unitary, p, segments, **_):
    """Bracket the distance from the identity to a target unitary."""
    metric, _estimate, results, reports = _bracket(unitary, p, segments)
    return metric, results, reports


@_subcommand
@schedule_option
@p_option
@click.option("--delta", default="auto", show_default=True,
              help="Slice width, or 'auto' to derive one from the distance estimate.")
@click.option("--gates-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the synthesized gate sequence to this file.")
def simulate(schedule, p, delta, gates_out, **_):
    """Synthesize a schedule into weight-2 gates and check the length sandwich."""
    loaded = load_schedule(schedule)
    metric = _metric(loaded.n, p)
    if delta == "auto":
        upper = distance_upper(schedule_endpoint(loaded), metric).upper
        width = min(1.0 / (metric.n**2 * upper), loaded.duration) if upper > 0 else loaded.duration
    else:
        try:
            width = float(delta)
        except ValueError:
            raise ValidationError(f"--delta must be a number or 'auto', got {delta!r}")
    result = run_simulate(loaded, metric, width)
    if gates_out:
        save_gates(gates_out, result.gate_sequence)
    results = {
        "delta": result.gate_sequence.delta,
        "gate_count": result.gate_count,
        "synthesized_length": result.synthesized_length,
        "endpoint_error": result.endpoint_error,
        "rho_inf": result.rho_inf,
        "rho_sup": result.rho_sup,
    }
    return metric, results, [check_sim_sandwich(result, metric)]


@_subcommand
@unitary_option
@p_option
@segments_option
@seed_option
def verify(unitary, p, segments, **_):
    """Estimate the distance to a target and verify the chart sandwiches."""
    metric, estimate, results, reports = _bracket(unitary, p, segments)
    rhos = []
    current = identity(metric.n)
    for index, (row, tau) in enumerate(estimate.witness.segments):
        following = exp_coords(CoeffVector(metric.n, row * tau), current)
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
    results["segment_rhos"] = rhos
    return metric, results, reports


@_subcommand
@click.option("--n", "n", type=click.IntRange(1, 6), required=True, help="Qubit count.")
@p_option
@click.option("--samples", type=click.IntRange(min=1), default=100000, show_default=True,
              help="Monte Carlo sample count.")
@seed_option
def distortion(n, p, samples, seed, **_):
    """Estimate the distortion constants of the penalty norm by sampling."""
    metric = _metric(n, p)
    m_hat, big_m_hat = estimate_distortion(PenaltyNorm(metric), n, samples, seed)
    m_exact, big_m_exact = distortion_constants(metric)
    reports = [
        BoundReport("distortion-min", m_exact, m_hat, big_m_exact),
        BoundReport("distortion-max", m_exact, big_m_hat, big_m_exact),
    ]
    results = {
        "m_hat": m_hat, "M_hat": big_m_hat,
        "m_exact": m_exact, "M_exact": big_m_exact,
    }
    return metric, results, reports


@_subcommand
@schedule_option
@p_option
@click.option("--deltas", default="0.2,0.1,0.05", show_default=True,
              help="Comma-separated slice widths (at least three, spanning a factor of 4).")
def scaling(schedule, p, deltas, **_):
    """Fit the gate-count growth against the inverse slice width."""
    loaded = load_schedule(schedule)
    metric = _metric(loaded.n, p)
    try:
        widths = [float(part) for part in deltas.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--deltas must be comma-separated numbers, got {deltas!r}")
    report = gate_count_scaling(loaded, metric, widths)
    slope_report = BoundReport(
        "scaling-slope", EXPECTED_SLOPE - SLOPE_TOL, report.slope, EXPECTED_SLOPE + SLOPE_TOL
    )
    return metric, asdict(report), [slope_report]


if __name__ == "__main__":
    main(prog_name="cgeo")
