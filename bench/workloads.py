"""The three workloads: which ``cgeo`` commands they run, why, and how outputs are checked.

``bracket``
    ``cgeo verify`` at n = 2, then ``cgeo distance`` at n = 3 (p = 8,
    default optimizer effort) on U = exp(-iA) exp(-iB) with random
    weight-<=2 A and B.  Almost all time goes to
    ``paths`` and ``charts`` through about 216k small eigh/matmul/trace
    calls; ``simulation`` and ``bounds`` do almost nothing.  log U carries
    weight-3 terms from [A, B], so the penalty acts, and a better search
    (ROADMAP item 2) can find a path shorter than the one-parameter
    subgroup.  ``quality`` is the n = 3 bracket ratio upper / lower.
``synthesis``
    ``cgeo simulate --delta 0.05 --gates-out`` on nearest-neighbour
    schedules at n = 6 and n = 4, then ``cgeo scaling`` at n = 6.  Time goes
    to ``simulation`` (gate_product, synthesize_gates, slice_mean) and the
    one-off dense ``pauli`` basis stack at n = 6, and ``io`` writes
    megabytes of gates.  The fixed delta keeps ``paths`` out entirely.
    ``quality`` is the n = 6 endpoint error.
``sampling``
    ``cgeo distortion --n 6`` on 20000 samples and ``cgeo decompose`` of
    two traceless Hermitian matrices each at n = 5 and n = 6.  Time goes to
    ``metric`` and ``bounds`` (penalty norms over 8192 x 4095 chunks) and to
    one large ``pauli.decompose`` contraction per matrix -- the opposite use
    of ``pauli`` to ``bracket``'s many tiny ones.  This workload sets peak
    memory, and ``io`` reads more than it writes.  ``quality`` is
    (M / M_hat) (m_hat / m): 1 when the sampled distortion extremes reach
    the exact constants.

Every command's check returns a list of problems (empty when the output is
right) and the values the metrics need; a problem counts as a failed
command and never stops the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

#: Slack between the distance bracket ends, and the optimizer's endpoint tolerance.
BRACKET_SLACK = 1e-6
ENDPOINT_TOL = 1e-6
#: Agreement required between reported and independently recomputed numbers.
RECOMPUTE_TOL = 1e-9
DISTORTION_SAMPLES = 20000
#: Two matrices per size, so the decompose time of a pass is long enough to
#: average over second-scale changes in machine speed.
DECOMPOSE_MATRICES = 2
SCALING_DELTAS = ("0.2", "0.1", "0.05")


@dataclass
class Command:
    """One ``cgeo`` invocation and the check of its report."""

    label: str
    subcommand: str
    args: list[str]
    role: str  # "main" or "other": which end-to-end time it feeds
    inspect: Callable[[dict, Path], tuple[list[str], dict]]


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Command]]
    #: value reported as ``quality``: the first one a main command's inspect returns
    quality: str


def _bound_problems(report: dict) -> list[str]:
    failed = [b["context"] for b in report.get("bound_reports", []) if not b.get("passed")]
    return [f"bound check failed: {', '.join(failed)}"] if failed else []


def _witness_endpoint(witness: dict) -> np.ndarray:
    n = witness["n"]
    state = np.eye(2**n, dtype=complex)
    for segment in witness["segments"]:
        if segment["y"]:
            state = inputs.exp_hermitian(segment["tau"] * inputs.hamiltonian(segment["y"])) @ state
    return state


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    overlap = abs(np.trace(a.conj().T @ b))
    return math.sqrt(max(0.0, np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2) - 2.0 * overlap))


def check_distance(target: dict):
    """Bracket order, feasibility of the witness path, and its recomputed length."""

    def inspect(report: dict, out_dir: Path):
        problems = _bound_problems(report)
        results = report["results"]
        lower, upper = results["lower"], results["upper"]
        if lower > upper + BRACKET_SLACK:
            problems.append(f"lower {lower} exceeds upper {upper}")
        if results["stats"]["endpoint_error"] > ENDPOINT_TOL:
            problems.append(f"endpoint error {results['stats']['endpoint_error']} above {ENDPOINT_TOL}")
        witness = results["witness"]
        miss = _phase_aligned_distance(_witness_endpoint(witness), target["matrix"])
        if miss > ENDPOINT_TOL + RECOMPUTE_TOL:
            problems.append(f"witness path ends {miss:.3e} from the target")
        length = math.fsum(
            inputs.penalty_norm(s["y"], report["config"]["p"]) * s["tau"] for s in witness["segments"]
        )
        if abs(length - upper) > RECOMPUTE_TOL * max(1.0, upper):
            problems.append(f"witness length {length} differs from reported upper {upper}")
        values = {
            "bracket_ratio": upper / lower if lower > 0 else math.inf,
            "search_gain": 1.0 - upper / target["subgroup_length"],
        }
        return problems, values

    return inspect


def check_simulate(n: int, delta: str, gates_file: str):
    """Closed-form gate count, and the written gate file agrees with it."""
    expected = inputs.expected_gate_count(n, delta)
    support = set(inputs.chain_support(n))

    def inspect(report: dict, out_dir: Path):
        problems = _bound_problems(report)
        results = report["results"]
        if results["gate_count"] != expected:
            problems.append(f"gate count {results['gate_count']}, expected {expected}")
        gates = json.loads((out_dir / gates_file).read_text(encoding="utf-8"))["gates"]
        if len(gates) != results["gate_count"]:
            problems.append(f"gate file holds {len(gates)} gates, the report {results['gate_count']}")
        stray = {g["pauli"] for g in gates} - support
        if stray:
            problems.append(f"gates outside the schedule support: {sorted(stray)[:3]}")
        if not math.isfinite(results["endpoint_error"]):
            problems.append("endpoint error is not finite")
        return problems, {"endpoint_error": results["endpoint_error"]}

    return inspect


def check_scaling(n: int):
    expected = [inputs.expected_gate_count(n, d) for d in SCALING_DELTAS]

    def inspect(report: dict, out_dir: Path):
        problems = _bound_problems(report)
        if report["results"]["gate_counts"] != expected:
            problems.append(f"gate counts {report['results']['gate_counts']}, expected {expected}")
        return problems, {}

    return inspect


def check_distortion(report: dict, out_dir: Path):
    results = report["results"]
    coverage = (results["M_exact"] / results["M_hat"]) * (results["m_hat"] / results["m_exact"])
    return _bound_problems(report), {"distortion_coverage": coverage}


def check_decompose(truth: dict):
    def inspect(report: dict, out_dir: Path):
        problems = _bound_problems(report)
        found = report["results"]["coefficients"]
        worst = max(abs(found.get(word, 0.0) - value) for word, value in truth.items())
        if worst > RECOMPUTE_TOL or set(found) - set(truth):
            problems.append(f"coefficients differ from the generating ones by {worst:.3e}")
        return problems, {}

    return inspect


def build_bracket(seed: int, directory: Path) -> list[Command]:
    seeded = ["--seed", str(seed)]
    commands = []
    # verify first: the short command's later samples then come after the
    # long one, so its median spans the whole run
    for n, ratio, subcommand, role in ((2, None, "verify", "other"),
                                       (3, inputs.BRACKET_TARGET_RATIO, "distance", "main")):
        target = inputs.bracket_target(seed, n, ratio)
        path = directory / f"unitary_n{n}.json"
        inputs.write_json(path, inputs.matrix_payload(n, target["matrix"]))
        args = ["--unitary", str(path)] + seeded
        commands.append(Command(f"{subcommand} n={n}", subcommand, args, role, check_distance(target)))
    return commands


def build_synthesis(seed: int, directory: Path) -> list[Command]:
    commands = []
    for n in (6, 4):
        path = directory / f"schedule_n{n}.json"
        inputs.write_json(path, inputs.chain_schedule(seed, n))
        gates = f"gates_n{n}.json"
        args = ["--schedule", str(path), "--delta", inputs.SIM_DELTA, "--gates-out", gates]
        check = check_simulate(n, inputs.SIM_DELTA, gates)
        commands.append(Command(f"simulate n={n}", "simulate", args, "main", check))
    args = ["--schedule", str(directory / "schedule_n6.json"), "--deltas", ",".join(SCALING_DELTAS)]
    commands.append(Command("scaling n=6", "scaling", args, "other", check_scaling(6)))
    return commands


def build_sampling(seed: int, directory: Path) -> list[Command]:
    args = ["--n", "6", "--samples", str(DISTORTION_SAMPLES), "--seed", str(seed)]
    commands = [Command("distortion n=6", "distortion", args, "main", check_distortion)]
    for n in (5, 6):
        for index in range(DECOMPOSE_MATRICES):
            generated = inputs.decompose_matrix(seed, n, index)
            path = directory / f"matrix_n{n}_{index}.json"
            inputs.write_json(path, inputs.matrix_payload(n, generated["matrix"]))
            check = check_decompose(generated["coefficients"])
            args = ["--matrix", str(path)]
            commands.append(Command(f"decompose n={n} #{index}", "decompose", args, "other", check))
    return commands


WORKLOADS = {
    "bracket": Workload(
        "bracket",
        "paths/charts bound: ~216k tiny eigh/matmul calls in the n=3 distance search; "
        "main_cmd_s=distance n=3, other_cmd_s=verify n=2, quality=bracket_ratio",
        build_bracket,
        quality="bracket_ratio",
    ),
    "synthesis": Workload(
        "synthesis",
        "simulation/pauli/io bound: n=6 gate synthesis and products, MB of gates written, no search; "
        "main_cmd_s=simulate n=6,4, other_cmd_s=scaling n=6, quality=endpoint_error",
        build_synthesis,
        quality="endpoint_error",
    ),
    "sampling": Workload(
        "sampling",
        "metric/bounds/pauli bound: batched n=6 penalty norms and large decompose contractions; "
        "sets peak memory; main_cmd_s=distortion, other_cmd_s=decompose n=5,6 x2, "
        "quality=distortion_coverage",
        build_sampling,
        quality="distortion_coverage",
    ),
}
