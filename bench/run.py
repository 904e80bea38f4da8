#!/usr/bin/env python3
"""Benchmark of the ``cgeo`` command-line tool.

Usage, from the root of a checkout::

    python3 bench/run.py --workload bracket --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` alone (``inputs.py``) and handed to the
program as JSON files.  Each command runs in a fresh process started from
this one driver, one at a time, with the checkout's ``src`` on
``PYTHONPATH``, BLAS pinned to one thread and a fresh ``CGEO_OUT_DIR``; its
own wall time, CPU time and peak memory come from ``os.wait4``.

``--trace 0`` times ``python -m circuit_geometry --help`` a few times
(``setup_s``), then runs the workload's commands in rounds for about
``--seconds`` (see ``measure``) and reports medians.  A command that runs
more than once must give byte-identical reports each time.

``--trace 1`` runs each command once untraced and then once started
through ``tracer.py``, and reports the per-layer metrics of the traced runs
and their overhead against the untraced ones.  The traced reports must be
byte-identical to the untraced ones, so every command's determinism is
checked there.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (commands with a wrong exit code or a failed
output check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metrics as metric_defs
from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 5
#: Every child is killed once the run is this old, so the run ends in time.
DEADLINE_S = 165.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    """One finished child process and the verdict on its output."""

    label: str
    role: str
    exit_code: int
    wall_start: float
    wall_end: float
    cpu_s: float
    maxrss_mb: float
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.wall_end - self.wall_start


class Runner:
    """Starts children one at a time and keeps the per-run accounting."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.began = time.perf_counter()
        self.outcomes: list[Outcome] = []
        self.digests: dict[int, str] = {}
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"cmd{self._dirs:04d}"
        path.mkdir()
        return path

    def spawn(self, argv: list[str], out_dir: Path) -> tuple[int, float, float, float, float]:
        """Run ``argv`` in ``out_dir``; returns exit code, start, end, CPU seconds, peak MB."""
        env = dict(os.environ)
        env.update({name: "1" for name in PINNED_THREADS})
        env["CGEO_OUT_DIR"] = str(out_dir)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(out_dir / "stdout.txt", "wb") as stdout, open(out_dir / "stderr.txt", "wb") as stderr:
            remaining = DEADLINE_S - (time.perf_counter() - self.began)
            if remaining <= 0:
                stderr.write(b"not started: the run is out of time")
                return -1, 0.0, 0.0, 0.0, 0.0
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=out_dir, env=env, stdout=stdout, stderr=stderr)
            # the timer kills a child that would outlive the run's deadline
            timer = threading.Timer(remaining, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                end = time.perf_counter()
                timer.cancel()
        # own rusage of this child alone, unlike RUSAGE_CHILDREN's running maximum
        child.returncode = os.waitstatus_to_exitcode(status)
        return child.returncode, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def run(self, command: Command, index: int, traced: bool = False) -> tuple[Outcome, Path]:
        out_dir = self.fresh_dir()
        cgeo = [command.subcommand] + command.args
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(out_dir / "spans.npz"), "--"] + cgeo
        else:
            argv = [sys.executable, "-m", "circuit_geometry"] + cgeo
        code, start, end, cpu, rss = self.spawn(argv, out_dir)
        outcome = Outcome(command.label, command.role, code, start, end, cpu, rss)
        report_path = out_dir / f"{command.subcommand}_report.json"
        if code != 0:
            tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            outcome.problems.append(f"exit code {code} {' '.join(tail)}")
        elif not report_path.is_file():
            outcome.problems.append("no report written")
        else:
            data = report_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                outcome.problems.append("report differs from the first run of the same command")
            try:
                problems, values = command.inspect(json.loads(data), out_dir)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                problems, values = [f"malformed output: {exc!r}"], {}
            outcome.problems.extend(problems)
            outcome.values = values
        self.outcomes.append(outcome)
        if outcome.problems:
            print(f"FAILED {command.label}: {'; '.join(outcome.problems)}", file=sys.stderr)
        return outcome, out_dir

    def setup_probe(self) -> Outcome:
        out_dir = self.fresh_dir()
        argv = [sys.executable, "-m", "circuit_geometry", "--help"]
        code, start, end, cpu, rss = self.spawn(argv, out_dir)
        outcome = Outcome("--help", "setup", code, start, end, cpu, rss)
        if code != 0:
            outcome.problems.append(f"exit code {code}")
        self.outcomes.append(outcome)
        return outcome

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)


def first_value(outcomes: list[Outcome], key: str, default: float = 0.0) -> float:
    """``key`` as the first main command that reports it gave it."""
    return next((o.values[key] for o in outcomes if o.role == "main" and key in o.values), default)


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, ValueError):
        info["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
    except OSError:
        info["cpu"] = None
    return info


def measure(runner: Runner, workload, commands: list[Command], seconds: float) -> dict:
    """Untraced run: set-up probes, then timed rounds; end-to-end metrics.

    The probes and rounds together take about ``seconds``.  The first round
    runs every command once.  Later rounds run, in order, each command whose
    median time still fits in what is left of ``seconds``, so the long
    ones are sampled at least once and the short ones are sampled many times,
    spread over the whole run.  Each command's time is the median of its
    samples; a role's time is the sum of its commands' medians.
    """
    began = time.perf_counter()
    setup = [runner.setup_probe().wall_s for _ in range(SETUP_RUNS)]
    samples: list[list[Outcome]] = [[] for _ in commands]
    ran = True
    while ran:
        ran = False
        for index, command in enumerate(commands):
            if samples[index]:
                expected = statistics.median(o.wall_s for o in samples[index])
                if time.perf_counter() - began + expected > seconds:
                    continue
            outcome, _ = runner.run(command, index)
            samples[index].append(outcome)
            ran = True

    def median_sum(role=None):
        return sum(
            statistics.median(o.wall_s for o in outcomes)
            for command, outcomes in zip(commands, samples)
            if role is None or command.role == role
        )

    first = [outcomes[0] for outcomes in samples]
    aliases = metric_defs.ALIASES[workload.name]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median_sum(),
        "main_cmd_s": median_sum("main"),
        "other_cmd_s": median_sum("other"),
        "peak_rss_mb": max(o.maxrss_mb for o in runner.outcomes),
        "quality": first_value(first, workload.quality),
    }
    print(f"{workload.name} seed {runner.seed}: setup probes {SETUP_RUNS}, "
          f"{time.perf_counter() - began:.1f} s of commands")
    for outcomes in samples:
        walls = [o.wall_s for o in outcomes]
        print(f"  {outcomes[0].label}: {len(walls)} sample(s), median {statistics.median(walls):.3f} s wall "
              f"(min {min(walls):.3f}, max {max(walls):.3f}), {outcomes[0].cpu_s:.3f} s cpu, "
              f"{max(o.maxrss_mb for o in outcomes):.1f} MB")
    for metric in metric_defs.END_TO_END:
        alias = aliases.get(metric.name)
        shown = f"{metric.name} ({alias})" if alias else metric.name
        print(f"  {shown} = {values[metric.name]:.6g} {metric.unit}")
    return values


def trace(runner: Runner, workload, commands: list[Command]) -> dict:
    """Traced run: each command untraced, then traced; per-layer metrics.

    Each command's two runs are back to back, so the tracing overhead
    compares runs made at nearly the same machine speed.
    """
    untraced, traced = [], []
    for index, command in enumerate(commands):
        untraced.append(runner.run(command, index))
        traced.append(runner.run(command, index, traced=True))
    traces = []
    for outcome, out_dir in traced:
        spans_file = out_dir / "spans.npz"
        if not spans_file.is_file():
            outcome.problems.append("no spans written")
            continue
        with np.load(spans_file) as data:
            meta = json.loads(str(data["meta"]))
            command = metric_defs.CommandTrace(
                outcome.wall_start, outcome.wall_end, meta["names"], data["name"], data["start"],
                data["end"], data["parent"], meta["counts"], meta["import_s"],
            )
        if not command.spans_inside_wall():
            outcome.problems.append("spans fall outside the command's wall time")
        traces.append((outcome, command))
    untraced_wall = sum(outcome.wall_s for outcome, _ in untraced)
    values = metric_defs.layer_metrics(
        [command for _, command in traces], untraced_wall,
        first_value([o for o, _ in untraced], "search_gain"),
    )
    print(f"{workload.name} seed {runner.seed}: traced pass, self time by layer per command")
    for outcome, command in traces:
        shares = metric_defs.layer_breakdown(command)
        listed = ", ".join(f"{name} {shares[name]:.3f}" for name in metric_defs.LAYERS if name in shares)
        print(f"  {outcome.label}: {command.wall_s:.3f} s traced wall = {listed}")
    for metric in metric_defs.PER_LAYER:
        print(f"  {metric.name} = {values[metric.name]:.6g} {metric.unit}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circuit_geometry" / "cli.py").is_file():
        print(f"error: no circuit_geometry sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        commands = workload.build(args.seed, work / "inputs")
        runner = Runner(args.seed, work)
        if args.trace:
            values = trace(runner, workload, commands)
            wanted = metric_defs.PER_LAYER
        else:
            values = measure(runner, workload, commands, args.seconds)
            wanted = metric_defs.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    attempted = len(runner.outcomes)
    print(f"  fail_frac = {runner.failed / attempted:.6g} ({runner.failed}/{attempted} commands)")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
