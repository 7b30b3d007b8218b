#!/usr/bin/env python3
"""End-to-end benchmark of the arcdiagrams command line.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each command of the workload as a CLI subprocess, one
at a time (a closed loop with one client), checks every output and
reports the end-to-end metrics.  ``--trace 1`` replays the same commands
in-process through ``arcdiagrams.cli.main``, once plain and once with
spans around the library's public functions, and reports the per-layer
metrics.  The last line of standard output is the result as JSON.

The children import the library from this tree's ``src`` directory; the
run refuses to start if they would import it from anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import reference as ref
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CLI = "from arcdiagrams.cli import run; run()"
SETUP = "import arcdiagrams.cli"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 60.0
# Stop starting passes after this long, so a run ends within three minutes.
RUN_BUDGET_S = 140.0
# Seconds one pass of the seed code takes on a 2-core machine, subprocess
# and in-process (plain plus traced).  ``--seconds`` fixes the number of
# passes through these, so the parent and a change run the same commands
# and their percentiles rest on the same sample counts.
PASS_S = {"census": 3.8, "invert": 7.2, "blocks": 7.2}
TRACED_PASS_S = {"census": 6.0, "invert": 8.0, "blocks": 2.5}
TAIL_BEYOND = 10
# Timings are reported at reference speed.  On a shared host the speed of
# a CPU drifts by up to 2x within seconds, for the children and this
# process alike, and the medians of whole runs spread by 16-35%.  So a
# probe of fixed work runs on the same CPU before and after every child,
# and each child's wall time is scaled to a machine on which the probe
# takes this long.  A change to the library leaves the probe alone, so it
# still moves the scaled times in full.
REFERENCE_PROBE_S = 0.010

END_TO_END_UNITS = {
    "wall_s": "s",
    "results_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Refused(Exception):
    """The run cannot measure this tree."""


@dataclass
class Outcome:
    """What one command did: exit code, output and cost."""

    exit_code: int
    stdout: str
    wall_s: float
    maxrss_kb: int = 0


class Tally:
    """Checks outputs and counts attempts, failures and results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.results = 0
        self.first_failure = ""
        self._verdicts: dict[tuple, tuple[bool, int, str]] = {}

    def add(self, command: workloads.Command, outcome: Outcome) -> int:
        """Check one output; returns the results it emitted (0 if wrong)."""
        key = (command.argv, outcome.exit_code, outcome.stdout)
        if key not in self._verdicts:  # identical output, identical verdict
            self._verdicts[key] = checks.check(command, outcome.exit_code, outcome.stdout)
        ok, results, reason = self._verdicts[key]
        self.attempted += 1
        self.results += results
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or f"{' '.join(command.argv)[:120]}: {reason}"
        return results


# ------------------------------------------------------------- subprocesses

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict[str, str]) -> Outcome:
    """Run ``python -c ...`` to completion; wall time and the child's own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, stdout.decode(), wall, usage.ru_maxrss)


def cli_args(command: workloads.Command) -> list[str]:
    return ["-c", CLI, *command.argv]


# --------------------------------------------------------------- provenance

def provenance(workload: str, seed: int, passes: int, per_pass: int, env) -> dict:
    """Where the numbers come from; refuses a child that imports another tree."""
    probe = run_child(["-c", "import arcdiagrams; print(arcdiagrams.__file__)"], env)
    child_file = probe.stdout.strip()
    expected = (SRC / "arcdiagrams" / "__init__.py").resolve()
    if probe.exit_code != 0 or Path(child_file).resolve() != expected:
        raise Refused(f"children import arcdiagrams from {child_file!r}, not {expected}")
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "commands_per_pass": per_pass,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
        "arcdiagrams_file": str(expected.relative_to(ROOT.resolve())),
        # unset, children cache bytecode and setup_s measures a warm start
        "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
    }


def git_commit() -> str | None:
    """HEAD of this tree, or None outside a git checkout (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree_digest(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------------- timing

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    at = max(0, len(ordered) - TAIL_BEYOND - 1)  # the maximum when there are too few
    return ordered[at], 100.0 * (at + 1) / len(ordered)


_PROBE_INPUT = [(1,) + rest for rest in itertools.islice(itertools.permutations(range(2, 10)), 5000)]


def probe() -> float:
    """Wall time of a fixed pure-Python computation that never calls the library."""
    start = time.perf_counter()
    for seq in _PROBE_INPUT:
        ref.perm_word(seq)
    return time.perf_counter() - start


def run_probed(arg_lists: list[list[str]], env) -> tuple[list[Outcome], list[float]]:
    """Children one at a time, with a probe before the first and after each.

    Returns the outcomes and each child's wall time at reference speed:
    scaled by REFERENCE_PROBE_S over the mean of the probes on either side.
    """
    probes = [probe()]
    outcomes = []
    for args in arg_lists:
        outcomes.append(run_child(args, env))
        probes.append(probe())
    scaled = [
        o.wall_s * 2.0 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1])
        for i, o in enumerate(outcomes)
    ]
    return outcomes, scaled


def setup_time(env) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a child that only imports the CLI module."""
    run_child(["-c", SETUP], env)  # writes the bytecode cache, as any first use does
    outcomes, scaled = run_probed([["-c", SETUP]] * SETUP_SAMPLES, env)
    if any(o.exit_code != 0 for o in outcomes):
        raise Refused("import arcdiagrams.cli failed")
    return statistics.median(scaled), statistics.median(o.wall_s for o in outcomes)


def timed_run(commands, passes: int, env, tally: Tally, deadline: float):
    """Subprocess passes: end-to-end metrics, checked outside the timed loop."""
    walls, raw_walls, rates, per_command, peak_kb = [], [], [], [], 0
    for _ in range(passes):
        if walls and time.perf_counter() > deadline:
            break
        outcomes, scaled = run_probed([cli_args(c) for c in commands], env)
        results = sum(tally.add(c, o) for c, o in zip(commands, outcomes))
        walls.append(sum(scaled))
        raw_walls.append(sum(o.wall_s for o in outcomes))
        rates.append(results / walls[-1])
        per_command += [1000.0 * w for w in scaled]
        peak_kb = max([peak_kb] + [o.maxrss_kb for o in outcomes])
    tail_ms, tail_pct = tail(per_command)
    metrics = {
        "wall_s": statistics.median(walls),
        "results_per_s": statistics.median(rates),
        "cmd_p50_ms": statistics.median(per_command),
        "cmd_tail_ms": tail_ms,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "passes_done": len(walls),
        "command_samples": len(per_command),
        "cmd_tail_percentile": round(tail_pct, 1),
        "pass_walls_s": [round(w, 4) for w in walls],
        "raw_pass_walls_s": [round(w, 4) for w in raw_walls],
    }
    return metrics, detail


def in_process(cli, command: workloads.Command) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(command.argv))
    return Outcome(code, out.getvalue(), time.perf_counter() - start)


def traced_run(commands, passes: int, tally: Tally, deadline: float):
    """In-process passes, plain and traced: per-layer metrics and tracing overhead."""
    sys.path.insert(0, str(SRC))
    import arcdiagrams.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "arcdiagrams").resolve():
        raise Refused(f"imported arcdiagrams from {cli.__file__}, not {SRC}")
    layer_runs, overheads, recorder = [], [], None
    stdout_bytes = 0
    for index in range(passes):
        if layer_runs and time.perf_counter() > deadline:
            break
        walls = {}
        # alternate which side goes first, so drift does not favour one
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            rec = spans.Recorder()
            with spans.Tracer(rec) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                outcomes = [in_process(cli, c) for c in commands]
                walls[traced] = time.perf_counter() - start
            for command, outcome in zip(commands, outcomes):
                tally.add(command, outcome)
            if traced:
                layer_runs.append(spans.layer_metrics(rec))
                recorder = rec
                stdout_bytes = sum(len(o.stdout.encode()) for o in outcomes)
        overheads.append(walls[True] / walls[False] - 1.0)
    metrics = spans.median_metrics(layer_runs)
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    detail = {"passes_done": len(layer_runs), "spans_per_pass": len(recorder)}
    return metrics, detail, recorder


def layer_unit(name: str) -> str:
    if name == "cli.stdout_bytes":
        return "bytes"
    if name == "trace.overhead_frac":
        return "ratio"
    return spans.UNITS[name.rsplit(".", 1)[1]]


# --------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    deadline = began + RUN_BUDGET_S
    if not (SRC / "arcdiagrams" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    commands = workloads.build(args.workload, args.seed)
    per_pass_s = (TRACED_PASS_S if args.trace else PASS_S)[args.workload]
    passes = max(2, round(args.seconds / per_pass_s))
    env = child_env()
    try:
        prov = provenance(args.workload, args.seed, passes, len(commands), env)
        tally = Tally()
        if args.trace:
            metrics, detail, recorder = traced_run(commands, passes, tally, deadline)
            spans.write(recorder, OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            units = {name: layer_unit(name) for name in metrics}
        else:
            # children inherit the CPU, so the probes time the CPU they run on
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            setup_s, raw_setup_s = setup_time(env)
            metrics, detail = timed_run(commands, passes, env, tally, deadline)
            metrics["setup_s"] = setup_s
            detail.update(setup_samples=SETUP_SAMPLES, raw_setup_s=round(raw_setup_s, 5))
            units = END_TO_END_UNITS
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    detail.update(
        failed_frac=tally.failed / tally.attempted,
        run_s=round(time.perf_counter() - began, 2),
    )
    if tally.first_failure:
        detail["first_failure"] = tally.first_failure
    print("# provenance " + json.dumps(prov))
    print("# detail " + json.dumps(detail))
    for name, value in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:14.6g} {units[name]}")
    print(f"{args.workload:8s} {'failed_frac':44s} {detail['failed_frac']:14.6g} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
