#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 1 \\
        --out perfbench/baseline.json

Runs ``run.py`` once per workload, seed and trace setting, one run at a
time, and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``--out``
saves the summary, the provenance and every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    tagged = {
        line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
        for line in lines
        if line.startswith("# ")
    }
    return {"result": json.loads(lines[-1]), **tagged}


def _shared(provenance: dict) -> dict:
    """The provenance fields every run of one tree has in common."""
    per_run = ("workload", "seed", "passes", "commands_per_pass")
    return {k: v for k, v in provenance.items() if k not in per_run}


def _slim(run: dict, trace: int) -> dict:
    result = run["result"]
    return {
        "seed": run["provenance"]["seed"],
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "detail": run["detail"],
    }


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        entry = report["workloads"].setdefault(workload, {"runs": []})
        for trace in args.trace:
            runs = [run_once(workload, seed, args.seconds, trace) for seed in args.seeds]
            report.setdefault("provenance", _shared(runs[0]["provenance"]))
            entry["runs"] += [_slim(r, trace) for r in runs]
            key = "per_layer" if trace else "end_to_end"
            names = runs[0]["result"]["metrics"]
            entry[key] = {}
            for name, first in names.items():
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                entry[key][name] = {"unit": first["unit"], **summarise(values)}
                s = entry[key][name]
                print(
                    f"{workload:8s} {name:44s} median {s['median']:12.6g} "
                    f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} {first['unit']}",
                    flush=True,
                )
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            print(f"{workload:8s} trace={trace} failed {failed} of {attempted}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
