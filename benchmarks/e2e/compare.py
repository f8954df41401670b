"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py out/parent out/change
    python3 benchmarks/e2e/compare.py --self-check --runs 10

A *set* is a directory of ``result-*.json`` files written by
``run.py --out <directory>`` — the same seeds on both sides.  Every
end-to-end metric is judged against its bound from ``BENCHMARK.json``,
each workload in its own row:

``same``        the change's median is no worse than the parent's by
                more than the bound
``worse``       it is
``unresolved``  the parent's own run-to-run spread (distance between
                its quartiles, as a share of its median) is wider than
                the bound, so the bound cannot tell — unless every run
                of the change reads better than every run of the parent

Sets measured under another python, core count or numpy, or that mix
commits inside one set, are refused: the sweep switches on numpy and
every timing scales with the machine.

``--self-check`` runs two sets of *this* commit (the same seeds, plus
one seed the first set never saw) and applies the same rule with no
change in between.  It is how the bounds were chosen: a metric whose
two sets disagree by more than its bound needs a longer window or a
wider bound before it can gate anything.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

Results = Dict[str, List[Dict[str, object]]]


def load(directory: str) -> Tuple[Results, Dict[str, object]]:
    """End-to-end results of one set by workload, and its environment."""
    by_workload: Results = {}
    environments = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*-t0.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if not result["correct"]:
            raise SystemExit(f"{path}: the run failed its correctness checks")
        by_workload.setdefault(result["workload"], []).append(result)
        environments.append(result["environment"])
    if not environments:
        raise SystemExit(f"{directory}: no end-to-end results")
    if any(environment != environments[0] for environment in environments):
        raise SystemExit(
            f"{directory}: results of one set were measured on different "
            "commits or machines"
        )
    return by_workload, environments[0]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(same | worse | unresolved, worsening as a share of the
    parent's median)``; a negative worsening is an improvement."""
    base = statistics.median(parent)
    moved = statistics.median(change) - base
    worsening = (moved if better == "lower" else -moved) / abs(base) if base else 0.0
    if spread(parent) > bound:
        if better == "lower":
            clear = max(change) < min(parent)
        else:
            clear = min(change) > max(parent)
        return ("same" if clear else "unresolved"), worsening
    return ("worse" if worsening > bound else "same"), worsening


def compare(parent_directory: str, change_directory: str) -> int:
    benchmark = harness.declared()
    parent, parent_environment = load(parent_directory)
    change, change_environment = load(change_directory)
    for key in ("python", "nproc", "numpy"):
        if parent_environment[key] != change_environment[key]:
            raise SystemExit(
                f"refusing to compare: {key} differs "
                f"({parent_environment[key]} vs {change_environment[key]})"
            )
    print(
        f"parent {parent_environment['commit'][:12]}  "
        f"change {change_environment['commit'][:12]}  "
        f"python {parent_environment['python']}  nproc {parent_environment['nproc']}  "
        f"numpy {parent_environment['numpy']}"
    )
    regressions = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in parent or workload not in change:
            print(f"\n{workload}: missing from one set")
            regressions += 1
            continue
        seeds = sorted(result["seed"] for result in parent[workload])
        if seeds != sorted(result["seed"] for result in change[workload]):
            raise SystemExit(f"{workload}: the sets ran different seeds")
        print(f"\n{workload}  ({len(seeds)} runs per side, seeds {seeds})")
        print(
            f"  {'metric':22s}{'parent':>12s}{'change':>12s}{'worse by':>10s}"
            f"{'spread':>8s}{'bound':>7s}  verdict"
        )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            before = [result["metrics"][name]["value"] for result in parent[workload]]
            after = [result["metrics"][name]["value"] for result in change[workload]]
            outcome, worsening = verdict(
                before, after, metric["better"], metric["bound"]
            )
            regressions += outcome != "same"
            print(
                f"  {name:22s}{statistics.median(before):12.5g}"
                f"{statistics.median(after):12.5g}{worsening:+10.1%}"
                f"{spread(before):8.1%}{metric['bound']:7.0%}  {outcome}"
            )
    return 1 if regressions else 0


def self_check(runs: int, base: str) -> int:
    """Two sets of this commit: seeds 1..runs twice, and seed
    ``runs + 1`` appended to both so one seed is new to the first."""
    benchmark = harness.declared()
    seeds = list(range(1, runs + 2))
    directories = [os.path.join(base, f"self-check-{side}") for side in "ab"]
    for directory in directories:
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            for seed in seeds:
                outcome = subprocess.run(
                    [
                        sys.executable,
                        os.path.join(harness.HERE, "run.py"),
                        "--workload", workload,
                        "--seed", str(seed),
                        "--out", directory,
                    ],
                    capture_output=True,
                    text=True,
                )
                if outcome.returncode != 0:
                    sys.stderr.write(outcome.stderr)
                    raise SystemExit(f"{workload} seed {seed} failed")
                print(f"{directory} {workload} seed {seed} done", flush=True)
    return compare(*directories)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="*", help="parent and change directories")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=harness.OUT)
    arguments = parser.parse_args()
    if arguments.self_check:
        return self_check(arguments.runs, arguments.out)
    if len(arguments.sets) != 2:
        parser.error("need the parent's and the change's result directories")
    return compare(*arguments.sets)


if __name__ == "__main__":
    sys.exit(main())
