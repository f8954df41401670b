"""Checks of the benchmark itself (not of the program).

    python3 benchmarks/e2e/selftest.py            # declaration + smoke runs
    python3 benchmarks/e2e/selftest.py --static   # declaration only

- ``BENCHMARK.json`` keeps to its contract: names and units well
  formed and unique, at most 8 workloads / 16 end-to-end / 128
  per-layer metrics, bounds at most 0.25, ``setup_s`` declared, the
  command and paths inside the benchmark's own directory;
- every declared metric is printed by every workload: each workload is
  run with ``--smoke`` once end to end and once traced, and the last
  line of its output must be the result object with exactly the
  declared names and units;
- without the program's source (a directory holding only
  ``BENCHMARK.json`` and the benchmark's own files) a run exits
  non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_declaration(benchmark: Dict[str, object]) -> List[str]:
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(
        set(benchmark)
        == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json must have exactly the six contract keys",
    )
    expect(
        os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024,
        "BENCHMARK.json is larger than 64 KiB",
    )
    paths = benchmark["paths"]
    expect(1 <= len(paths) <= 16, "1 to 16 paths")  # type: ignore[arg-type]
    for path in paths:  # type: ignore[union-attr]
        expect(
            bool(PATH.match(path)) and not path.startswith("/") and ".." not in path,
            f"path {path!r} is not a plain relative path",
        )
    command = benchmark["command"]
    expect(1 <= len(command) <= 32, "command of 1 to 32 strings")  # type: ignore[arg-type]
    for part in command[1:]:  # type: ignore[index]
        expect(
            any(part.startswith(path.rstrip("/") + "/") for path in paths),  # type: ignore[union-attr]
            f"command argument {part!r} is outside the benchmark's paths",
        )
    seconds = benchmark["run_seconds"]
    expect(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds in 1..60")
    workloads = benchmark["workloads"]
    end_to_end = benchmark["end_to_end"]
    per_layer = benchmark["per_layer"]
    expect(2 <= len(workloads) <= 8, "2 to 8 workloads")  # type: ignore[arg-type]
    expect(1 <= len(end_to_end) <= 16, "1 to 16 end-to-end metrics")  # type: ignore[arg-type]
    expect(1 <= len(per_layer) <= 128, "1 to 128 per-layer metrics")  # type: ignore[arg-type]
    # 4 + 22 runs per workload, with set-up and checks around each
    # window, have to end within 3420 s
    runs = 4 + 22 * len(workloads)  # type: ignore[arg-type]
    expect(
        runs * (seconds + 20) <= 3420,  # type: ignore[operator]
        f"{runs} runs of {seconds} s plus ~20 s around each exceed 3420 s",
    )
    names: List[str] = []
    for workload in workloads:  # type: ignore[union-attr]
        expect(set(workload) == {"name", "why"}, f"workload keys: {workload}")
        expect(
            len(workload["why"]) <= 200 and "\n" not in workload["why"],
            f"workload {workload['name']}: why is one line of at most 200 characters",
        )
        names.append(workload["name"])
    for metric in end_to_end:  # type: ignore[union-attr]
        expect(
            set(metric) == {"name", "unit", "better", "bound"},
            f"end-to-end metric keys: {metric}",
        )
        expect(0 < metric["bound"] <= 0.25, f"{metric['name']}: bound in (0, 0.25]")
        names.append(metric["name"])
    for metric in per_layer:  # type: ignore[union-attr]
        expect(
            set(metric) == {"name", "unit", "better"},
            f"per-layer metric keys: {metric}",
        )
        names.append(metric["name"])
    for metric in list(end_to_end) + list(per_layer):  # type: ignore[arg-type]
        expect(bool(UNIT.match(metric["unit"])), f"{metric['name']}: unit {metric['unit']!r}")
        expect(
            metric["better"] in ("lower", "higher"),
            f"{metric['name']}: better is lower or higher",
        )
    for name in names:
        expect(bool(NAME.match(name)), f"name {name!r} is malformed")
    expect(len(set(names)) == len(names), "a name is used more than once")
    setup = [metric for metric in end_to_end if metric["name"] == "setup_s"]  # type: ignore[union-attr]
    expect(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s (unit s, lower is better) must be declared",
    )
    if setup:
        expect(
            setup[0]["bound"] == max(metric["bound"] for metric in end_to_end),  # type: ignore[union-attr]
            "setup_s carries the largest bound",
        )
    return problems


def run(command: List[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True)


def check_runs(benchmark: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    for workload in benchmark["workloads"]:  # type: ignore[union-attr]
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            outcome = run(
                list(benchmark["command"])  # type: ignore[call-overload]
                + [
                    "--workload", workload["name"],
                    "--seed", "7",
                    "--seconds", "3",
                    "--trace", str(trace),
                    "--smoke",
                ],
                ROOT,
            )
            if outcome.returncode != 0:
                problems.append(f"{label}: exit {outcome.returncode}\n{outcome.stderr}")
                continue
            result = json.loads(outcome.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            wanted = {
                metric["name"]: metric["unit"]
                for metric in benchmark[declared]  # type: ignore[union-attr]
            }
            got = {
                name: entry["unit"] for name, entry in result["metrics"].items()
            }
            if got != wanted:
                problems.append(
                    f"{label}: printed metrics differ from the declared ones: "
                    f"{sorted(set(got) ^ set(wanted))}"
                )
            for name in wanted:
                if not re.search(rf"^{re.escape(name)} \S+ \S+$", outcome.stdout, re.M):
                    problems.append(f"{label}: {name} is not printed with its unit")
            print(f"ok  {label}", flush=True)
    return problems


def check_bare_directory(benchmark: Dict[str, object]) -> List[str]:
    """Only the declaration and the benchmark's own files: no result."""
    bare = os.path.join(HERE, "out", f"tmp-bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in benchmark["paths"]:  # type: ignore[union-attr]
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        outcome = run(
            list(benchmark["command"])  # type: ignore[call-overload]
            + ["--workload", "read_small", "--seed", "1", "--seconds", "3", "--trace", "0"],
            bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if outcome.returncode == 0:
        problems.append("a run without the program's source exited 0")
    if '"metrics"' in outcome.stdout:
        problems.append("a run without the program's source printed a result")
    print("ok  bare directory exits non-zero without a result", flush=True)
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    problems = check_declaration(benchmark)
    if "--static" not in sys.argv[1:] and not problems:
        problems += check_bare_directory(benchmark)
        problems += check_runs(benchmark)
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
