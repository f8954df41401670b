"""The two store configurations side by side on the repo benchmark.

    python benchmarks/variants.py [--seeds 5] [--smoke] [--out DIR]

Rotates the frozen ``benchmarks/e2e/run.py`` through
``REPRO_STORE_BACKEND`` ∈ {unset, ``rel``} (every workload, the
same seeds, who runs first rotating),
keeps one ``--out`` directory per configuration (two of them can go to
``e2e/compare.py``) and prints the median of every end-to-end metric.
Exits non-zero unless every run reported ``correct: true``.  This is how
ROADMAP item 3a's table in EXPERIMENTS.md is reproduced; it changes
nothing the benchmark reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGURATIONS = {
    "compact": {},
    "rel": {"REPRO_STORE_BACKEND": "rel"},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="passed to run.py")
    parser.add_argument("--out", default=os.path.join(HERE, "results", "variants"))
    arguments = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [entry["name"] for entry in json.load(handle)["workloads"]]
    names = list(CONFIGURATIONS)
    inherited = {
        k: v for k, v in os.environ.items() if k != "REPRO_STORE_BACKEND"
    }
    values: dict = {}  # (workload, metric) → configuration → one value per seed
    runs = failed = 0
    for seed in range(1, arguments.seeds + 1):
        for workload in workloads:
            first = (seed + workloads.index(workload)) % len(names)
            for name in names[first:] + names[:first]:
                command = [sys.executable, os.path.join(HERE, "e2e", "run.py")]
                command += ["--workload", workload, "--seed", str(seed)]
                command += ["--out", os.path.join(arguments.out, name)]
                command += ["--smoke"] * arguments.smoke
                done = subprocess.run(
                    command,
                    env={**inherited, **CONFIGURATIONS[name]},
                    capture_output=True,
                    text=True,
                )
                lines = done.stdout.splitlines()
                result = json.loads(lines[-1]) if lines and not done.returncode else {}
                correct = bool(result.get("correct"))
                runs += 1
                failed += not correct
                print(f"# {workload} seed={seed} {name}: correct={correct}", flush=True)
                if not correct:
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                for metric, entry in result.get("metrics", {}).items():
                    by_name = values.setdefault((workload, metric), {})
                    by_name.setdefault(name, []).append(entry["value"])
    print(f"\n{'workload':<12} {'metric':<22}" + "".join(f"{n:>16}" for n in names))
    for (workload, metric), by_name in values.items():
        medians = [statistics.median(by_name.get(n) or [float("nan")]) for n in names]
        print(f"{workload:<12} {metric:<22}" + "".join(f"{m:>16.6g}" for m in medians))
    print(f"\n{runs} runs, {failed} not correct")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
