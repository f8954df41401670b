"""One run of the repo benchmark: one workload, one seed.

    python3 benchmarks/e2e/run.py --workload read_small --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` is the end-to-end run (metrics and tracing off, server
in a child process); ``--trace 1`` (or ``--traced``) is the separate
traced run that yields the per-layer metrics.  Every metric is printed
by name with its unit, the run's result is kept under
``benchmarks/e2e/out/``, and the last line of standard output is the
JSON object the driver reads.  A failed correctness check exits
non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", action="store_true", help="same as --trace 1"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small collections and a 3 s window: checks that the "
        "benchmark runs, measures nothing worth keeping",
    )
    parser.add_argument(
        "--out",
        default=harness.OUT,
        help="directory that keeps the run's result file (one set of "
        "runs per directory is what compare.py reads)",
    )
    arguments = parser.parse_args(argv)
    # a terminated run still stops the children it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    benchmark = harness.declared()
    names = [workload["name"] for workload in benchmark["workloads"]]  # type: ignore[index,union-attr]
    if arguments.workload not in names:
        parser.error(f"unknown workload {arguments.workload!r}; one of {names}")
    traced = bool(arguments.trace or arguments.traced)
    seconds = arguments.seconds
    if seconds is None:
        seconds = 3.0 if arguments.smoke else float(benchmark["run_seconds"])  # type: ignore[arg-type]

    # imported late: a missing source tree must fail before any of this
    import workloads

    sizes = workloads.SIZES["smoke" if arguments.smoke else "full"]
    started = time.perf_counter()
    try:
        if traced:
            import traced as traced_run

            outcome = traced_run.run(
                arguments.workload, arguments.seed, seconds, sizes
            )
            wanted = benchmark["per_layer"]
        else:
            outcome = workloads.WORKLOADS[arguments.workload](
                arguments.seed, seconds, sizes
            )
            wanted = benchmark["end_to_end"]
    except harness.CheckFailed as failure:
        sys.stderr.write(f"CHECK FAILED: {failure}\n")
        return 1
    wall = time.perf_counter() - started

    metrics = {}
    for entry in wanted:  # type: ignore[union-attr]
        name, unit = entry["name"], entry["unit"]  # type: ignore[index]
        if name not in outcome.metrics:
            sys.stderr.write(f"CHECK FAILED: metric {name} was not measured\n")
            return 1
        metrics[name] = {"value": outcome.metrics[name], "unit": unit}
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    kind = "traced" if traced else "end-to-end"
    print(f"# {arguments.workload} seed={arguments.seed} seconds={seconds:g} ({kind})")
    print(f"inputs_sha256 {outcome.inputs_sha256}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, value in sorted(outcome.detail.items()):
        print(f"  {name} {value:.6g}")
    print(
        f"attempted {outcome.attempted} failed {outcome.failed} "
        f"wall {wall:.1f} s"
    )
    harness.write_json(
        os.path.join(
            arguments.out,
            f"result-{arguments.workload}-{arguments.seed}-t{int(traced)}.json",
        ),
        {
            "workload": arguments.workload,
            "seed": arguments.seed,
            "seconds": seconds,
            "smoke": arguments.smoke,
            "traced": traced,
            "environment": harness.environment(),
            "inputs_sha256": outcome.inputs_sha256,
            "detail": outcome.detail,
            **result,
        },
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
