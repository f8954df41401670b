"""Regenerate every paper-style result series in one go.

Runs each benchmark module's standalone series and writes the tables
to ``benchmarks/results/`` — the data EXPERIMENTS.md reports.

    python benchmarks/run_all.py            # everything (~5 min)
    python benchmarks/run_all.py fig13 a7   # name filters
"""

from __future__ import annotations

import subprocess
import sys
import time

MODULES = (
    "bench_fig13_lookup.py",
    "bench_fig13_update_vs_size.py",
    "bench_fig14_index_size.py",
    "bench_fig14_update_vs_log.py",
    "bench_table2_breakdown.py",
    "bench_ablation_pq_quality.py",
    "bench_ablation_anchor_index.py",
    "bench_ablation_log_reduction.py",
    "bench_ablation_join_pruning.py",
    "bench_ablation_streaming.py",
    "bench_quality_retrieval.py",
    "bench_ablation_subtree_moves.py",
    "bench_ablation_overlap_merge.py",
    "bench_streaming_queries.py",
)


def main(filters: list[str]) -> int:
    directory = __file__.rsplit("/", 1)[0]
    selected = [
        module
        for module in MODULES
        if not filters or any(token in module for token in filters)
    ]
    failures = 0
    for module in selected:
        print(f"=== {module} ===", flush=True)
        started = time.perf_counter()
        result = subprocess.run([sys.executable, f"{directory}/{module}"])
        elapsed = time.perf_counter() - started
        if result.returncode != 0:
            failures += 1
            print(f"!!! {module} failed ({elapsed:.1f}s)")
        else:
            print(f"--- done in {elapsed:.1f}s\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
