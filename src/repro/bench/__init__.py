"""Benchmark harness: reproduces the paper's evaluation (Figs. 7-10).

- :mod:`repro.bench.harness` -- the two-PC testbed builder and migration
  experiment runner.
- :mod:`repro.bench.scale` -- concurrent-migration and multi-space scale
  benchmarks for the fair-share link model.
- :mod:`repro.bench.trajectory` -- standing scenarios emitting the
  schema-versioned ``BENCH_*.json`` perf-trajectory snapshots.
- :mod:`repro.bench.reporting` -- figure-style series tables.

The paper's sweep constants (``PAPER_FILE_SIZES_MB``, ``mb``) are
re-exported from :mod:`repro.city.params`.
"""

from repro.bench.harness import (
    MigrationExperiment,
    SweepRow,
    TestbedConfig,
    build_paper_testbed,
    clone_dispatch_experiment,
    round_trip_experiment,
)
from repro.bench.reporting import format_comparison_table, format_phase_table
from repro.bench.scale import (
    ConcurrentMigrationResult,
    ScaleResult,
    concurrent_migration_experiment,
    scale_benchmark,
)
from repro.bench.trajectory import (
    BENCH_FORMAT,
    BenchComparison,
    SCENARIOS,
    bench_path,
    compare_bench,
    load_bench,
    run_bench,
    write_bench,
)
from repro.city.params import PAPER_FILE_SIZES_MB, mb

__all__ = [
    "BENCH_FORMAT",
    "BenchComparison",
    "ConcurrentMigrationResult",
    "MigrationExperiment",
    "PAPER_FILE_SIZES_MB",
    "SCENARIOS",
    "ScaleResult",
    "SweepRow",
    "TestbedConfig",
    "bench_path",
    "build_paper_testbed",
    "clone_dispatch_experiment",
    "compare_bench",
    "concurrent_migration_experiment",
    "format_comparison_table",
    "format_phase_table",
    "load_bench",
    "mb",
    "round_trip_experiment",
    "run_bench",
    "scale_benchmark",
    "write_bench",
]
