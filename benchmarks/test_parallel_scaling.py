"""Parallel execution-engine benchmarks: sharded pipeline and sweep scaling.

Backs the acceptance criteria of the parallel sharded execution engine:

* ``ParallelPipeline`` must stay *bit-identical* to one serial
  ``mechanism.run`` pass over the in-domain points at every worker count while
  privatizing shards on a process pool;
* fanning an experiment sweep out to workers must not change a single measured
  value, and on a multi-core machine 4 workers must cut the sweep wall-clock by
  at least 1.5x (the assertion is gated on the cores actually being available —
  a single-core runner still records the measurement);
* the content-addressed result cache must make a warm sweep re-run at least
  1.5x faster than the cold run (in practice it is orders of magnitude faster)
  while returning exactly the cold run's numbers.

Results are recorded to ``benchmarks/results/parallel_scaling.txt``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.domain import SpatialDomain
from repro.core.parallel import ParallelPipeline
from repro.experiments.cache import ResultCache
from repro.experiments.runner import sweep_parameter

EPSILON = 3.5
WORKER_COUNTS = (1, 2, 4)

#: Sweep used for the runner-scaling measurement: small enough for the laptop
#: profile, large enough that per-cell work dominates pool overhead.
SWEEP_D_VALUES = (8, 10, 12)
SWEEP_MECHANISMS = ("DAM", "MDSW")
SWEEP_DATASETS = ("SZipf", "Normal")


def _pipeline_load(bench_profile) -> tuple[int, int]:
    """(n_users, grid_d) for the pipeline-scaling benchmark, per profile."""
    if bench_profile == "paper":
        return 2_000_000, 20
    if bench_profile == "smoke":
        return 50_000, 10
    return 400_000, 15


def test_parallel_pipeline_scaling(bench_profile, record_result):
    """Shard-parallel privatization: per-worker wall clock, serial bit-equality."""
    n_users, grid_d = _pipeline_load(bench_profile)
    points = np.random.default_rng(0).random((n_users, 2))
    domain = SpatialDomain.unit()
    available = os.cpu_count() or 1

    mechanism = ParallelPipeline(domain, grid_d, EPSILON).mechanism
    start = time.perf_counter()
    serial = mechanism.run(points[domain.contains(points)], seed=1)
    t_serial = time.perf_counter() - start

    lines = [
        f"parallel pipeline, users={n_users}, d={grid_d}, eps={EPSILON}, "
        f"cpus={available}",
        f"serial mechanism.run      : {t_serial:8.3f} s "
        f"({n_users / t_serial:12,.0f} users/s)",
    ]
    for workers in WORKER_COUNTS:
        pipeline = ParallelPipeline(
            domain,
            grid_d,
            EPSILON,
            workers=workers,
            shard_size=max(n_users // max(workers * 2, 4), 1),
        )
        start = time.perf_counter()
        result = pipeline.run(points, seed=1)
        elapsed = time.perf_counter() - start
        assert np.array_equal(
            serial.estimate.probabilities,
            result.estimate.probabilities,
        ), f"parallel run with {workers} workers diverged from the serial estimate"
        assert np.array_equal(serial.noisy_counts, result.noisy_counts)
        lines.append(
            f"ParallelPipeline w={workers}    : {elapsed:8.3f} s "
            f"({n_users / elapsed:12,.0f} users/s)  [{t_serial / elapsed:.2f}x, "
            f"bit-identical]"
        )
    record_result(
        "parallel_scaling_pipeline",
        "\n".join(lines),
        metrics={
            "serial_users_per_second": n_users / t_serial,
            "cpus": available,
        },
    )


def test_parallel_sweep_scaling_and_cache(bench_config, record_result, tmp_path_factory):
    """Sweep fan-out and the result cache: speedups without changing one number."""
    config = bench_config.with_overrides(datasets=SWEEP_DATASETS, workers=1, cache_dir=None)
    available = os.cpu_count() or 1

    def run_sweep(workers: int, cache: ResultCache | None) -> tuple[float, list]:
        start = time.perf_counter()
        result = sweep_parameter(
            "parallel-scaling",
            "d",
            SWEEP_D_VALUES,
            SWEEP_MECHANISMS,
            config,
            datasets=SWEEP_DATASETS,
            workers=workers,
            cache=cache if cache is not None else ResultCache(None),
        )
        return time.perf_counter() - start, result.points

    t_serial, serial_points = run_sweep(workers=1, cache=None)
    t_parallel, parallel_points = run_sweep(workers=4, cache=None)
    assert parallel_points == serial_points, "worker fan-out changed sweep results"
    parallel_speedup = t_serial / t_parallel

    cache = ResultCache(tmp_path_factory.mktemp("sweep-cache"))
    t_cold, cold_points = run_sweep(workers=1, cache=cache)
    assert cold_points == serial_points
    assert cache.hits == 0 and cache.misses == len(serial_points)
    t_warm, warm_points = run_sweep(workers=1, cache=cache)
    assert warm_points == cold_points, "cached re-run changed sweep results"
    assert cache.hits == len(serial_points), "warm re-run did not hit every cell"
    warm_speedup = t_cold / t_warm

    n_cells = len(serial_points)
    lines = [
        f"sweep scaling: {n_cells} cells "
        f"({len(SWEEP_DATASETS)} datasets x {len(SWEEP_MECHANISMS)} mechanisms x "
        f"{len(SWEEP_D_VALUES)} d values), cpus={available}",
        f"serial sweep              : {t_serial:8.3f} s",
        f"4 workers                 : {t_parallel:8.3f} s  [{parallel_speedup:.2f}x, "
        f"identical points]",
        f"cold run (caching)        : {t_cold:8.3f} s",
        f"warm re-run (all cached)  : {t_warm:8.3f} s  [{warm_speedup:.1f}x, "
        f"identical points]",
    ]
    record_result(
        "parallel_scaling_sweep",
        "\n".join(lines),
        metrics={
            "warm_cache_speedup": warm_speedup,
            "parallel_speedup": parallel_speedup,
            "cpus": available,
        },
    )

    # The warm re-run only replays JSON lookups; 1.5x is a deliberately loose floor.
    assert warm_speedup >= 1.5, f"warm cache re-run only {warm_speedup:.2f}x faster"
    # Genuine multiprocessing gains need the cores to exist; on >= 4 cpus demand the
    # acceptance floor, elsewhere the recorded measurement is the deliverable.
    if available >= 4:
        assert parallel_speedup >= 1.5, (
            f"sweep with 4 workers only {parallel_speedup:.2f}x faster on "
            f"{available} cpus"
        )
