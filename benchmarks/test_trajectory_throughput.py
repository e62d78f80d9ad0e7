"""Trajectory engine throughput: batched fit/synthesis vs the seed loops.

Backs the acceptance criteria of the vectorized trajectory engine
(:mod:`repro.trajectory.engine`):

* batched Markov-walk synthesis must deliver at least a **20x** throughput
  improvement over the seed per-trajectory/per-step loop
  (:meth:`LDPTrace.synthesize_reference`) on 10,000 trajectories, at point-density
  parity — the W2 between the two synthetic sets' per-cell distributions stays
  within tolerance (both are draws from the same fitted model, so any systematic
  gap is an engine bug; the differential property tests in
  ``tests/trajectory/test_trajectory_engine.py`` pin the same claim for arbitrary grids);
* vectorized report collection must beat the seed per-trajectory fitting loop;
* the trajectory query engine sustains serving-scale rates on the OD/transition
  workload mix.

Results are recorded to ``benchmarks/results/trajectory_throughput.txt``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.domain import GridSpec, SpatialDomain
from repro.datasets.trajectories import generate_trajectories
from repro.metrics.wasserstein import wasserstein2_auto
from repro.queries.engine import QueryLog, TrajectoryQueryEngine, WorkloadReplay
from repro.trajectory.adapter import trajectory_point_distribution
from repro.trajectory.engine import TrajectoryEngine

#: d = 12 keeps the parity check on the exact LP Wasserstein solver (144 cells);
#: finer grids would switch to Sinkhorn, whose entropic bias would dominate the gap.
GRID_D = 12
EPSILON = 2.0
MAX_LENGTH = 32
N_SYNTHESIZE = 10_000
SYNTHESIS_SPEEDUP_TARGET = 20.0
FIT_SPEEDUP_TARGET = 3.0
#: Two independent 10k-trajectory draws from the same model measure ~0.03 against
#: each other on the unit square (the sampling noise floor); a systematic walk bug
#: blows straight through this.
W2_PARITY_TOLERANCE = 0.08


def _best_of(callable_, repeats: int = 2) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def engine() -> TrajectoryEngine:
    grid = GridSpec(SpatialDomain.unit("trajectories"), GRID_D)
    return TrajectoryEngine.build(grid, EPSILON, max_length=MAX_LENGTH)


@pytest.fixture(scope="module")
def trajectories():
    rng = np.random.default_rng(5)
    points = np.clip(rng.normal([0.45, 0.55], 0.15, size=(30_000, 2)), 0, 1)
    dataset = generate_trajectories(
        points,
        SpatialDomain.unit("trajectories"),
        routing_d=60,
        n_trajectories=2_000,
        max_length=MAX_LENGTH,
        seed=6,
    )
    return dataset.trajectories


@pytest.fixture(scope="module")
def model(engine, trajectories):
    return engine.fit(trajectories, seed=7)


def test_batched_synthesis_speedup(engine, model, record_result):
    """Batched walk must beat the seed per-step loop by >= 20x at W2 parity."""
    synthetic = engine.synthesize(model, N_SYNTHESIZE, seed=11)
    reference = engine.synthesize_reference(model, N_SYNTHESIZE, seed=11)
    assert len(synthetic) == len(reference) == N_SYNTHESIZE
    batched_distribution = trajectory_point_distribution(synthetic, engine.grid)
    reference_distribution = trajectory_point_distribution(reference, engine.grid)
    parity = wasserstein2_auto(reference_distribution, batched_distribution)
    assert parity <= W2_PARITY_TOLERANCE

    t_reference = _best_of(
        lambda: engine.synthesize_reference(model, N_SYNTHESIZE, seed=11), repeats=1
    )
    t_batched = _best_of(lambda: engine.synthesize(model, N_SYNTHESIZE, seed=11))
    speedup = t_reference / t_batched
    record_result(
        "trajectory_throughput",
        "\n".join(
            [
                f"grid: {GRID_D}x{GRID_D}   trajectories: {N_SYNTHESIZE}   "
                f"max length: {MAX_LENGTH}   epsilon: {EPSILON}",
                f"reference per-step loop: {t_reference:.3f} s "
                f"({N_SYNTHESIZE / t_reference:,.0f} trajectories/s)",
                f"batched Markov walk:     {t_batched:.4f} s "
                f"({N_SYNTHESIZE / t_batched:,.0f} trajectories/s)",
                f"synthesis speedup: {speedup:.1f}x "
                f"(target >= {SYNTHESIS_SPEEDUP_TARGET}x)",
                f"point-density W2(reference, batched): {parity:.4f} "
                f"(tolerance {W2_PARITY_TOLERANCE})",
            ]
        ),
        metrics={
            "synthesis_speedup": speedup,
            "w2_parity": float(parity),
            "trajectories_per_second": N_SYNTHESIZE / t_batched,
        },
    )
    assert speedup >= SYNTHESIS_SPEEDUP_TARGET


def test_vectorized_fit_speedup(engine, trajectories, record_result):
    """Whole-array report collection must beat the seed per-trajectory fit loop."""
    t_reference = _best_of(lambda: engine.fit_reference(trajectories, seed=9), repeats=1)
    t_vectorized = _best_of(lambda: engine.fit(trajectories, seed=9))
    speedup = t_reference / t_vectorized
    record_result(
        "trajectory_fit_throughput",
        "\n".join(
            [
                f"trajectories: {len(trajectories)}   grid: {GRID_D}x{GRID_D}",
                f"reference fit loop: {t_reference:.3f} s "
                f"({len(trajectories) / t_reference:,.0f} trajectories/s)",
                f"vectorized fit:     {t_vectorized:.4f} s "
                f"({len(trajectories) / t_vectorized:,.0f} trajectories/s)",
                f"fit speedup: {speedup:.1f}x (target >= {FIT_SPEEDUP_TARGET}x)",
            ]
        ),
        metrics={
            "fit_speedup": speedup,
            "fit_trajectories_per_second": len(trajectories) / t_vectorized,
        },
    )
    assert speedup >= FIT_SPEEDUP_TARGET


def test_trajectory_workload_replay_rates(engine, model, record_result):
    """The trajectory serving mix (point + sequence ops) sustains serving rates."""
    synthetic = engine.synthesize(model, N_SYNTHESIZE, seed=13)
    serving = TrajectoryQueryEngine(synthetic, engine.grid)
    log = QueryLog.random(
        engine.grid.domain,
        n_range=20_000,
        n_density=20_000,
        n_od_top_k=200,
        n_transition_top_k=200,
        n_length_histograms=200,
        seed=17,
    )
    report, answers = WorkloadReplay(serving).replay(log)
    record_result(
        "trajectory_workload_replay",
        report.format(),
        metrics={
            "range_ops_per_second": report.per_kind["range_mass"]["ops_per_second"],
            "od_top_k_ops_per_second": report.per_kind["od_top_k"]["ops_per_second"],
        },
    )
    assert report.n_operations == log.size
    assert {"od_top_k", "transition_top_k", "length_histogram"} <= set(answers)
    # The sequence-statistic lookups are pre-aggregated; even slow CI workers
    # should clear a thousand of each per second.
    assert report.per_kind["od_top_k"]["ops_per_second"] > 1_000
    assert report.per_kind["transition_top_k"]["ops_per_second"] > 1_000
