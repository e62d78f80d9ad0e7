"""Throughput of the default paths at fine grids: EM solve, disk sampler, walk, W2.

Each bench times the one path every caller takes and records a rate, gated in
``benchmarks/baselines/smoke.json`` (all four are higher-is-better):

* ``em_iterations_per_s`` — fixed-iteration EM on DAM's disk operator at
  Figure-9 scale d=64, eps=3.5, where the operator's shape rule puts the
  matvecs on the FFT side (``d^2 * k`` = 2.8M sparse entries);
* ``sampler_users_per_s`` — the disk sampler (one uniform per user, whole-batch
  bisection for the background draws) at the same d=64;
* ``walk_trajectories_per_s`` — batched Markov-walk synthesis at the routing
  grid scale d=60;
* ``sinkhorn_w2_per_s`` — Sinkhorn W2 solves at d=20 with the regularisation the
  figure sweeps score with, which run in scaling form on the separable kernel.

The rates are absolute, so they depend on the runner; the committed baselines
are medians of five smoke runs on the reference container.  Parity of the two
matvec sides with the dense matrix and bit-identity of the bisection and the
narrow walk with their references are asserted in ``tests/kernels/``; parity of
the separable Sinkhorn with the log-domain loop in ``tests/metrics/test_sinkhorn.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec
from repro.core.postprocess import expectation_maximization
from repro.metrics.sinkhorn import sinkhorn_wasserstein
from repro.trajectory.engine import TrajectoryEngine

N_USERS = 200_000
GRID_D = 64
EPSILON = 3.5
EM_ITERATIONS = 60
WALK_D = 60
N_SYNTH = 100_000
SINKHORN_D = 20
SINKHORN_REG = 0.01  # wasserstein2_auto's default, which the figure sweeps use


def _best_of(callable_, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def mechanism() -> DiscreteDAM:
    return DiscreteDAM(GridSpec.unit(GRID_D), EPSILON)


@pytest.fixture(scope="module")
def cells(mechanism) -> np.ndarray:
    return np.random.default_rng(0).integers(0, mechanism.grid.n_cells, N_USERS)


def test_em_throughput(mechanism, cells, record_result):
    """Fixed-iteration EM solves per second on the default operator at d=64."""
    operator = mechanism.operator
    counts = mechanism.aggregate(mechanism.privatize_cells(cells, seed=2))

    def solve():
        return expectation_maximization(
            operator, counts, max_iterations=EM_ITERATIONS, tolerance=0.0
        )

    solve()  # builds the side's structures outside the timed region
    t_solve = _best_of(solve)
    side = "fft" if operator._fft_side else "sparse"
    record_result(
        "em_throughput",
        "\n".join(
            [
                f"EM solve ({EM_ITERATIONS} fixed iterations), d={GRID_D}, eps={EPSILON}, "
                f"b_hat={mechanism.b_hat}, {side} matvecs",
                f"solve: {t_solve * 1e3:8.2f} ms  "
                f"({EM_ITERATIONS / t_solve:,.0f} iterations/s)",
            ]
        ),
        metrics={
            "em_iterations_per_s": EM_ITERATIONS / t_solve,
            "em_solve_ms": t_solve * 1e3,
        },
    )


def test_sampler_throughput(mechanism, cells, record_result):
    """Users privatized per second by the disk sampler at d=64."""
    operator = mechanism.operator
    operator.sample(cells[:100], np.random.default_rng(0))  # order-statistics caches
    t_sample = _best_of(lambda: operator.sample(cells, np.random.default_rng(1)))
    record_result(
        "sampler_throughput",
        "\n".join(
            [
                f"disk sampler, d={GRID_D}, eps={EPSILON}, b_hat={mechanism.b_hat}, "
                f"users={N_USERS}",
                f"sample: {t_sample * 1e3:8.2f} ms  ({N_USERS / t_sample:,.0f} users/s)",
            ]
        ),
        metrics={"sampler_users_per_s": N_USERS / t_sample},
    )


def test_walk_throughput(record_result):
    """Trajectories synthesized per second by the batched walk at d=60."""
    grid = GridSpec.unit(WALK_D)
    engine = TrajectoryEngine.build(grid, EPSILON, max_length=40)
    rng = np.random.default_rng(3)
    trajectories = [
        grid.domain.denormalise(rng.random((int(rng.integers(2, 40)), 2)))
        for _ in range(500)
    ]
    model = engine.fit(trajectories, seed=4)
    engine.synthesize(model, 2_000, seed=9)
    t_synth = _best_of(lambda: engine.synthesize(model, N_SYNTH, seed=5))
    record_result(
        "walk_throughput",
        "\n".join(
            [
                f"Markov walk synthesis, d={WALK_D}, eps={EPSILON}, "
                f"trajectories={N_SYNTH}",
                f"synthesize: {t_synth * 1e3:8.2f} ms  "
                f"({N_SYNTH / t_synth:,.0f} trajectories/s)",
            ]
        ),
        metrics={"walk_trajectories_per_s": N_SYNTH / t_synth},
    )


def test_sinkhorn_throughput(record_result):
    """Sinkhorn W2 solves per second at d=20 against a zero-heavy estimate."""
    grid = GridSpec.unit(SINKHORN_D)
    rng = np.random.default_rng(6)
    truth = rng.dirichlet(np.ones(grid.n_cells))
    estimate = rng.dirichlet(np.ones(grid.n_cells))
    estimate[rng.random(grid.n_cells) < 0.7] = 0.0
    dist_a = GridDistribution(grid, truth.reshape(SINKHORN_D, SINKHORN_D))
    dist_b = GridDistribution(grid, (estimate / estimate.sum()).reshape(SINKHORN_D, SINKHORN_D))

    def solve():
        return sinkhorn_wasserstein(dist_a, dist_b, reg=SINKHORN_REG)

    w2 = solve()
    t_solve = _best_of(solve, repeats=30)
    record_result(
        "sinkhorn_throughput",
        "\n".join(
            [
                f"Sinkhorn W2, d={SINKHORN_D}, reg={SINKHORN_REG}, "
                f"{int((estimate > 0).sum())} of {grid.n_cells} estimate cells non-zero",
                f"solve: {t_solve * 1e3:8.2f} ms  ({1.0 / t_solve:,.0f} solves/s), W2={w2:.6f}",
            ]
        ),
        metrics={"sinkhorn_w2_per_s": 1.0 / t_solve, "sinkhorn_w2_ms": t_solve * 1e3},
    )
