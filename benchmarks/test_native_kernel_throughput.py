"""Native-kernel-tier benchmarks: fused EM solve, batched walk, rank-map sampler.

Backs the acceptance criteria of the :mod:`repro.kernels` tier:

* the fused stencil-convolution EM solve must beat the structured-operator loop
  by at least 3x at d=64 (the operator walks every (offset, cell) pair of its
  sparse delta matrix on each matvec, where the preallocated kernel applies the
  offsets as one stencil convolution; the reference container measures well
  above the floor) while matching its estimates to 1e-10;
* the batched inverse-CDF walk and the vectorised order-statistics sampler must
  each beat their whole-array numpy counterparts while staying bit-identical —
  the native tier is a drop-in, not an approximation.

Every asserted ratio is gated in ``benchmarks/baselines/smoke.json`` so CI
tracks regressions.  Results land in ``benchmarks/results/native_*.txt``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec
from repro.core.postprocess import expectation_maximization
from repro.trajectory.engine import TrajectoryEngine

# The kernel tier targets the fine-resolution regime where the operator loop's
# per-iteration overhead dominates: Figure-9 scale d=64 for EM/sampling, the
# routing grid scale d=60 for trajectory synthesis.
N_USERS = 200_000
GRID_D = 64
EPSILON = 3.5
EM_ITERATIONS = 60
WALK_D = 60
N_SYNTH = 100_000


def _best_of(callable_, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def grid() -> GridSpec:
    return GridSpec.unit(GRID_D)


@pytest.fixture(scope="module")
def mechanisms(grid):
    return (
        DiscreteDAM(grid, EPSILON, backend="operator"),
        DiscreteDAM(grid, EPSILON, backend="native"),
    )


@pytest.fixture(scope="module")
def cells(grid) -> np.ndarray:
    return np.random.default_rng(0).integers(0, grid.n_cells, N_USERS)


def test_native_em_solve_speedup(mechanisms, cells, record_result):
    """The fused EM kernel must beat the operator loop by >= 3x at d=64."""
    operator_backed, native_backed = mechanisms
    counts = operator_backed.aggregate(operator_backed.privatize_cells(cells, seed=2))

    def solve(mechanism):
        return expectation_maximization(
            mechanism.operator, counts, max_iterations=EM_ITERATIONS, tolerance=0.0
        )

    # Warm up outside the timed region: kernel build (numba compile or FFT plan
    # buffers) and the operator's sparse delta matrix.
    via_native = solve(native_backed)
    via_operator = solve(operator_backed)
    # Drop-in contract first: same fixed-iteration trajectory to 1e-10.
    np.testing.assert_allclose(
        via_native.estimate, via_operator.estimate, rtol=0, atol=1e-10
    )
    assert via_native.kernel == native_backed.kernel_build.describe()

    t_operator = _best_of(lambda: solve(operator_backed))
    t_native = _best_of(lambda: solve(native_backed))
    em_native_speedup = t_operator / t_native
    record_result(
        "native_em_throughput",
        "\n".join(
            [
                f"EM solve latency ({EM_ITERATIONS} fixed iterations), d={GRID_D}, "
                f"eps={EPSILON}, b_hat={operator_backed.b_hat}, "
                f"kernel={via_native.kernel}",
                f"operator sparse-delta EM    : {t_operator * 1e3:8.2f} ms",
                f"fused native kernel         : {t_native * 1e3:8.2f} ms  "
                f"[{em_native_speedup:.1f}x]",
            ]
        ),
        metrics={
            "em_native_speedup": em_native_speedup,
            "em_native_ms": t_native * 1e3,
        },
    )
    assert em_native_speedup >= 3.0, f"native EM only {em_native_speedup:.1f}x faster"


def test_native_sampler_speedup(mechanisms, cells, record_result):
    """The vectorised order-statistics map must beat the per-cell searchsorted."""
    operator_backed, native_backed = mechanisms
    via_operator = operator_backed.operator
    via_native = native_backed.operator

    # Warm the order-statistics caches outside the timed region.
    via_operator.sample(cells[:100], np.random.default_rng(0))
    via_native.sample(cells[:100], np.random.default_rng(0))
    # Bit-identity is the contract: same draws, same reports.
    np.testing.assert_array_equal(
        via_operator.sample(cells[:20_000], np.random.default_rng(2)),
        via_native.sample(cells[:20_000], np.random.default_rng(2)),
    )

    t_operator = _best_of(lambda: via_operator.sample(cells, np.random.default_rng(1)))
    t_native = _best_of(lambda: via_native.sample(cells, np.random.default_rng(1)))
    sampler_native_speedup = t_operator / t_native
    record_result(
        "native_sampler_throughput",
        "\n".join(
            [
                f"disk sampler throughput, d={GRID_D}, eps={EPSILON}, "
                f"b_hat={operator_backed.b_hat}, users={N_USERS}",
                f"operator per-cell searchsorted: {N_USERS / t_operator:12,.0f} users/s "
                f"({t_operator * 1e3:8.2f} ms)",
                f"native bisection rank map     : {N_USERS / t_native:12,.0f} users/s "
                f"({t_native * 1e3:8.2f} ms)  [{sampler_native_speedup:.2f}x]",
            ]
        ),
        metrics={
            "sampler_native_speedup": sampler_native_speedup,
            "native_users_per_second": N_USERS / t_native,
        },
    )
    assert sampler_native_speedup >= 1.2, (
        f"native sampler only {sampler_native_speedup:.2f}x faster"
    )


def test_native_walk_speedup(record_result):
    """The batched int8/int16 walk must beat the whole-array int64 loop."""
    grid = GridSpec.unit(WALK_D)
    via_operator = TrajectoryEngine.build(grid, EPSILON, max_length=40)
    via_native = TrajectoryEngine.build(grid, EPSILON, max_length=40, backend="native")
    rng = np.random.default_rng(3)
    trajectories = [
        grid.domain.denormalise(rng.random((int(rng.integers(2, 40)), 2)))
        for _ in range(500)
    ]
    model = via_operator.fit(trajectories, seed=4)

    # Bit-identity across backends (same RNG consumption, same trajectories).
    a = via_operator.synthesize(model, 2_000, seed=9)
    b = via_native.synthesize(model, 2_000, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)

    t_operator = _best_of(lambda: via_operator.synthesize(model, N_SYNTH, seed=5))
    t_native = _best_of(lambda: via_native.synthesize(model, N_SYNTH, seed=5))
    walk_native_speedup = t_operator / t_native
    record_result(
        "native_walk_throughput",
        "\n".join(
            [
                f"Markov walk synthesis, d={WALK_D}, eps={EPSILON}, "
                f"trajectories={N_SYNTH}",
                f"whole-array int64 walk : {N_SYNTH / t_operator:12,.0f} traj/s "
                f"({t_operator * 1e3:8.2f} ms)",
                f"native batched walk    : {N_SYNTH / t_native:12,.0f} traj/s "
                f"({t_native * 1e3:8.2f} ms)  [{walk_native_speedup:.2f}x]",
            ]
        ),
        metrics={
            "walk_native_speedup": walk_native_speedup,
            "native_trajectories_per_second": N_SYNTH / t_native,
        },
    )
    assert walk_native_speedup >= 1.2, (
        f"native walk only {walk_native_speedup:.2f}x faster"
    )
