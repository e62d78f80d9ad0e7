"""Tests for repro.core.operator — the structured transition-operator engine.

The operator must be numerically indistinguishable from the dense matrix it
represents: same dense materialisation as an independent reference construction,
same forward/backward matvecs, same LDP audit value, and a sampler whose empirical
frequencies match the declared row.  Property-based tests (hypothesis) sweep random
``(d, eps, b_hat)`` configurations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from repro.core.dam import DiscreteDAM, DiskOutputDomain, build_disk_transition
from repro.core.domain import GridSpec
from repro.core.estimator import StreamingAggregator
from repro.core.geometry import disk_offset_array
from repro.core.huem import DiscreteHUEM, huem_cell_masses
from repro.core.operator import (
    DenseTransitionOperator,
    build_disk_operator,
)
from repro.core.postprocess import expectation_maximization
from repro.metrics.divergence import chi_square_statistic

SLOW_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

epsilon_strategy = strategies.epsilons()
grid_strategy = strategies.grid_sides(2, 7)
b_hat_strategy = strategies.b_hats()


def _dam_masses(b_hat: int, epsilon: float) -> np.ndarray:
    offsets = disk_offset_array(b_hat)
    masses = offsets.copy()
    masses[:, 2] = offsets[:, 2] * math.exp(epsilon) + (1.0 - offsets[:, 2])
    return masses


def _reference_dense(grid: GridSpec, b_hat: int, masses: np.ndarray) -> np.ndarray:
    """Independent dense construction via per-cell dictionary lookups (the seed
    implementation), kept here so the vectorised operator is checked against
    something that shares none of its code."""
    domain = DiskOutputDomain.build(grid.d, b_hat)
    lookup = domain.index_lookup()
    total = float(masses[:, 2].sum())
    normaliser = total + (domain.size - masses.shape[0])
    dense = np.full((grid.n_cells, domain.size), 1.0 / normaliser)
    for flat, row, col in grid.iter_cells():
        for dx, dy, mass in masses:
            dense[flat, lookup[(col + int(dx), row + int(dy))]] = mass / normaliser
    return dense


class TestOperatorMatchesDense:
    @given(grid_strategy, epsilon_strategy, b_hat_strategy)
    @SLOW_SETTINGS
    def test_to_dense_matches_reference_construction(self, d, epsilon, b_hat):
        grid = GridSpec.unit(d)
        masses = _dam_masses(b_hat, epsilon)
        operator = build_disk_operator(grid, b_hat, masses)
        np.testing.assert_allclose(
            operator.to_dense(), _reference_dense(grid, b_hat, masses), atol=1e-15
        )

    @given(grid_strategy, epsilon_strategy, b_hat_strategy, strategies.seeds())
    @SLOW_SETTINGS
    def test_matvecs_match_dense(self, d, epsilon, b_hat, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec.unit(d)
        operator = build_disk_operator(grid, b_hat, _dam_masses(b_hat, epsilon))
        dense = operator.to_dense()
        theta = rng.dirichlet(np.ones(grid.n_cells))
        weights = rng.random(operator.n_outputs)
        np.testing.assert_allclose(operator.forward(theta), theta @ dense, atol=1e-12)
        np.testing.assert_allclose(operator.backward(weights), dense @ weights, atol=1e-12)

    @given(grid_strategy, epsilon_strategy, b_hat_strategy)
    @SLOW_SETTINGS
    def test_ldp_ratio_matches_dense_audit(self, d, epsilon, b_hat):
        operator = build_disk_operator(GridSpec.unit(d), b_hat, _dam_masses(b_hat, epsilon))
        dense = operator.to_dense()
        ratio = (dense.max(axis=0) / dense.min(axis=0)).max()
        assert operator.ldp_ratio() == pytest.approx(float(ratio), rel=1e-12)
        assert operator.ldp_ratio() <= math.exp(epsilon) * (1 + 1e-9)

    @given(grid_strategy, epsilon_strategy, b_hat_strategy)
    @SLOW_SETTINGS
    def test_row_matches_dense_row(self, d, epsilon, b_hat):
        grid = GridSpec.unit(d)
        operator = build_disk_operator(grid, b_hat, _dam_masses(b_hat, epsilon))
        dense = operator.to_dense()
        for cell in (0, grid.n_cells // 2, grid.n_cells - 1):
            np.testing.assert_allclose(operator.row(cell), dense[cell], atol=1e-15)

    def test_huem_operator_matches_build_disk_transition(self):
        grid = GridSpec.unit(6)
        masses = huem_cell_masses(2, 3.5)
        operator = build_disk_operator(grid, 2, masses)
        dense, domain, normaliser = build_disk_transition(grid, 2, masses)
        np.testing.assert_allclose(operator.to_dense(), dense, atol=1e-15)
        assert operator.normaliser == pytest.approx(normaliser)
        assert operator.n_outputs == domain.size

    def test_invalid_mass_shape_rejected(self):
        with pytest.raises(ValueError):
            build_disk_operator(GridSpec.unit(4), 2, np.zeros((3, 2)))

    def test_large_grid_construction_survives_rounding(self):
        # Regression target: the row-sum sanity check used a fixed atol=1e-6,
        # which a large output domain's accumulated rounding can trip even when
        # the operator is exactly row-stochastic in intent.  The tolerance now
        # scales with the output-domain size, so a d=256 build must succeed.
        grid = GridSpec.unit(256)
        operator = build_disk_operator(grid, 3, _dam_masses(3, 3.5))
        assert operator.shape == (256 * 256, operator.n_outputs)
        theta = np.full(grid.n_cells, 1.0 / grid.n_cells)
        assert operator.forward(theta).sum() == pytest.approx(1.0, abs=1e-9)

    def test_row_sum_tolerance_scales_with_output_domain(self):
        # Sub-1e-6 per-output drift must pass on a big domain (scaled atol) and
        # a grossly wrong row sum must still be rejected with the tolerance in
        # the message.
        grid = GridSpec.unit(32)
        masses = _dam_masses(2, 2.0)
        operator = build_disk_operator(grid, 2, masses)
        atol = max(1e-6, 1e-9 * operator.n_outputs)
        assert atol >= 1e-6
        bad = masses.copy()
        bad[:, 2] *= 1.5
        with pytest.raises(ValueError, match="tolerance"):
            # Re-normalise against the *unscaled* normaliser so row sums are off.
            from repro.core.operator import DiskTransitionOperator

            DiskTransitionOperator(
                grid,
                2,
                offsets=masses[:, :2].astype(np.int64),
                values=bad[:, 2] / (operator.normaliser),
                background=1.0 / operator.normaliser,
                output_cells=operator.output_cells,
                normaliser=operator.normaliser,
            )


class TestOperatorSampling:
    def test_empirical_frequencies_match_declared_row(self):
        grid = GridSpec.unit(5)
        operator = build_disk_operator(grid, 2, _dam_masses(2, 2.5))
        rng = np.random.default_rng(11)
        cell, n = 12, 40_000
        reports = operator.sample(np.full(n, cell, dtype=np.int64), rng)
        observed = np.bincount(reports, minlength=operator.n_outputs)
        expected = operator.row(cell) * n
        assert chi_square_statistic(observed, expected) < 1.5 * operator.n_outputs

    def test_one_uniform_per_user_makes_streaming_bit_exact(self):
        grid = GridSpec.unit(6)
        operator = build_disk_operator(grid, 2, _dam_masses(2, 3.5))
        cells = np.random.default_rng(0).integers(0, grid.n_cells, 10_000)
        batch = operator.sample(cells, np.random.default_rng(99))
        rng = np.random.default_rng(99)
        chunked = np.concatenate(
            [operator.sample(chunk, rng) for chunk in np.array_split(cells, 7)]
        )
        np.testing.assert_array_equal(batch, chunked)

    def test_empty_batch(self):
        operator = build_disk_operator(GridSpec.unit(3), 1, _dam_masses(1, 2.0))
        reports = operator.sample(np.empty(0, dtype=np.int64), np.random.default_rng(0))
        assert reports.shape == (0,)

    def test_no_background_cells(self):
        # d = 1: the output domain is exactly the disk neighbourhood — every output
        # cell is a disk cell and the background branch must never divide by zero.
        grid = GridSpec.unit(1)
        operator = build_disk_operator(grid, 2, _dam_masses(2, 2.0))
        assert operator.n_outputs == operator.n_offsets
        reports = operator.sample(np.zeros(500, dtype=np.int64), np.random.default_rng(1))
        assert reports.min() >= 0 and reports.max() < operator.n_outputs


class TestExpectationMaximizationBackends:
    @given(grid_strategy, epsilon_strategy, b_hat_strategy, strategies.seeds())
    @SLOW_SETTINGS
    def test_em_parity_operator_vs_dense(self, d, epsilon, b_hat, seed):
        grid = GridSpec.unit(d)
        operator = build_disk_operator(grid, b_hat, _dam_masses(b_hat, epsilon))
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, grid.n_cells, 3000)
        counts = np.bincount(operator.sample(cells, rng), minlength=operator.n_outputs)
        via_operator = expectation_maximization(operator, counts, max_iterations=50, tolerance=0.0)
        via_dense = expectation_maximization(
            operator.to_dense(), counts, max_iterations=50, tolerance=0.0
        )
        np.testing.assert_allclose(via_operator.estimate, via_dense.estimate, atol=1e-10)
        assert via_operator.log_likelihood == pytest.approx(via_dense.log_likelihood, rel=1e-9)

    def test_dense_adapter_protocol(self):
        matrix = np.array([[0.7, 0.3], [0.2, 0.8]])
        adapter = DenseTransitionOperator(matrix)
        assert adapter.shape == (2, 2)
        np.testing.assert_allclose(adapter.forward(np.array([0.5, 0.5])), [0.45, 0.55])
        np.testing.assert_allclose(adapter.backward(np.array([1.0, 0.0])), [0.7, 0.2])


class TestMechanismIntegration:
    @pytest.mark.parametrize("mechanism_cls", [DiscreteDAM, DiscreteHUEM])
    def test_backend_estimates_agree(self, mechanism_cls):
        grid = GridSpec.unit(6)
        via_operator = mechanism_cls(grid, 3.5, b_hat=2)
        # The dense oracle: a twin whose transition is the operator's matrix.
        via_dense = mechanism_cls(grid, 3.5, b_hat=2)
        via_dense._set_transition(via_dense.operator.to_dense())
        assert via_operator.operator is not None
        assert via_dense.operator is None
        counts = np.zeros(via_operator.output_domain_size())
        counts[: grid.n_cells] = np.random.default_rng(3).integers(0, 50, grid.n_cells)
        a = via_operator.estimate(counts, int(counts.sum()))
        b = via_dense.estimate(counts, int(counts.sum()))
        np.testing.assert_allclose(a.flat(), b.flat(), atol=1e-10)

    def test_ls_postprocess_still_works_on_operator_backend(self):
        mech = DiscreteDAM(GridSpec.unit(4), 2.0, b_hat=1, postprocess="ls")
        report = mech.run_cells(np.array([0, 3, 7, 7, 12]), seed=0)
        assert report.estimate.flat().sum() == pytest.approx(1.0)


class TestStreamingAggregator:
    def test_stream_equals_batch_with_shared_seed(self):
        grid = GridSpec.unit(5)
        mech = DiscreteDAM(grid, 3.5, b_hat=1)
        cells = np.random.default_rng(4).integers(0, grid.n_cells, 8000)
        batch = mech.run_cells(cells, seed=123)
        aggregator = StreamingAggregator(mech, seed=123)
        for chunk in np.array_split(cells, 11):
            aggregator.add_cells(chunk)
        report = aggregator.finalize()
        np.testing.assert_array_equal(report.noisy_counts, batch.noisy_counts)
        np.testing.assert_allclose(report.estimate.flat(), batch.estimate.flat(), atol=1e-12)
        assert report.n_users == batch.n_users == 8000

    def test_true_cell_counts_accumulate(self):
        grid = GridSpec.unit(4)
        mech = DiscreteDAM(grid, 2.0, b_hat=1)
        aggregator = mech.streaming_aggregator(seed=0)
        aggregator.add_cells(np.array([0, 0, 5])).add_cells(np.array([5, 15]))
        assert aggregator.true_cell_counts[0] == 2
        assert aggregator.true_cell_counts[5] == 2
        assert aggregator.true_cell_counts[15] == 1
        assert aggregator.n_users == 5

    def test_empty_chunks_are_ignored(self):
        mech = DiscreteDAM(GridSpec.unit(3), 2.0, b_hat=1)
        aggregator = mech.streaming_aggregator(seed=0)
        aggregator.add_cells(np.empty(0, dtype=np.int64))
        assert aggregator.n_users == 0

    def test_mid_stream_checkpoint_is_immutable(self):
        """finalize() snapshots the histogram: later shards must not mutate an
        already-returned report."""
        mech = DiscreteDAM(GridSpec.unit(3), 2.0, b_hat=1)
        aggregator = mech.streaming_aggregator(seed=0)
        aggregator.add_cells(np.arange(9))
        checkpoint = aggregator.finalize()
        frozen = checkpoint.noisy_counts.copy()
        aggregator.add_cells(np.arange(9))
        np.testing.assert_array_equal(checkpoint.noisy_counts, frozen)
        assert aggregator.finalize().n_users == 18

    def test_run_stream_points(self):
        grid = GridSpec.unit(4)
        mech = DiscreteDAM(grid, 3.0, b_hat=1)
        points = np.random.default_rng(5).random((2000, 2))
        aggregator = mech.streaming_aggregator(seed=9)
        for chunk in np.array_split(points, 4):
            aggregator.add_points(chunk)
        batch = mech.run(points, seed=9)
        np.testing.assert_array_equal(aggregator.finalize().noisy_counts, batch.noisy_counts)
