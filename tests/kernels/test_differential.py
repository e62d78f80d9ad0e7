"""Differential parity suite: each fast path against the reference it replaces.

* the disk operator's two EM matvec sides (sparse delta matrix and FFT stencil
  convolution) agree with the dense matrix they represent to the float64
  rounding floor, and so do fixed-iteration EM solves on each side;
* the whole-batch bisection of the disk sampler is **bit-identical** to one
  ``searchsorted`` per background draw (exact integer order statistics);
* the time-major narrow-dtype walk of trajectory synthesis is **bit-identical**
  to a trajectory-major int64 clip loop, and its inverse-CDF step draw consumes
  the same uniforms as a plain ``searchsorted``.

Domains come from :mod:`strategies` and include the planet-scale coordinate
offsets where float conditioning is worst.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec
from repro.core.geometry import disk_offset_array
from repro.core.huem import DiscreteHUEM
from repro.core.operator import background_rank_map, build_disk_operator
from repro.core.postprocess import expectation_maximization
from repro.trajectory.engine import batched_walk, inverse_cdf_draws

SLOW_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _dam_masses(b_hat: int, epsilon: float) -> np.ndarray:
    offsets = disk_offset_array(b_hat)
    masses = offsets.copy()
    masses[:, 2] = offsets[:, 2] * math.exp(epsilon) + (1.0 - offsets[:, 2])
    return masses


class TestEMParity:
    @given(
        strategies.grid_sides(2, 7),
        strategies.epsilons(),
        strategies.b_hats(),
        strategies.seeds(),
    )
    @SLOW_SETTINGS
    def test_fft_vs_sparse_vs_dense_estimates(self, d, epsilon, b_hat, seed):
        grid = GridSpec.unit(d)
        operator = build_disk_operator(grid, b_hat, _dam_masses(b_hat, epsilon))
        dense = operator.to_dense()
        # Grids this small fall on the sparse side of the rule, so the FFT side is
        # called directly below, and EM is put on it through the side flag.
        assert not operator._fft_side
        rng = np.random.default_rng(seed)
        theta = rng.dirichlet(np.ones(operator.n_inputs))
        weights = rng.random(operator.n_outputs)
        for forward, backward in (
            (operator._sparse_forward, operator._sparse_backward),
            (operator._fft_forward, operator._fft_backward),
        ):
            np.testing.assert_allclose(forward(theta), theta @ dense, rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                backward(weights), dense @ weights, rtol=0, atol=1e-12 * weights.sum()
            )

        cells = rng.integers(0, grid.n_cells, 3000)
        counts = np.bincount(
            operator.sample(cells, rng), minlength=operator.n_outputs
        ).astype(float)
        kwargs = dict(max_iterations=50, tolerance=0.0)
        via_sparse = expectation_maximization(operator, counts, **kwargs)
        operator._fft_side = True
        via_fft = expectation_maximization(operator, counts, **kwargs)
        via_dense = expectation_maximization(dense, counts, **kwargs)
        # Calibrated tolerance: ~1e-15 relative per matvec, amplified across 50
        # multiplicative EM iterations — 1e-9 absolute on a unit-sum estimate
        # leaves two orders of margin over the worst observed drift.
        np.testing.assert_allclose(via_fft.estimate, via_sparse.estimate, rtol=0, atol=1e-9)
        np.testing.assert_allclose(via_fft.estimate, via_dense.estimate, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mechanism_cls", [DiscreteDAM, DiscreteHUEM])
    def test_mechanism_backend_estimates_agree(self, mechanism_cls):
        """The public path above the rule's threshold (FFT side) against dense."""
        grid = GridSpec.unit(20)
        via_operator = mechanism_cls(grid, 1.4)
        via_dense = mechanism_cls(grid, 1.4)
        via_dense._set_transition(via_dense.operator.to_dense())
        assert via_operator.operator._fft_side
        cells = np.random.default_rng(3).integers(0, grid.n_cells, 20_000)
        counts = via_operator.aggregate(via_operator.privatize_cells(cells, seed=4))
        a = via_operator.estimate(counts, int(counts.sum()))
        b = via_dense.estimate(counts, int(counts.sum()))
        np.testing.assert_allclose(a.flat(), b.flat(), rtol=0, atol=1e-9)


def _reference_sample(operator, cells, rng):
    """:meth:`DiskTransitionOperator.sample` with one ``searchsorted`` per background draw."""
    u = rng.random(cells.shape[0])
    special_mass = float(operator._cum_values[-1])
    in_disk = u < special_mass
    j = np.searchsorted(operator._cum_values, u[in_disk], side="right")
    np.clip(j, 0, operator.n_offsets - 1, out=j)
    reports = np.empty(cells.shape[0], dtype=np.int64)
    reports[in_disk] = operator._out_indices[j, cells[in_disk]]
    rank = ((u[~in_disk] - special_mass) / operator.background).astype(np.int64)
    np.clip(rank, 0, operator.n_outputs - operator.n_offsets - 1, out=rank)
    reports[~in_disk] = [
        r + np.searchsorted(operator._rank_shift[:, cell], r, side="right")
        for cell, r in zip(cells[~in_disk], rank)
    ]
    return reports


class TestSamplerParity:
    @given(
        strategies.grid_sides(2, 7),
        strategies.epsilons(),
        strategies.b_hats(),
        strategies.seeds(),
    )
    @SLOW_SETTINGS
    def test_reports_bit_identical_to_operator(self, d, epsilon, b_hat, seed):
        operator = build_disk_operator(GridSpec.unit(d), b_hat, _dam_masses(b_hat, epsilon))
        cells = np.random.default_rng(seed).integers(0, operator.n_inputs, 5000)
        a = operator.sample(cells, np.random.default_rng(seed + 1))
        b = _reference_sample(operator, cells, np.random.default_rng(seed + 1))
        np.testing.assert_array_equal(a, b)

    @given(strategies.seeds())
    @SLOW_SETTINGS
    def test_rank_map_equals_per_cell_searchsorted(self, seed):
        operator = build_disk_operator(GridSpec.unit(9), 2, _dam_masses(2, 3.0))
        operator.sample(
            np.zeros(1, dtype=np.int64), np.random.default_rng(0)
        )  # build the order-statistics cache
        rank_shift = operator._rank_shift
        rng = np.random.default_rng(seed)
        n = 4000
        cells = rng.integers(0, operator.n_inputs, n)
        rank = rng.integers(0, operator.n_outputs - rank_shift.shape[0], n)
        expected = rank + np.array(
            [
                np.searchsorted(rank_shift[:, cell], r, side="right")
                for cell, r in zip(cells, rank)
            ]
        )
        np.testing.assert_array_equal(
            background_rank_map(rank_shift, cells, rank), expected
        )

    def test_empty_batch(self):
        operator = build_disk_operator(GridSpec.unit(4), 1, _dam_masses(1, 2.0))
        operator.sample(np.zeros(1, dtype=np.int64), np.random.default_rng(0))
        empty = np.empty(0, dtype=np.int64)
        assert background_rank_map(operator._rank_shift, empty, empty).shape == (0,)


class TestWalkParity:
    @given(strategies.grid_sides(1, 12), strategies.seeds())
    @SLOW_SETTINGS
    def test_batched_walk_matches_int64_clip_loop(self, d, seed):
        rng = np.random.default_rng(seed)
        n, max_steps = 300, 25
        start_cells = rng.integers(0, d * d, n)
        step_rows = rng.integers(-1, 2, (n, max_steps))
        step_cols = rng.integers(-1, 2, (n, max_steps))
        rows = np.empty((n, max_steps + 1), dtype=np.int64)
        cols = np.empty((n, max_steps + 1), dtype=np.int64)
        rows[:, 0] = start_cells // d
        cols[:, 0] = start_cells % d
        for t in range(max_steps):
            np.clip(rows[:, t] + step_rows[:, t], 0, d - 1, out=rows[:, t + 1])
            np.clip(cols[:, t] + step_cols[:, t], 0, d - 1, out=cols[:, t + 1])

        rows_t, cols_t = batched_walk(start_cells, step_rows, step_cols, d)
        assert rows_t.shape == cols_t.shape == (max_steps + 1, n)
        np.testing.assert_array_equal(rows_t.T, rows)
        np.testing.assert_array_equal(cols_t.T, cols)

    @given(strategies.seeds())
    @SLOW_SETTINGS
    def test_inverse_cdf_draws_match_searchsorted(self, seed):
        probabilities = np.random.default_rng(seed).dirichlet(np.ones(9))
        reference = np.searchsorted(
            np.cumsum(probabilities),
            np.random.default_rng(seed + 1).random((40, 7)),
            side="right",
        )
        np.clip(reference, 0, 8, out=reference)
        drawn = inverse_cdf_draws(
            np.random.default_rng(seed + 1), probabilities, (40, 7), dtype=np.int16
        )
        assert drawn.dtype == np.int16
        np.testing.assert_array_equal(drawn, reference)
