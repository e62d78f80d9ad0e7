"""Tests for repro.metrics.wasserstein — 1-D closed forms and the exact 2-D LP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strategies
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.metrics.wasserstein import (
    wasserstein2_auto,
    wasserstein2_grid,
    wasserstein_1d,
    wasserstein_1d_general,
    wasserstein_exact,
)


class TestWasserstein1D:
    def test_identical_distributions(self):
        weights = np.array([0.2, 0.5, 0.3])
        assert wasserstein_1d(weights, weights) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_distance(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        assert wasserstein_1d(a, b, p=1.0) == pytest.approx(2.0)
        assert wasserstein_1d(a, b, p=2.0) == pytest.approx(2.0)

    def test_custom_positions(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert wasserstein_1d(a, b, positions=np.array([0.0, 5.0]), p=1.0) == pytest.approx(5.0)

    def test_shift_by_one_bin(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.0, 0.5, 0.5])
        assert wasserstein_1d(a, b, p=1.0) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(10))
        b = rng.dirichlet(np.ones(10))
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d(np.array([1.0]), np.array([0.5, 0.5]))

    def test_w2_at_least_w1(self):
        """Jensen: W_2 >= W_1 on the same pair."""
        rng = np.random.default_rng(1)
        a = rng.dirichlet(np.ones(12))
        b = rng.dirichlet(np.ones(12))
        assert wasserstein_1d(a, b, p=2.0) >= wasserstein_1d(a, b, p=1.0) - 1e-12

    @given(st.integers(min_value=2, max_value=15), strategies.seeds())
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, size, seed):
        """Property: non-negativity, identity and symmetry on random distributions."""
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(size))
        b = rng.dirichlet(np.ones(size))
        d_ab = wasserstein_1d(a, b)
        assert d_ab >= 0
        assert wasserstein_1d(a, a) == pytest.approx(0.0, abs=1e-9)
        assert d_ab == pytest.approx(wasserstein_1d(b, a), abs=1e-9)


class TestWasserstein1DGeneral:
    def test_different_supports(self):
        d = wasserstein_1d_general(
            np.array([0.0]), np.array([1.0]), np.array([3.0]), np.array([1.0]), p=1.0
        )
        assert d == pytest.approx(3.0)

    def test_matches_shared_support_version(self):
        rng = np.random.default_rng(2)
        positions = np.sort(rng.random(8))
        a = rng.dirichlet(np.ones(8))
        b = rng.dirichlet(np.ones(8))
        general = wasserstein_1d_general(positions, a, positions, b, p=1.0)
        shared = wasserstein_1d(a, b, positions=positions, p=1.0)
        assert general == pytest.approx(shared, abs=1e-9)


class TestWassersteinExact:
    def test_identical_distributions(self):
        weights = np.array([0.3, 0.7])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert wasserstein_exact(weights, weights, cost) == pytest.approx(0.0, abs=1e-9)

    def test_transport_cost_simple(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        cost = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert wasserstein_exact(a, b, cost) == pytest.approx(3.0)

    def test_partial_transport(self):
        a = np.array([0.5, 0.5])
        b = np.array([1.0, 0.0])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert wasserstein_exact(a, b, cost) == pytest.approx(0.5)

    def test_wrong_cost_shape_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_exact(np.array([1.0]), np.array([0.5, 0.5]), np.zeros((2, 2)))

    def test_matches_1d_closed_form(self):
        """On a line, the LP solution equals the quantile-coupling closed form."""
        rng = np.random.default_rng(3)
        positions = np.arange(6, dtype=float)
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(6))
        cost = np.abs(positions[:, None] - positions[None, :])
        lp = wasserstein_exact(a, b, cost)
        closed = wasserstein_1d(a, b, positions=positions, p=1.0)
        assert lp == pytest.approx(closed, abs=1e-8)


class TestWasserstein2Grid:
    def test_identical_grids(self, clustered_distribution):
        assert wasserstein2_grid(clustered_distribution, clustered_distribution) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_corner_to_corner(self, unit_grid5):
        a = np.zeros((5, 5))
        a[0, 0] = 1.0
        b = np.zeros((5, 5))
        b[4, 4] = 1.0
        dist_a = GridDistribution(unit_grid5, a)
        dist_b = GridDistribution(unit_grid5, b)
        expected = np.hypot(0.8, 0.8)  # centre-to-centre distance
        assert wasserstein2_grid(dist_a, dist_b) == pytest.approx(expected, rel=1e-6)

    def test_symmetry(self, clustered_distribution, uniform_distribution):
        ab = wasserstein2_grid(clustered_distribution, uniform_distribution)
        ba = wasserstein2_grid(uniform_distribution, clustered_distribution)
        assert ab == pytest.approx(ba, rel=1e-6)

    def test_triangle_inequality(self, unit_grid5, rng):
        dists = [
            GridDistribution(unit_grid5, rng.dirichlet(np.ones(25)).reshape(5, 5))
            for _ in range(3)
        ]
        d01 = wasserstein2_grid(dists[0], dists[1])
        d12 = wasserstein2_grid(dists[1], dists[2])
        d02 = wasserstein2_grid(dists[0], dists[2])
        assert d02 <= d01 + d12 + 1e-9

    def test_w1_cost(self, clustered_distribution, uniform_distribution):
        w1 = wasserstein2_grid(clustered_distribution, uniform_distribution, p=1.0)
        w2 = wasserstein2_grid(clustered_distribution, uniform_distribution, p=2.0)
        assert w1 <= w2 + 1e-9

    def test_incompatible_grids_rejected(self, clustered_distribution):
        other = GridDistribution.uniform(GridSpec.unit(4))
        with pytest.raises(ValueError):
            wasserstein2_grid(clustered_distribution, other)

    def test_different_bounds_rejected(self):
        unit = GridDistribution.uniform(GridSpec.unit(5))
        wide = GridDistribution.uniform(GridSpec(SpatialDomain(0.0, 100.0, 0.0, 100.0), 5))
        for pair in ((unit, wide), (wide, unit)):
            with pytest.raises(ValueError, match="same domain"):
                wasserstein2_grid(*pair)
            with pytest.raises(ValueError, match="same domain"):
                wasserstein2_auto(*pair)

    def test_bounded_by_diameter(self, clustered_distribution, uniform_distribution):
        """W2 on the unit square can never exceed its diameter sqrt(2)."""
        assert wasserstein2_grid(clustered_distribution, uniform_distribution) <= np.sqrt(2)


class TestWasserstein2Auto:
    def test_small_grid_matches_exact(self, clustered_distribution, uniform_distribution):
        auto = wasserstein2_auto(clustered_distribution, uniform_distribution)
        exact = wasserstein2_grid(clustered_distribution, uniform_distribution)
        assert auto == pytest.approx(exact, rel=1e-9)

    def test_large_grid_uses_sinkhorn(self, rng):
        grid = GridSpec.unit(15)
        a = GridDistribution(grid, rng.dirichlet(np.ones(225)).reshape(15, 15))
        b = GridDistribution(grid, rng.dirichlet(np.ones(225)).reshape(15, 15))
        value = wasserstein2_auto(a, b, exact_cell_limit=100)
        assert value > 0

    def test_sinkhorn_close_to_exact_on_boundary_size(self, rng):
        """Where both solvers are feasible, the Sinkhorn value tracks the exact one."""
        grid = GridSpec.unit(6)
        a = GridDistribution(grid, rng.dirichlet(np.ones(36) * 2).reshape(6, 6))
        b = GridDistribution(grid, rng.dirichlet(np.ones(36) * 2).reshape(6, 6))
        exact = wasserstein2_grid(a, b)
        approx = wasserstein2_auto(a, b, exact_cell_limit=1, sinkhorn_reg=0.005)
        assert approx == pytest.approx(exact, rel=0.25)
