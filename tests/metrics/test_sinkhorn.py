"""Tests for repro.metrics.sinkhorn — entropic optimal transport."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strategies
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.metrics.sinkhorn import (
    _separable_sinkhorn,
    sinkhorn_distance,
    sinkhorn_plan,
    sinkhorn_wasserstein,
)
from repro.metrics.wasserstein import wasserstein2_grid, wasserstein_exact
from repro.utils.histogram import pairwise_cell_distances


def _dense_sinkhorn(dist_a, dist_b, *, p=2.0, reg=0.01):
    """The log-domain solve over the dense ``d^2 x d^2`` cost, scaled by its maximum."""
    cost = pairwise_cell_distances(dist_a.grid.d, dist_a.grid.domain.bounds) ** p
    scale = float(cost.max()) if cost.max() > 0 else 1.0
    _, result = sinkhorn_plan(dist_a.flat(), dist_b.flat(), cost, reg=reg * scale)
    return result


def _separable(dist_a, dist_b, *, reg=0.01):
    """The separable solve :func:`sinkhorn_wasserstein` runs at ``p = 2``."""
    return _separable_sinkhorn(dist_a, dist_b, reg=reg, max_iterations=2000)


def _zero_part(probabilities: np.ndarray, rng: np.random.Generator, keep: float) -> np.ndarray:
    """Zero all but about ``keep`` of the cells (at least one survives), renormalised."""
    flat = probabilities.reshape(-1).copy()
    kept = rng.random(flat.size) < keep
    kept[rng.integers(flat.size)] = True
    flat[~kept] = 0.0
    return (flat / flat.sum()).reshape(probabilities.shape)


@st.composite
def grid_pairs(draw, *, max_side: int = 12):
    """Two distributions on one offset rectangular grid, either side possibly zero-heavy."""
    dist_a = draw(strategies.grid_distributions(max_side=max_side))
    grid = dist_a.grid
    rng = np.random.default_rng(draw(strategies.seeds()))
    probabilities_a = dist_a.probabilities
    probabilities_b = rng.dirichlet(np.ones(grid.n_cells)).reshape(grid.d, grid.d)
    mask_a, mask_b = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
    if mask_a:
        probabilities_a = _zero_part(probabilities_a, rng, keep=0.3)
    if mask_b:
        probabilities_b = _zero_part(probabilities_b, rng, keep=0.3)
    return GridDistribution(grid, probabilities_a), GridDistribution(grid, probabilities_b)


@pytest.fixture
def simple_cost() -> np.ndarray:
    positions = np.arange(4, dtype=float)
    return np.abs(positions[:, None] - positions[None, :])


class TestSinkhornPlan:
    def test_plan_marginals(self, simple_cost):
        a = np.array([0.4, 0.3, 0.2, 0.1])
        b = np.array([0.1, 0.2, 0.3, 0.4])
        plan, result = sinkhorn_plan(a, b, simple_cost, reg=0.05)
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-5)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-5)
        assert result.cost >= 0

    def test_identical_distributions_near_zero_cost(self, simple_cost):
        a = np.array([0.25, 0.25, 0.25, 0.25])
        cost = sinkhorn_distance(a, a, simple_cost, reg=0.01)
        assert cost == pytest.approx(0.0, abs=0.02)

    def test_zero_mass_bins_handled(self, simple_cost):
        a = np.array([0.5, 0.0, 0.5, 0.0])
        b = np.array([0.0, 0.5, 0.0, 0.5])
        plan, _ = sinkhorn_plan(a, b, simple_cost, reg=0.05)
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-3)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-3)
        # Rows with zero mass stay exactly empty.
        assert plan[1].sum() == 0.0 and plan[3].sum() == 0.0

    def test_cost_approaches_exact_as_reg_shrinks(self, simple_cost):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        exact = wasserstein_exact(a, b, simple_cost)
        loose = sinkhorn_distance(a, b, simple_cost, reg=0.5)
        tight = sinkhorn_distance(a, b, simple_cost, reg=0.01)
        assert abs(tight - exact) <= abs(loose - exact) + 1e-9
        assert tight == pytest.approx(exact, abs=0.05)

    def test_wrong_cost_shape_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_plan(np.array([1.0]), np.array([0.5, 0.5]), np.zeros((2, 2)))

    def test_invalid_reg_rejected(self, simple_cost):
        a = np.array([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            sinkhorn_plan(a, a, simple_cost, reg=0.0)


class TestSinkhornWasserstein:
    def test_matches_exact_on_small_grid(self, rng):
        grid = GridSpec.unit(4)
        a = GridDistribution(grid, rng.dirichlet(np.ones(16) * 3).reshape(4, 4))
        b = GridDistribution(grid, rng.dirichlet(np.ones(16) * 3).reshape(4, 4))
        exact = wasserstein2_grid(a, b)
        approx = sinkhorn_wasserstein(a, b, reg=0.005)
        assert approx == pytest.approx(exact, rel=0.2, abs=0.02)

    def test_symmetric(self, clustered_distribution, uniform_distribution):
        ab = sinkhorn_wasserstein(clustered_distribution, uniform_distribution)
        ba = sinkhorn_wasserstein(uniform_distribution, clustered_distribution)
        assert ab == pytest.approx(ba, rel=1e-3)

    def test_corner_to_corner_distance(self, unit_grid5):
        a = np.zeros((5, 5))
        a[0, 0] = 1.0
        b = np.zeros((5, 5))
        b[4, 4] = 1.0
        value = sinkhorn_wasserstein(
            GridDistribution(unit_grid5, a), GridDistribution(unit_grid5, b), reg=0.01
        )
        assert value == pytest.approx(np.hypot(0.8, 0.8), rel=0.05)

    def test_incompatible_grids_rejected(self, clustered_distribution):
        other = GridDistribution.uniform(GridSpec.unit(4))
        with pytest.raises(ValueError):
            sinkhorn_wasserstein(clustered_distribution, other)

    def test_monotone_in_separation(self, unit_grid5):
        """Moving the target mass farther increases the Sinkhorn distance."""
        source = np.zeros((5, 5))
        source[0, 0] = 1.0
        near = np.zeros((5, 5))
        near[0, 1] = 1.0
        far = np.zeros((5, 5))
        far[0, 4] = 1.0
        src = GridDistribution(unit_grid5, source)
        assert sinkhorn_wasserstein(src, GridDistribution(unit_grid5, near)) < sinkhorn_wasserstein(
            src, GridDistribution(unit_grid5, far)
        )


class TestSeparablePath:
    """``p = 2`` runs in scaling form on ``Ky (x) Kx``; the log-domain loop is the oracle."""

    @given(grid_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_log_domain_oracle(self, pair):
        dist_a, dist_b = pair
        expected = _dense_sinkhorn(dist_a, dist_b).cost ** 0.5
        value = sinkhorn_wasserstein(dist_a, dist_b)
        assert abs(value - expected) <= 1e-12 * expected

    @pytest.mark.parametrize(
        ("d", "seed", "zero_heavy"),
        [(13, 0, False), (15, 1, False), (15, 2, True), (20, 3, False)],
    )
    def test_same_iterations_as_oracle(self, d, seed, zero_heavy):
        rng = np.random.default_rng(seed)
        grid = GridSpec.unit(d)
        probabilities_a = rng.dirichlet(np.ones(grid.n_cells)).reshape(d, d)
        probabilities_b = rng.dirichlet(np.ones(grid.n_cells)).reshape(d, d)
        if zero_heavy:
            probabilities_a = _zero_part(probabilities_a, rng, keep=0.1)
        dist_a = GridDistribution(grid, probabilities_a)
        dist_b = GridDistribution(grid, probabilities_b)
        oracle = _dense_sinkhorn(dist_a, dist_b)
        result = _separable(dist_a, dist_b)
        assert (result.iterations, result.converged) == (oracle.iterations, oracle.converged)
        assert result.marginal_error < 1e-9
        assert abs(result.cost - oracle.cost) <= 1e-12 * oracle.cost
        assert sinkhorn_wasserstein(dist_a, dist_b) == result.cost**0.5

    def test_offset_rectangle_same_iterations_as_oracle(self):
        rng = np.random.default_rng(4)
        grid = GridSpec(SpatialDomain(4.1e9, 4.1e9 + 300.0, 4.1e9 - 50.0, 4.1e9 + 50.0), 20)
        dist_a = GridDistribution(grid, rng.dirichlet(np.ones(400)).reshape(20, 20))
        dist_b = GridDistribution(grid, _zero_part(rng.dirichlet(np.ones(400)), rng, 0.2))
        oracle = _dense_sinkhorn(dist_a, dist_b)
        result = _separable(dist_a, dist_b)
        assert (result.iterations, result.converged) == (oracle.iterations, oracle.converged)
        assert abs(result.cost - oracle.cost) <= 1e-12 * oracle.cost

    def test_underflowing_kernel_falls_back_to_log_domain(self, unit_grid5):
        """At reg=0.001 the corner-to-corner entries are exp(-1000) = 0 in doubles."""
        a = np.zeros((5, 5))
        a[0, 0] = 1.0
        b = np.zeros((5, 5))
        b[4, 4] = 1.0
        dist_a = GridDistribution(unit_grid5, a)
        dist_b = GridDistribution(unit_grid5, b)
        assert _separable(dist_a, dist_b, reg=0.001) is None
        value = sinkhorn_wasserstein(dist_a, dist_b, reg=0.001)
        assert value == _dense_sinkhorn(dist_a, dist_b, reg=0.001).cost ** 0.5
        assert value == pytest.approx(np.sqrt(1.28), rel=1e-12)

    def test_p1_runs_the_log_domain_loop(self, clustered_distribution, uniform_distribution):
        value = sinkhorn_wasserstein(clustered_distribution, uniform_distribution, p=1.0)
        expected = _dense_sinkhorn(clustered_distribution, uniform_distribution, p=1.0).cost
        assert value == expected

    def test_single_cell_grid(self):
        grid = GridSpec.unit(1)
        dist = GridDistribution(grid, np.ones((1, 1)))
        assert sinkhorn_wasserstein(dist, dist) == 0.0
        result = _separable(dist, dist)
        assert (result.iterations, result.converged) == (10, True)


class TestDomainCheck:
    def test_different_bounds_rejected(self):
        unit = GridDistribution.uniform(GridSpec.unit(15))
        wide = GridDistribution.uniform(GridSpec(SpatialDomain(0.0, 100.0, 0.0, 100.0), 15))
        for pair in ((unit, wide), (wide, unit)):
            with pytest.raises(ValueError, match="same domain"):
                sinkhorn_wasserstein(*pair)
            with pytest.raises(ValueError, match="same domain"):
                sinkhorn_wasserstein(*pair, p=1.0)

    def test_domain_name_is_not_compared(self, rng):
        grid = GridSpec.unit(13)
        renamed = GridSpec(SpatialDomain.unit(name="renamed"), 13)
        probabilities = rng.dirichlet(np.ones(169)).reshape(13, 13)
        dist_a = GridDistribution(grid, probabilities)
        dist_b = GridDistribution(renamed, probabilities[::-1])
        assert sinkhorn_wasserstein(dist_a, dist_b) == sinkhorn_wasserstein(
            dist_a, GridDistribution(grid, probabilities[::-1])
        )
