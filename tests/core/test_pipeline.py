"""Algorithm 1 end to end: the result of ``ParallelPipeline`` and the one-call API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.domain import SpatialDomain
from repro.core.parallel import ParallelPipeline, estimate_spatial_distribution
from repro.metrics.wasserstein import wasserstein2_grid


@pytest.fixture
def city_points(rng) -> np.ndarray:
    """A synthetic 'city': two hot spots inside a lon/lat-like box."""
    downtown = rng.normal([-87.65, 41.85], [0.01, 0.01], size=(3000, 2))
    suburb = rng.normal([-87.60, 41.75], [0.02, 0.015], size=(1500, 2))
    return np.vstack([downtown, suburb])


@pytest.fixture
def city_domain() -> SpatialDomain:
    return SpatialDomain(-87.70, -87.55, 41.70, 41.90, name="test-city")


class TestDAMPipeline:
    """The paper's DAM processing framework, run by its one pipeline."""

    def test_run_returns_complete_result(self, city_points, city_domain):
        pipeline = ParallelPipeline(city_domain, d=6, epsilon=3.5)
        result = pipeline.run(city_points, seed=0)
        assert result.estimate.flat().sum() == pytest.approx(1.0)
        assert result.true_distribution.flat().sum() == pytest.approx(1.0)
        # Points outside the analysis domain are dropped before reporting.
        assert result.n_users == city_points.shape[0] - result.info["dropped_points"]
        assert result.n_users > 0.9 * city_points.shape[0]
        assert result.mechanism == "DAM"
        assert result.b_hat >= 1
        assert result.info["epsilon"] == 3.5

    def test_points_outside_domain_dropped(self, city_domain):
        points = np.array([[-87.6, 41.8], [0.0, 0.0]])
        pipeline = ParallelPipeline(city_domain, d=4, epsilon=2.0)
        result = pipeline.run(points, seed=0)
        assert result.n_users == 1
        assert result.info["dropped_points"] == 1

    @pytest.mark.parametrize("mechanism", ["dam", "dam-ns", "huem"])
    def test_all_mechanism_choices(self, city_points, city_domain, mechanism):
        pipeline = ParallelPipeline(city_domain, d=5, epsilon=3.5, mechanism=mechanism)
        result = pipeline.run(city_points[:2000], seed=1)
        assert result.estimate.flat().sum() == pytest.approx(1.0)

    def test_unknown_mechanism_rejected(self, city_domain):
        with pytest.raises(ValueError):
            ParallelPipeline(city_domain, d=5, epsilon=2.0, mechanism="geo")

    def test_b_hat_override(self, city_domain):
        pipeline = ParallelPipeline(city_domain, d=8, epsilon=3.5, b_hat=3)
        assert pipeline.b_hat == 3
        assert pipeline.mechanism.b_hat == 3

    def test_estimate_tracks_truth_for_large_budget(self, city_points, city_domain):
        pipeline = ParallelPipeline(city_domain, d=5, epsilon=8.0)
        result = pipeline.run(city_points, seed=2)
        w2 = wasserstein2_grid(result.true_distribution, result.estimate)
        # Coordinates span ~0.15 degrees; the recovered map should be close on that scale.
        assert w2 < 0.02

    def test_invalid_points_shape_rejected(self, city_domain):
        pipeline = ParallelPipeline(city_domain, d=4, epsilon=2.0)
        with pytest.raises(ValueError):
            pipeline.run(np.zeros((5, 3)), seed=0)

    def test_deterministic_given_seed(self, city_points, city_domain):
        pipeline = ParallelPipeline(city_domain, d=5, epsilon=3.5)
        a = pipeline.run(city_points, seed=42)
        b = pipeline.run(city_points, seed=42)
        np.testing.assert_allclose(a.estimate.flat(), b.estimate.flat())


class TestEstimateSpatialDistribution:
    def test_quickstart_call(self, rng):
        points = np.clip(rng.normal(0.5, 0.1, size=(4000, 2)), 0, 1)
        result = estimate_spatial_distribution(points, epsilon=3.0, d=6, seed=0)
        assert result.estimate.probabilities.shape == (6, 6)

    def test_domain_defaults_to_bounding_box(self, rng):
        points = rng.uniform([10, 20], [11, 22], size=(1000, 2))
        result = estimate_spatial_distribution(points, epsilon=2.0, d=4, seed=0)
        assert result.n_users == 1000

    def test_explicit_domain_used(self, rng):
        points = rng.random((500, 2))
        domain = SpatialDomain(0, 2, 0, 2)
        result = estimate_spatial_distribution(points, epsilon=2.0, d=4, domain=domain, seed=0)
        # All points lie in the lower-left quadrant of the explicit domain.
        assert result.true_distribution.probabilities[2:, :].sum() == pytest.approx(0.0)

    def test_mechanism_selection(self, rng):
        points = rng.random((500, 2))
        result = estimate_spatial_distribution(points, epsilon=2.0, d=4, mechanism="huem", seed=0)
        assert result.mechanism == "HUEM"

    def test_mt19937_generator_rejected(self, rng):
        points = rng.random((500, 2))
        mt = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="PCG64"):
            estimate_spatial_distribution(points, epsilon=2.0, d=4, seed=mt)
