"""Cross-cutting property-based tests (hypothesis) on the library's core invariants.

Module-specific property tests live next to their modules; this file holds the
invariants that span several components:

* every mechanism's transition matrix is row-stochastic and e^eps-bounded,
* every exported mechanism passes the empirical privacy audit within its claim,
* estimation always returns a valid probability distribution,
* the Wasserstein metrics satisfy the metric axioms on random inputs,
* the disk geometry is consistent between its closed forms and the enumeration.

All generators come from the shared strategy library (``tests/strategies.py``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import strategies
from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec
from repro.core.geometry import disk_high_low_areas, enumerate_disk_cells, pure_low_cell_count
from repro.core.huem import DiscreteHUEM
from repro.core.radius import grid_radius, optimal_radius
from repro.mechanisms.cfo import BucketCFOMechanism
from repro.mechanisms.geo_i import DiscreteGeoIMechanism
from repro.mechanisms.hdg import HDG
from repro.mechanisms.mdsw import MDSW
from repro.mechanisms.sem_geo_i import SEMGeoI
from repro.metrics.privacy_audit import audit_mechanism, audit_pairwise_privacy
from repro.metrics.sliced import sliced_wasserstein
from repro.metrics.wasserstein import wasserstein2_grid

SLOW_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

epsilon_strategy = strategies.epsilons()
small_grid_strategy = strategies.grid_sides(2, 7)


class TestMechanismInvariants:
    @given(small_grid_strategy, epsilon_strategy, strategies.b_hats())
    @SLOW_SETTINGS
    def test_dam_transition_invariants(self, d, epsilon, b_hat):
        mech = DiscreteDAM(GridSpec.unit(d), epsilon, b_hat=b_hat)
        matrix = mech.transition
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        assert matrix.min() > 0
        assert mech.ldp_ratio() <= math.exp(epsilon) * (1 + 1e-9)

    @given(small_grid_strategy, epsilon_strategy)
    @SLOW_SETTINGS
    def test_huem_transition_invariants(self, d, epsilon):
        mech = DiscreteHUEM(GridSpec.unit(d), epsilon, b_hat=1)
        np.testing.assert_allclose(mech.transition.sum(axis=1), 1.0, atol=1e-9)
        assert mech.ldp_ratio() <= math.exp(epsilon) * (1 + 1e-9)

    @given(small_grid_strategy, epsilon_strategy, strategies.b_hats())
    @SLOW_SETTINGS
    def test_dam_ns_audit_bounded(self, d, epsilon, b_hat):
        mech = DiscreteDAM(GridSpec.unit(d), epsilon, b_hat=b_hat, use_shrinkage=False)
        assert mech.ldp_ratio() <= math.exp(epsilon) * (1 + 1e-9)

    @given(small_grid_strategy, epsilon_strategy, strategies.b_hats())
    @SLOW_SETTINGS
    def test_operator_audit_matches_dense_audit(self, d, epsilon, b_hat):
        """The structured audit and the dense audit must agree on the same mechanism."""
        grid = GridSpec.unit(d)
        via_operator = DiscreteDAM(grid, epsilon, b_hat=b_hat)
        via_dense = DiscreteDAM(grid, epsilon, b_hat=b_hat)
        via_dense._set_transition(via_dense.operator.to_dense())
        assert via_operator.ldp_ratio() == pytest.approx(via_dense.ldp_ratio(), rel=1e-12)

    @given(small_grid_strategy, epsilon_strategy, strategies.seeds())
    @SLOW_SETTINGS
    def test_estimation_always_returns_distribution(self, d, epsilon, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec.unit(d)
        points = rng.random((200, 2))
        for mechanism in (DiscreteDAM(grid, epsilon, b_hat=1), MDSW(grid, epsilon)):
            estimate = mechanism.run(points, seed=rng).estimate
            assert estimate.flat().sum() == pytest.approx(1.0)
            assert np.all(estimate.flat() >= 0)

    @given(small_grid_strategy, epsilon_strategy)
    @SLOW_SETTINGS
    def test_sem_inclusion_invariants(self, d, epsilon):
        mech = SEMGeoI(GridSpec.unit(d), epsilon)
        inclusion = mech.inclusion_probabilities
        assert np.all(inclusion > 0)
        assert np.all(inclusion <= 1 + 1e-12)
        np.testing.assert_allclose(inclusion.sum(axis=1), mech.subset_size, rtol=1e-9)


class TestMetricAxioms:
    @given(
        st.integers(min_value=2, max_value=6),
        strategies.seeds(),
    )
    @SLOW_SETTINGS
    def test_wasserstein_metric_axioms(self, d, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec.unit(d)
        a = GridDistribution(grid, rng.dirichlet(np.ones(d * d)).reshape(d, d))
        b = GridDistribution(grid, rng.dirichlet(np.ones(d * d)).reshape(d, d))
        d_ab = wasserstein2_grid(a, b)
        assert d_ab >= 0
        assert wasserstein2_grid(a, a) == pytest.approx(0.0, abs=1e-6)
        assert d_ab == pytest.approx(wasserstein2_grid(b, a), rel=1e-6, abs=1e-9)
        assert d_ab <= math.sqrt(2.0) + 1e-9

    @given(
        st.integers(min_value=2, max_value=6),
        strategies.seeds(),
    )
    @SLOW_SETTINGS
    def test_sliced_wasserstein_lower_bounds_wasserstein(self, d, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec.unit(d)
        a = GridDistribution(grid, rng.dirichlet(np.ones(d * d)).reshape(d, d))
        b = GridDistribution(grid, rng.dirichlet(np.ones(d * d)).reshape(d, d))
        sw = sliced_wasserstein(a, b, p=2.0, n_projections=48)
        w2 = wasserstein2_grid(a, b)
        assert sw <= w2 + 1e-6


class TestGeometryInvariants:
    @given(st.integers(min_value=1, max_value=20))
    @SLOW_SETTINGS
    def test_disk_area_between_inscribed_and_circumscribed(self, b_hat):
        count = len(enumerate_disk_cells(b_hat))
        assert math.pi * b_hat**2 <= count + 4 * b_hat + 4
        assert count <= math.pi * (b_hat + 1.5) ** 2

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=10))
    @SLOW_SETTINGS
    def test_theorem_vi2_nonnegative_and_monotone(self, b_hat, d):
        value = pure_low_cell_count(d, b_hat)
        assert value >= 0
        assert pure_low_cell_count(d + 1, b_hat) > value

    @given(st.integers(min_value=1, max_value=20))
    @SLOW_SETTINGS
    def test_shrinkage_bounded_by_cell_count(self, b_hat):
        s_high, low_in_disk = disk_high_low_areas(b_hat)
        assert 0 < s_high <= len(enumerate_disk_cells(b_hat))
        assert low_in_disk >= 0


class TestMechanismPrivacyAudit:
    """Every exported mechanism must pass the empirical audit within its claim.

    The audit (``metrics/privacy_audit``) estimates realised log-probability ratios
    from repeated runs.  Strict epsilon-LDP mechanisms are checked against ``e^eps``
    via :func:`audit_mechanism`; the Geo-I family claims a *distance-scaled* bound
    ``e^{eps * d(a, b)}`` (cell units), so it is audited pairwise against exactly
    that claim.  This property caught a real leak: HDG's generic report stream used
    to return the true coarse cell.
    """

    AUDIT_SETTINGS = settings(
        max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )

    @staticmethod
    def _ldp_mechanisms(grid: GridSpec, epsilon: float):
        return [
            DiscreteDAM(grid, epsilon, b_hat=1),
            DiscreteDAM(grid, epsilon, b_hat=1, use_shrinkage=False),
            DiscreteHUEM(grid, epsilon, b_hat=1),
            MDSW(grid, epsilon),
            BucketCFOMechanism(grid, epsilon, oracle="grr"),
            BucketCFOMechanism(grid, epsilon, oracle="oue"),
            BucketCFOMechanism(grid, epsilon, oracle="olh"),
            HDG(grid, epsilon),
        ]

    @given(strategies.grid_sides(2, 5), epsilon_strategy, strategies.seeds())
    @AUDIT_SETTINGS
    def test_ldp_mechanisms_within_claimed_epsilon(self, d, epsilon, seed):
        grid = GridSpec.unit(d)
        for mechanism in self._ldp_mechanisms(grid, epsilon):
            # The audit maximises over outputs, so keep a few hundred trials per
            # output — too few inflates the max beyond what the per-output
            # confidence bound compensates (see audit_mechanism's docstring).
            # confidence_z=4: the violation check runs max-over-outputs across two
            # pairs, eight mechanisms and many hypothesis examples, so a z=3
            # per-output bound false-flags correct mechanisms every few thousand
            # draws (observed on Bucket+GRR); z=4 absorbs that multiplicity while
            # a real leak (an unbounded ratio) still trips instantly.
            n_trials = max(5_000, 300 * mechanism.output_domain_size())
            results = audit_mechanism(
                mechanism, n_pairs=2, n_trials=n_trials, confidence_z=4.0, seed=seed
            )
            assert not any(result.violated for result in results), (
                f"{mechanism.name} exceeded its claimed epsilon={epsilon}: "
                f"{max(r.epsilon_lower_confidence for r in results):.3f}"
            )

    @given(strategies.grid_sides(2, 5), st.sampled_from([0.7, 1.4, 2.1]), strategies.seeds())
    @AUDIT_SETTINGS
    def test_geo_i_family_within_distance_scaled_claim(self, d, epsilon, seed):
        grid = GridSpec.unit(d)
        cell_a, cell_b = 0, grid.n_cells - 1  # far corners: the worst claimed pair
        for mechanism in (DiscreteGeoIMechanism(grid, epsilon), SEMGeoI(grid, epsilon)):
            distance = float(mechanism.cell_distances[cell_a, cell_b])
            result = audit_pairwise_privacy(mechanism, cell_a, cell_b, n_trials=5_000, seed=seed)
            assert result.epsilon_lower_confidence <= epsilon * distance * (1 + 1e-9), (
                f"{mechanism.name} exceeded its Geo-I claim eps*d = "
                f"{epsilon * distance:.3f}: {result.epsilon_lower_confidence:.3f}"
            )


class TestRadiusInvariants:
    @given(st.floats(min_value=0.3, max_value=9.0), st.integers(min_value=1, max_value=30))
    @SLOW_SETTINGS
    def test_grid_radius_consistent_with_continuous(self, epsilon, d):
        b_star = optimal_radius(epsilon)
        b_hat = grid_radius(epsilon, d, 1.0)
        assert b_hat >= 1
        assert b_hat <= max(math.floor(b_star * d), 1)
