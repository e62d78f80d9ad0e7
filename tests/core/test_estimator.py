"""Tests for repro.core.estimator — the SpatialMechanism protocol plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec
from repro.core.estimator import SpatialMechanism, TransitionMatrixMechanism


class IdentityMechanism(TransitionMatrixMechanism):
    """A trivial mechanism that reports the true cell — useful for protocol tests."""

    name = "Identity"

    def __init__(self, grid: GridSpec) -> None:
        super().__init__(grid, epsilon=1.0)
        self._set_transition(np.eye(grid.n_cells))

    def estimate(self, noisy_counts: np.ndarray, n_users: int) -> GridDistribution:
        counts = np.asarray(noisy_counts, dtype=float)
        if counts.sum() == 0:
            return GridDistribution.uniform(self.grid)
        return GridDistribution.from_flat(self.grid, counts / counts.sum())


@pytest.fixture
def identity(unit_grid5) -> IdentityMechanism:
    return IdentityMechanism(unit_grid5)


class TestProtocol:
    def test_run_round_trip(self, identity, clustered_points, unit_grid5):
        report = identity.run(clustered_points, seed=0)
        true = unit_grid5.distribution(clustered_points)
        np.testing.assert_allclose(report.estimate.flat(), true.flat(), atol=1e-12)

    def test_run_cells(self, identity):
        cells = np.array([0, 0, 1, 24])
        report = identity.run_cells(cells, seed=0)
        assert report.n_users == 4
        assert report.noisy_counts[0] == 2

    def test_aggregate_counts(self, identity):
        counts = identity.aggregate(np.array([0, 0, 3]))
        assert counts[0] == 2 and counts[3] == 1

    def test_aggregate_rejects_out_of_range(self, identity):
        with pytest.raises(ValueError):
            identity.aggregate(np.array([identity.output_domain_size()]))

    def test_privatize_points_buckets_first(self, identity, unit_grid5):
        points = np.array([[0.05, 0.05], [0.95, 0.95]])
        reports = identity.privatize_cells(unit_grid5.point_to_cell(points), seed=0)
        np.testing.assert_array_equal(reports, [0, 24])

    def test_repr_contains_name(self, identity):
        assert "IdentityMechanism" in repr(identity)

    def test_abstract_class_cannot_instantiate(self, unit_grid5):
        with pytest.raises(TypeError):
            SpatialMechanism(unit_grid5, 1.0)  # type: ignore[abstract]


class TestTransitionMatrixMechanism:
    def test_transition_not_built_raises(self, unit_grid5):
        class Incomplete(TransitionMatrixMechanism):
            def estimate(self, noisy_counts, n_users):  # pragma: no cover
                raise NotImplementedError

        mech = Incomplete(unit_grid5, 1.0)
        with pytest.raises(RuntimeError):
            _ = mech.transition

    def test_set_transition_validates_rows(self, unit_grid5):
        class Broken(TransitionMatrixMechanism):
            def __init__(self, grid):
                super().__init__(grid, 1.0)
                bad = np.full((grid.n_cells, 4), 0.3)
                self._set_transition(bad)

            def estimate(self, noisy_counts, n_users):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError):
            Broken(unit_grid5)

    def test_set_transition_validates_row_count(self, unit_grid5):
        class WrongRows(TransitionMatrixMechanism):
            def __init__(self, grid):
                super().__init__(grid, 1.0)
                self._set_transition(np.eye(grid.n_cells - 1))

            def estimate(self, noisy_counts, n_users):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError):
            WrongRows(unit_grid5)

    def test_privatize_rejects_out_of_range_cell(self, identity):
        with pytest.raises(ValueError):
            identity.privatize_cells(np.array([-1]), seed=0)

    def test_ldp_ratio_identity_is_infinite(self, identity):
        # The identity "mechanism" offers no privacy at all.
        assert identity.ldp_ratio() == float("inf")

    def test_ldp_ratio_of_dam_finite(self, unit_grid5):
        assert np.isfinite(DiscreteDAM(unit_grid5, 2.0).ldp_ratio())

    def test_ldp_ratio_mixed_zero_positive_column_is_infinite(self):
        """Regression: a column with a zero in one row and a positive entry in another
        is an infinite probability ratio — a hard ε-LDP violation.  The audit used to
        drop every column containing any zero and report a finite (even compliant!)
        ratio for such mechanisms."""

        class Leaky(TransitionMatrixMechanism):
            name = "Leaky"

            def __init__(self, grid: GridSpec) -> None:
                super().__init__(grid, epsilon=1.0)
                matrix = np.zeros((grid.n_cells, 3))
                # Every row keeps 0.5 on output 0; output 1 is reachable only from
                # cell 0 and output 2 only from the other cells.
                matrix[:, 0] = 0.5
                matrix[0, 1] = 0.5
                matrix[1:, 2] = 0.5
                self._set_transition(matrix)

            def estimate(self, noisy_counts, n_users):  # pragma: no cover
                raise NotImplementedError

        assert Leaky(GridSpec.unit(2)).ldp_ratio() == float("inf")

    def test_ldp_ratio_all_zero_column_ignored(self):
        """A column that is zero in every row carries no information and must not
        poison the audit with a 0/0."""

        class Padded(TransitionMatrixMechanism):
            name = "Padded"

            def __init__(self, grid: GridSpec) -> None:
                super().__init__(grid, epsilon=1.0)
                matrix = np.zeros((grid.n_cells, grid.n_cells + 1))
                matrix[:, :-1] = np.full((grid.n_cells, grid.n_cells), 1.0 / grid.n_cells)
                self._set_transition(matrix)

            def estimate(self, noisy_counts, n_users):  # pragma: no cover
                raise NotImplementedError

        assert Padded(GridSpec.unit(2)).ldp_ratio() == pytest.approx(1.0)

    def test_set_transition_clears_installed_operator(self, unit_grid5):
        """Installing a dense matrix after an operator must fully switch backends,
        otherwise sampling would keep using the stale operator while EM uses the
        new matrix."""
        mech = DiscreteDAM(unit_grid5, 2.0, b_hat=1)
        assert mech.operator is not None
        mech._set_transition(np.eye(unit_grid5.n_cells))
        assert mech.operator is None
        reports = mech.privatize_cells(np.array([0, 7, 24]), seed=0)
        np.testing.assert_array_equal(reports, [0, 7, 24])

    def test_grouped_sampling_matches_per_user(self, unit_grid5):
        """Sampling users grouped by cell must be distributionally identical to the row."""
        mech = DiscreteDAM(unit_grid5, 5.0, b_hat=1)
        cells = np.array([3] * 2000 + [17] * 2000)
        reports = mech.privatize_cells(cells, seed=0)
        assert reports.shape == (4000,)
        # Reports for the two groups must differ in distribution (different rows).
        first = np.bincount(reports[:2000], minlength=mech.output_domain_size())
        second = np.bincount(reports[2000:], minlength=mech.output_domain_size())
        assert np.argmax(first) != np.argmax(second)
