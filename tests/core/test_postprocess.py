"""Tests for repro.core.postprocess — EM / EMS, least squares and simplex projection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strategies
from repro.core.postprocess import (
    expectation_maximization,
    make_grid_smoother,
    make_line_smoother,
    matrix_inversion_estimate,
    project_to_simplex,
)


def _noisy_counts(transition: np.ndarray, truth: np.ndarray, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    counts = np.zeros(transition.shape[1])
    cells = rng.choice(truth.size, size=n, p=truth)
    for cell in cells:
        counts[rng.choice(transition.shape[1], p=transition[cell])] += 1
    return counts


def _padded_grid_smoother(d: int, strength: float):
    """The 2-D smoother written with ``np.pad`` edge replication, as the reference."""
    kernel_1d = np.array([1.0, 2.0, 1.0]) / 4.0

    def smooth(theta: np.ndarray) -> np.ndarray:
        grid = np.asarray(theta, dtype=float).reshape(d, d)
        padded = np.pad(grid, 1, mode="edge")
        horizontal = (
            kernel_1d[0] * padded[1:-1, :-2]
            + kernel_1d[1] * padded[1:-1, 1:-1]
            + kernel_1d[2] * padded[1:-1, 2:]
        )
        padded_h = np.pad(horizontal, ((1, 1), (0, 0)), mode="edge")
        smoothed = (
            kernel_1d[0] * padded_h[:-2, :]
            + kernel_1d[1] * padded_h[1:-1, :]
            + kernel_1d[2] * padded_h[2:, :]
        )
        blended = (1.0 - strength) * grid + strength * smoothed
        return blended.reshape(-1)

    return smooth


def _padded_line_smoother(strength: float):
    """The 1-D smoother written with ``np.pad`` edge replication, as the reference."""
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0

    def smooth(theta: np.ndarray) -> np.ndarray:
        vec = np.asarray(theta, dtype=float).reshape(-1)
        padded = np.pad(vec, 1, mode="edge")
        smoothed = kernel[0] * padded[:-2] + kernel[1] * padded[1:-1] + kernel[2] * padded[2:]
        return (1.0 - strength) * vec + strength * smoothed

    return smooth


@pytest.fixture(scope="module")
def simple_transition() -> np.ndarray:
    """A 4-category randomised-response style transition (keep w.p. 0.7)."""
    k = 4
    matrix = np.full((k, k), 0.1)
    np.fill_diagonal(matrix, 0.7)
    return matrix


class TestExpectationMaximization:
    def test_estimate_is_distribution(self, simple_transition):
        counts = np.array([100.0, 50.0, 25.0, 25.0])
        result = expectation_maximization(simple_transition, counts)
        assert result.estimate.sum() == pytest.approx(1.0)
        assert np.all(result.estimate >= 0)

    def test_recovers_truth_with_many_samples(self, simple_transition):
        truth = np.array([0.5, 0.3, 0.15, 0.05])
        counts = _noisy_counts(simple_transition, truth, 60_000, seed=0)
        result = expectation_maximization(simple_transition, counts)
        np.testing.assert_allclose(result.estimate, truth, atol=0.02)

    def test_identity_transition_recovers_exactly(self):
        truth = np.array([0.25, 0.5, 0.25])
        counts = truth * 1000
        result = expectation_maximization(np.eye(3), counts)
        np.testing.assert_allclose(result.estimate, truth, atol=1e-6)

    def test_converged_flag(self, simple_transition):
        counts = np.array([10.0, 10.0, 10.0, 10.0])
        result = expectation_maximization(simple_transition, counts, max_iterations=500)
        assert result.converged

    def test_zero_counts_give_uniform(self, simple_transition):
        result = expectation_maximization(simple_transition, np.zeros(4))
        np.testing.assert_allclose(result.estimate, 0.25)

    def test_log_likelihood_never_decreases(self, simple_transition):
        """EM's defining property: the likelihood is monotone in the iteration count."""
        truth = np.array([0.6, 0.2, 0.1, 0.1])
        counts = _noisy_counts(simple_transition, truth, 5000, seed=1)
        previous = -np.inf
        for iterations in (1, 3, 10, 50):
            result = expectation_maximization(
                simple_transition, counts, max_iterations=iterations, tolerance=0.0
            )
            assert result.log_likelihood >= previous - 1e-9
            previous = result.log_likelihood

    def test_initial_distribution_respected(self, simple_transition):
        counts = np.array([5.0, 5.0, 5.0, 5.0])
        result = expectation_maximization(
            simple_transition, counts, max_iterations=0 + 1, initial=np.array([0.7, 0.1, 0.1, 0.1])
        )
        assert result.estimate.shape == (4,)

    def test_wrong_count_length_rejected(self, simple_transition):
        with pytest.raises(ValueError):
            expectation_maximization(simple_transition, np.zeros(5))

    def test_negative_counts_rejected(self, simple_transition):
        with pytest.raises(ValueError):
            expectation_maximization(simple_transition, np.array([1.0, -1.0, 0.0, 0.0]))

    def test_non_stochastic_transition_rejected(self):
        with pytest.raises(ValueError):
            expectation_maximization(np.array([[0.5, 0.4], [0.5, 0.5]]), np.zeros(2))

    def test_smoothing_callable_applied(self, simple_transition):
        counts = np.array([100.0, 0.0, 0.0, 0.0])
        smoother = make_line_smoother(4, strength=1.0)
        smoothed = expectation_maximization(simple_transition, counts, smoothing=smoother)
        plain = expectation_maximization(simple_transition, counts)
        # Smoothing spreads mass: the peak must be lower than without smoothing.
        assert smoothed.estimate.max() < plain.estimate.max()

    def test_rectangular_transition(self):
        """More outputs than inputs (the DAM case) is supported."""
        transition = np.array([[0.6, 0.2, 0.2, 0.0], [0.0, 0.2, 0.2, 0.6]])
        counts = np.array([30.0, 10.0, 10.0, 50.0])
        result = expectation_maximization(transition, counts)
        assert result.estimate.shape == (2,)
        assert result.estimate[1] > result.estimate[0]


class TestOverflowRescue:
    """Regression: M-step overflow when ``predicted`` hits the 1e-300 clip floor.

    A transition with an all-zero output column plus a huge count on that output
    drives ``counts / predicted`` to ``inf``; the backward matvec then produces
    ``0 * inf -> NaN`` and the normalisation spreads it over the whole estimate.
    The rescue rescales the numerator by its max (which cancels in the final
    normalisation) — and must be bit-preserving when the ratio stays finite.
    """

    def test_huge_count_on_zero_mass_output_stays_finite(self):
        # Column 1 carries zero mass under every input, so predicted[1] clips to
        # 1e-300; a 1e10 count there overflows the raw ratio to inf.
        transition = np.array([[1.0, 0.0], [1.0, 0.0]])
        counts = np.array([1.0, 1e10])
        result = expectation_maximization(transition, counts, max_iterations=5)
        assert np.isfinite(result.estimate).all()
        assert result.estimate.sum() == pytest.approx(1.0)
        assert np.isfinite(result.log_likelihood)

    def test_pathological_disk_operator_stays_finite(self):
        # The mechanism-shaped version: mass concentrated on outputs the current
        # estimate starves.  Zero counts everywhere except one output cell, at a
        # magnitude that overflows against the clip floor.
        from repro.core.dam import DiscreteDAM
        from repro.core.domain import GridSpec

        mech = DiscreteDAM(GridSpec.unit(4), 2.0, b_hat=1, postprocess="em")
        counts = np.zeros(mech.output_domain_size())
        counts[0] = 1e305
        result = expectation_maximization(
            mech._estimation_transition(), counts, max_iterations=10
        )
        assert np.isfinite(result.estimate).all()
        assert result.estimate.sum() == pytest.approx(1.0)

    def test_rescue_branch_is_bit_preserving_when_untaken(self, simple_transition):
        # Inline replication of the pre-fix loop: on well-conditioned inputs the
        # fixed implementation must produce bit-identical iterates.
        counts = np.array([120.0, 43.0, 9.0, 28.0])
        k = simple_transition.shape[0]
        theta = np.full(k, 1.0 / k)
        for _ in range(25):
            predicted = np.clip(theta @ simple_transition, 1e-300, None)
            new = theta * (simple_transition @ (counts / predicted))
            new = np.clip(new, 0.0, None)
            theta = new / new.sum()
        result = expectation_maximization(
            simple_transition, counts, max_iterations=25, tolerance=0.0
        )
        np.testing.assert_array_equal(result.estimate, theta)


class TestSmoothers:
    def test_grid_smoother_preserves_mass(self):
        smoother = make_grid_smoother(4)
        theta = np.random.default_rng(0).dirichlet(np.ones(16))
        smoothed = smoother(theta)
        assert smoothed.sum() == pytest.approx(1.0, abs=1e-9)

    def test_grid_smoother_reduces_peaks(self):
        smoother = make_grid_smoother(3, strength=1.0)
        theta = np.zeros(9)
        theta[4] = 1.0
        smoothed = smoother(theta)
        assert smoothed[4] < 1.0
        assert smoothed.sum() == pytest.approx(1.0)

    def test_grid_smoother_strength_zero_is_identity(self):
        smoother = make_grid_smoother(3, strength=0.0)
        theta = np.random.default_rng(1).dirichlet(np.ones(9))
        np.testing.assert_allclose(smoother(theta), theta)

    def test_grid_smoother_invalid_strength(self):
        with pytest.raises(ValueError):
            make_grid_smoother(3, strength=1.5)

    def test_line_smoother_preserves_mass(self):
        smoother = make_line_smoother(10)
        theta = np.random.default_rng(2).dirichlet(np.ones(10))
        assert smoother(theta).sum() == pytest.approx(1.0, abs=1e-9)

    def test_line_smoother_uniform_fixed_point(self):
        smoother = make_line_smoother(6, strength=1.0)
        uniform = np.full(6, 1.0 / 6)
        np.testing.assert_allclose(smoother(uniform), uniform)

    def test_line_smoother_wrong_length_rejected(self):
        smoother = make_line_smoother(5)
        with pytest.raises(ValueError):
            smoother(np.ones(4) / 4)

    @given(
        strategies.grid_sides(1, 24),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        strategies.seeds(),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_smoother_bit_identical_to_padded_reference(self, d, strength, seed):
        theta = np.random.default_rng(seed).dirichlet(np.ones(d * d))
        smoother = make_grid_smoother(d, strength=strength)
        expected = _padded_grid_smoother(d, strength)(theta)
        assert np.array_equal(smoother(theta), expected)
        # The streaming service reuses one smoother across epochs: no state carries over.
        assert np.array_equal(smoother(theta), expected)

    @given(
        strategies.grid_sides(1, 64),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        strategies.seeds(),
    )
    @settings(max_examples=60, deadline=None)
    def test_line_smoother_bit_identical_to_padded_reference(self, size, strength, seed):
        theta = np.random.default_rng(seed).dirichlet(np.ones(size))
        smoother = make_line_smoother(size, strength=strength)
        assert np.array_equal(smoother(theta), _padded_line_smoother(strength)(theta))


class TestMatrixInversion:
    def test_recovers_truth_without_noise(self, simple_transition):
        truth = np.array([0.4, 0.3, 0.2, 0.1])
        observed = truth @ simple_transition
        estimate = matrix_inversion_estimate(simple_transition, observed * 1000)
        np.testing.assert_allclose(estimate, truth, atol=1e-4)

    def test_estimate_is_distribution(self, simple_transition):
        counts = np.array([80.0, 10.0, 5.0, 5.0])
        estimate = matrix_inversion_estimate(simple_transition, counts)
        assert estimate.sum() == pytest.approx(1.0)
        assert np.all(estimate >= 0)

    def test_zero_counts_give_uniform(self, simple_transition):
        np.testing.assert_allclose(matrix_inversion_estimate(simple_transition, np.zeros(4)), 0.25)

    def test_wrong_length_rejected(self, simple_transition):
        with pytest.raises(ValueError):
            matrix_inversion_estimate(simple_transition, np.zeros(3))


class TestProjectToSimplex:
    def test_already_on_simplex_unchanged(self):
        vec = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(vec), vec, atol=1e-12)

    def test_projection_sums_to_one(self):
        vec = np.array([1.5, -0.3, 0.1])
        projected = project_to_simplex(vec)
        assert projected.sum() == pytest.approx(1.0)
        assert np.all(projected >= 0)

    def test_negative_vector(self):
        projected = project_to_simplex(np.array([-1.0, -2.0, -3.0]))
        assert projected.sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([]))

    @given(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=20)
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, values):
        """Property: the projection is always a valid distribution and is idempotent."""
        vec = np.array(values)
        projected = project_to_simplex(vec)
        assert projected.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(projected >= -1e-12)
        np.testing.assert_allclose(project_to_simplex(projected), projected, atol=1e-9)
