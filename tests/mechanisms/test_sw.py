"""Tests for repro.mechanisms.sw — the Square Wave mechanism and its discrete oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mechanisms.sw import (
    DiscreteSquareWave,
    SquareWaveMechanism,
    square_wave_probabilities,
    square_wave_radius,
)


class TestSquareWaveClosedForms:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_radius_positive_and_below_half(self, eps):
        b = square_wave_radius(eps)
        assert 0 < b

    def test_radius_matches_li_et_al_formula(self):
        eps = 2.0
        e = math.exp(eps)
        expected = (eps * e - e + 1) / (2 * e * (e - 1 - eps))
        assert square_wave_radius(eps) == pytest.approx(expected)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_probabilities_ratio(self, eps):
        _, p, q = square_wave_probabilities(eps)
        assert p / q == pytest.approx(math.exp(eps))

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_total_mass_one(self, eps):
        b, p, q = square_wave_probabilities(eps)
        assert 2 * b * p + 1 * q == pytest.approx(1.0)

    def test_radius_decreases_with_epsilon(self):
        values = [square_wave_radius(e) for e in (0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestContinuousSquareWave:
    def test_reports_in_output_interval(self):
        sw = SquareWaveMechanism(2.0)
        rng = np.random.default_rng(0)
        reports = sw.privatize(rng.random(2000), seed=rng)
        assert reports.min() >= -sw.b - 1e-9
        assert reports.max() <= 1 + sw.b + 1e-9

    def test_high_band_mass(self):
        sw = SquareWaveMechanism(3.0)
        rng = np.random.default_rng(1)
        value = 0.5
        reports = sw.privatize(np.full(30_000, value), seed=rng)
        in_band = np.abs(reports - value) <= sw.b
        assert abs(in_band.mean() - 2 * sw.b * sw.p) < 0.01

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValueError):
            SquareWaveMechanism(1.0).privatize(np.array([1.5]))

    def test_boundary_inputs_accepted(self):
        sw = SquareWaveMechanism(1.0)
        reports = sw.privatize(np.array([0.0, 1.0]), seed=0)
        assert reports.shape == (2,)


class TestDiscreteSquareWave:
    @pytest.mark.parametrize("eps", [0.7, 1.4, 3.5])
    def test_ldp_ratio_bounded(self, eps):
        sw = DiscreteSquareWave(10, eps)
        assert sw.ldp_ratio() <= math.exp(eps) * (1 + 1e-6)

    def test_transition_rows_sum_to_one(self):
        sw = DiscreteSquareWave(8, 2.0)
        np.testing.assert_allclose(sw.transition.sum(axis=1), 1.0)

    def test_output_domain_wider_than_input(self):
        sw = DiscreteSquareWave(10, 1.0)
        assert sw.d_out > sw.d

    def test_reports_in_output_domain(self):
        sw = DiscreteSquareWave(10, 2.0)
        rng = np.random.default_rng(0)
        reports = sw.privatize(rng.integers(0, 10, 500), seed=rng)
        assert reports.min() >= 0 and reports.max() < sw.d_out

    def test_estimation_recovers_skewed_distribution(self):
        sw = DiscreteSquareWave(8, 4.0)
        rng = np.random.default_rng(1)
        truth = np.array([0.4, 0.25, 0.15, 0.1, 0.05, 0.03, 0.01, 0.01])
        buckets = rng.choice(8, size=30_000, p=truth)
        reports = sw.privatize(buckets, seed=rng)
        estimate = sw.estimate(reports, 30_000)
        assert np.abs(estimate - truth).max() < 0.05

    def test_estimation_is_distribution(self):
        sw = DiscreteSquareWave(6, 1.0)
        rng = np.random.default_rng(2)
        reports = sw.privatize(rng.integers(0, 6, 300), seed=rng)
        estimate = sw.estimate(reports, 300)
        assert estimate.sum() == pytest.approx(1.0)
        assert np.all(estimate >= 0)

    def test_invalid_bucket_rejected(self):
        sw = DiscreteSquareWave(5, 1.0)
        with pytest.raises(ValueError):
            sw.privatize(np.array([5]))

    @given(st.integers(min_value=2, max_value=20), st.sampled_from([0.7, 1.4, 2.8, 5.0]))
    @settings(max_examples=20, deadline=None)
    def test_ldp_property(self, d, eps):
        """Property: the bucketised SW transition is always e^eps-bounded."""
        sw = DiscreteSquareWave(d, eps)
        assert sw.ldp_ratio() <= math.exp(eps) * (1 + 1e-6)
