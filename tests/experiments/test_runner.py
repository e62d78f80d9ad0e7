"""Tests for repro.experiments.runner — mechanism factory and the sweep machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec, SpatialDomain
from repro.datasets.loader import load_dataset
from repro.experiments.config import smoke_config
from repro.experiments.runner import (
    MECHANISM_NAMES,
    build_mechanism,
    calibrated_sem_epsilon,
    evaluate_on_dataset,
    evaluate_on_part,
    evaluate_range_queries_on_part,
    evaluate_stream_on_part,
    evaluate_trajectories_on_part,
    sweep_parameter,
)
from repro.mechanisms.sem_geo_i import SEMGeoI
from repro.metrics.local_privacy import local_privacy_of_mechanism


@pytest.fixture(scope="module")
def grid5() -> GridSpec:
    return GridSpec.unit(5)


class TestBuildMechanism:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_all_names_construct(self, grid5, name):
        mech = build_mechanism(name, grid5, 2.0, calibrate_sem=False)
        assert mech.grid is grid5

    def test_dam_ns_flag(self, grid5):
        mech = build_mechanism("DAM-NS", grid5, 2.0)
        assert isinstance(mech, DiscreteDAM)
        assert mech.use_shrinkage is False

    def test_b_hat_override(self, grid5):
        assert build_mechanism("DAM", grid5, 2.0, b_hat=2).b_hat == 2

    def test_sem_calibration_changes_epsilon(self, grid5):
        calibrated = build_mechanism("SEM-Geo-I", grid5, 3.5, calibrate_sem=True)
        raw = build_mechanism("SEM-Geo-I", grid5, 3.5, calibrate_sem=False)
        assert isinstance(calibrated, SEMGeoI)
        assert calibrated.epsilon != pytest.approx(raw.epsilon)

    def test_unknown_name_rejected(self, grid5):
        with pytest.raises(ValueError):
            build_mechanism("PrivTree", grid5, 1.0)


class TestCalibration:
    def test_calibrated_epsilon_matches_dam_lp(self, grid5):
        eps = 2.8
        sem_eps = calibrated_sem_epsilon(grid5, eps)
        dam_lp = local_privacy_of_mechanism(DiscreteDAM(grid5, eps))
        sem_lp = local_privacy_of_mechanism(SEMGeoI(grid5, sem_eps))
        assert sem_lp == pytest.approx(dam_lp, rel=0.02)

    def test_cached(self, grid5):
        assert calibrated_sem_epsilon(grid5, 2.0) == calibrated_sem_epsilon(grid5, 2.0)

    def test_single_cell_grid_passthrough(self):
        grid = GridSpec.unit(1)
        assert calibrated_sem_epsilon(grid, 2.0) == 2.0


class TestEvaluate:
    def test_evaluate_on_part_returns_error(self, rng):
        points = rng.random((2000, 2))
        domain = SpatialDomain.unit()
        error = evaluate_on_part("DAM", points, domain, d=5, epsilon=3.5, seed=0)
        assert 0 <= error <= np.sqrt(2)

    def test_normalisation_makes_scales_comparable(self, rng):
        """The same relative point pattern on a 100x bigger domain gives the same W2."""
        unit_points = rng.random((2000, 2))
        big_domain = SpatialDomain(0, 100, 0, 100)
        big_points = unit_points * 100
        a = evaluate_on_part("DAM", unit_points, SpatialDomain.unit(), 5, 3.5, seed=1)
        b = evaluate_on_part("DAM", big_points, big_domain, 5, 3.5, seed=1)
        assert a == pytest.approx(b, rel=1e-9)

    def test_max_users_cap(self, rng):
        points = rng.random((5000, 2))
        error = evaluate_on_part("DAM", points, SpatialDomain.unit(), 5, 3.5, seed=2, max_users=500)
        assert error >= 0

    def test_evaluate_on_dataset_averages_parts(self):
        config = smoke_config()
        dataset = load_dataset("NYC", scale=config.dataset_scale, seed=0)
        mean, std = evaluate_on_dataset("DAM", dataset, 4, 3.5, config, seed=1)
        assert mean > 0
        assert std >= 0


class TestSweep:
    def test_d_sweep_structure(self):
        config = smoke_config()
        result = sweep_parameter(
            "test-sweep", "d", (2, 4), ("DAM", "MDSW"), config, datasets=("SZipf",)
        )
        assert result.datasets() == ["SZipf"]
        assert set(result.mechanisms()) == {"DAM", "MDSW"}
        assert len(result.points) == 4
        series = result.series("SZipf", "DAM")
        assert [x for x, _ in series] == [2.0, 4.0]

    def test_epsilon_sweep_uses_default_d(self):
        config = smoke_config()
        result = sweep_parameter(
            "eps-sweep", "epsilon", (3.5,), ("DAM",), config, datasets=("SZipf",)
        )
        assert result.points[0].details["d"] == config.default_d

    def test_b_scale_sweep_sets_b_hat(self):
        config = smoke_config().with_overrides(default_d=8)
        result = sweep_parameter(
            "b-sweep", "b_scale", (1.0, 1.67), ("DAM",), config, datasets=("SZipf",)
        )
        b_values = [p.details["b_hat"] for p in result.points]
        assert all(b >= 1 for b in b_values)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter("bad", "gamma", (1,), ("DAM",), smoke_config())

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter(
                "bad-metric",
                "d",
                (2,),
                ("DAM",),
                smoke_config(),
                datasets=("SZipf",),
                metric="chi",
            )


class TestRangeQuerySweep:
    def test_part_evaluation_returns_small_error(self, rng):
        pts = np.clip(rng.normal([0.4, 0.4], 0.1, size=(3000, 2)), 0, 1)
        mae = evaluate_range_queries_on_part(
            "DAM", pts, SpatialDomain.unit(), 6, 5.0, seed=0, n_queries=32
        )
        assert 0.0 <= mae < 0.1

    def test_sweep_structure_and_metric_tag(self):
        config = smoke_config()
        result = sweep_parameter(
            "rq-sweep",
            "epsilon",
            (1.4, 3.5),
            ("DAM", "MDSW"),
            config,
            datasets=("SZipf",),
            metric="range-mae",
        )
        assert len(result.points) == 4
        for point in result.points:
            assert point.details["metric"] == "range-mae"
            assert 0.0 <= point.w2_mean < 0.5
        assert set(result.mechanisms()) == {"DAM", "MDSW"}

    def test_range_sweep_deterministic_and_distinct_from_w2(self):
        config = smoke_config()
        kwargs = dict(datasets=("SZipf",),)
        rq = dict(kwargs, metric="range-mae")
        first = sweep_parameter("rq", "epsilon", (3.5,), ("DAM",), config, **rq)
        second = sweep_parameter("rq", "epsilon", (3.5,), ("DAM",), config, **rq)
        w2 = sweep_parameter("w2", "epsilon", (3.5,), ("DAM",), config, **kwargs)
        assert first.points[0].w2_mean == second.points[0].w2_mean
        assert first.points[0].w2_mean != w2.points[0].w2_mean


class TestTrajectorySweep:
    def test_part_evaluation_returns_bounded_error(self, rng):
        pts = np.clip(rng.normal([0.5, 0.5], 0.12, size=(4000, 2)), 0, 1)
        for mechanism in ("LDPTrace", "PivotTrace", "DAM"):
            w2 = evaluate_trajectories_on_part(
                mechanism,
                pts,
                SpatialDomain.unit(),
                5,
                2.0,
                seed=0,
                routing_d=30,
                n_trajectories=40,
                max_length=15,
            )
            # Normalised-domain W2 is bounded by the unit-square diagonal.
            assert 0.0 <= w2 <= np.sqrt(2)

    def test_sweep_structure_and_metric_tag(self):
        config = smoke_config()
        result = sweep_parameter(
            "traj-sweep",
            "epsilon",
            (1.0, 2.0),
            ("LDPTrace", "DAM"),
            config,
            datasets=("SZipf",),
            metric="trajectory-w2",
        )
        assert len(result.points) == 4
        for point in result.points:
            assert point.details["metric"] == "trajectory-w2"
            assert 0.0 <= point.w2_mean <= np.sqrt(2)
        assert set(result.mechanisms()) == {"LDPTrace", "DAM"}

    def test_trajectory_sweep_deterministic_and_cached(self, tmp_path):
        config = smoke_config().with_overrides(cache_dir=str(tmp_path))
        kwargs = dict(datasets=("SZipf",), metric="trajectory-w2")
        first = sweep_parameter("traj", "d", (4,), ("PivotTrace",), config, **kwargs)
        second = sweep_parameter("traj", "d", (4,), ("PivotTrace",), config, **kwargs)
        assert first.points[0].w2_mean == second.points[0].w2_mean


class TestStreamSweep:
    def test_part_evaluation_returns_bounded_error(self, rng):
        pts = np.clip(rng.normal([0.5, 0.5], 0.12, size=(4000, 2)), 0, 1)
        mae = evaluate_stream_on_part(
            "DAM",
            pts,
            SpatialDomain.unit(),
            6,
            2.5,
            seed=0,
            n_epochs=4,
            users_per_epoch=400,
            window_epochs=2,
        )
        # Per-cell MAE of two distributions is bounded by 2 / n_cells.
        assert 0.0 <= mae <= 2.0 / 36

    def test_part_evaluation_is_deterministic(self, rng):
        pts = np.clip(rng.normal([0.5, 0.5], 0.12, size=(3000, 2)), 0, 1)
        kwargs = dict(seed=7, n_epochs=3, users_per_epoch=300, window_epochs=2)
        first = evaluate_stream_on_part("HUEM", pts, SpatialDomain.unit(), 5, 2.0, **kwargs)
        second = evaluate_stream_on_part("HUEM", pts, SpatialDomain.unit(), 5, 2.0, **kwargs)
        assert first == second

    def test_rejects_mechanisms_without_transition(self, rng):
        pts = rng.random((500, 2))
        with pytest.raises(TypeError, match="transition-matrix"):
            evaluate_stream_on_part(
                "MDSW",
                pts,
                SpatialDomain.unit(),
                5,
                2.0,
                seed=0,
                n_epochs=2,
                users_per_epoch=100,
            )

    def test_sweep_structure_and_metric_tag(self):
        config = smoke_config()
        result = sweep_parameter(
            "stream-sweep",
            "epsilon",
            (2.0, 3.5),
            ("DAM",),
            config,
            datasets=("SZipf",),
            metric="stream-mae",
        )
        assert len(result.points) == 2
        for point in result.points:
            assert point.details["metric"] == "stream-mae"
            assert 0.0 <= point.w2_mean <= 2.0 / config.default_d**2

    def test_stream_sweep_cached(self, tmp_path):
        config = smoke_config().with_overrides(cache_dir=str(tmp_path))
        kwargs = dict(datasets=("SZipf",), metric="stream-mae")
        first = sweep_parameter("stream", "d", (4,), ("DAM",), config, **kwargs)
        second = sweep_parameter("stream", "d", (4,), ("DAM",), config, **kwargs)
        assert first.points[0].w2_mean == second.points[0].w2_mean
