"""Tests for repro.experiments.figures — per-figure entry points (smoke-sized runs)."""

from __future__ import annotations

import pytest

from repro.experiments.config import laptop_trajectory_config, smoke_config
from repro.experiments.figures import (
    figure8_radius_sweep,
    figure9_small_d,
    figure13_full_domain,
    figure14_trajectory,
    table3_dataset_statistics,
)


@pytest.fixture(scope="module")
def tiny_config():
    # Two datasets and one repeat keep these structural tests fast.
    return smoke_config().with_overrides(datasets=("SZipf", "Normal"), default_d=4)


class TestTable3:
    def test_rows_cover_both_datasets(self):
        rows = table3_dataset_statistics(smoke_config())
        assert len(rows) == 6
        assert {row.dataset for row in rows} == {"Crime", "NYC"}

    def test_paper_counts_recorded(self):
        rows = table3_dataset_statistics(smoke_config())
        assert sum(row.paper_points for row in rows if row.dataset == "Crime") == 459_215


class TestFigure8:
    def test_sweep_covers_all_b_scales(self, tiny_config):
        result = figure8_radius_sweep(tiny_config)
        values = sorted({p.parameter_value for p in result.points})
        assert values == [0.33, 0.67, 1.0, 1.33, 1.67]

    def test_only_dam_is_swept(self, tiny_config):
        result = figure8_radius_sweep(tiny_config)
        assert result.mechanisms() == ["DAM"]


class TestFigure9:
    def test_small_d_includes_all_mechanisms(self, tiny_config):
        config = tiny_config.with_overrides(datasets=("SZipf",))
        result = figure9_small_d(config)
        assert set(result.mechanisms()) == {"SEM-Geo-I", "MDSW", "HUEM", "DAM-NS", "DAM"}
        assert sorted({p.parameter_value for p in result.points}) == [1, 2, 3, 4, 5]


class TestFigure13:
    def test_full_domain_uses_crime_only(self):
        config = smoke_config().with_overrides(default_d=3)
        results = figure13_full_domain(config)
        assert set(results) == {"small_d", "large_d", "small_epsilon", "large_epsilon"}
        assert results["small_d"].datasets() == ["Crime"]


class TestFigure14:
    def test_trajectory_sweep_structure(self):
        config = laptop_trajectory_config().with_overrides(
            n_trajectories=20,
            max_length=12,
            routing_d=20,
            default_d=4,
            n_repeats=1,
            dataset_scale=0.01,
        )
        results = figure14_trajectory(config, sweep="epsilon")
        assert set(results) == {"epsilon"}
        sweep = results["epsilon"]
        for mechanism in ("LDPTrace", "PivotTrace", "DAM"):
            series = sweep.series("NYC-trajectories", mechanism)
            assert [x for x, _ in series] == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_invalid_sweep_rejected(self):
        with pytest.raises(ValueError):
            figure14_trajectory(laptop_trajectory_config(), sweep="both-ways")
