"""Tests for repro.experiments.cache and the runner's parallel/cached execution."""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.config import smoke_config
from repro.experiments.runner import _cell_cache_key, plan_sweep, sweep_parameter
from repro.metrics import wasserstein


class TestCacheKey:
    def test_stable(self):
        payload = {"a": 1, "b": [1.5, None], "c": "x"}
        assert cache_key(payload) == cache_key(dict(reversed(payload.items())))

    def test_distinct_for_different_payloads(self):
        assert cache_key({"a": 1}) != cache_key({"a": 2})
        assert cache_key({"a": 1}) != cache_key({"b": 1})

    def test_float_int_distinction_is_canonical(self):
        # Equal floats digest equally regardless of construction.
        assert cache_key({"eps": 0.1 + 0.2}) == cache_key({"eps": 0.30000000000000004})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"q": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": 3.5})
        assert cache.get(key) == {"value": 3.5}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_disabled_cache_always_misses(self):
        cache = ResultCache(None)
        assert not cache.enabled
        cache.put("abcd", {"value": 1})
        assert cache.get("abcd") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"q": 2})
        cache.put(key, {"value": 1})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_persists_across_instances(self, tmp_path):
        key = cache_key({"q": 3})
        ResultCache(tmp_path).put(key, {"value": 9})
        assert ResultCache(tmp_path).get(key) == {"value": 9}


@pytest.fixture(scope="module")
def tiny_config():
    return smoke_config().with_overrides(datasets=("SZipf",))


class TestSweepExecution:
    def test_plan_matches_serial_order(self, tiny_config):
        cells = plan_sweep("d", (2, 3), ("DAM", "MDSW"), tiny_config, datasets=("SZipf",))
        assert [(c.parameter_value, c.mechanism) for c in cells] == [
            (2.0, "DAM"),
            (2.0, "MDSW"),
            (3.0, "DAM"),
            (3.0, "MDSW"),
        ]
        assert all(c.dataset == "SZipf" for c in cells)

    def test_parallel_sweep_matches_serial(self, tiny_config):
        serial = sweep_parameter("s", "d", (2, 3), ("DAM",), tiny_config, datasets=("SZipf",))
        parallel = sweep_parameter(
            "s", "d", (2, 3), ("DAM",), tiny_config, datasets=("SZipf",), workers=2
        )
        assert serial.points == parallel.points
        assert [p.w2_mean for p in serial.points] == [p.w2_mean for p in parallel.points]

    def test_warm_rerun_is_identical_and_all_hits(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        cold = sweep_parameter(
            "s",
            "d",
            (2, 3),
            ("DAM", "MDSW"),
            tiny_config,
            datasets=("SZipf",),
            cache=cache,
        )
        assert cache.misses == 4 and cache.hits == 0
        warm = sweep_parameter(
            "s",
            "d",
            (2, 3),
            ("DAM", "MDSW"),
            tiny_config,
            datasets=("SZipf",),
            cache=cache,
        )
        assert cache.hits == 4
        assert warm.points == cold.points
        assert [p.w2_mean for p in warm.points] == [p.w2_mean for p in cold.points]
        assert [p.details for p in warm.points] == [p.details for p in cold.points]

    def test_cache_shared_between_worker_counts(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        cold = sweep_parameter(
            "s",
            "d",
            (2,),
            ("DAM",),
            tiny_config,
            datasets=("SZipf",),
            cache=cache,
            workers=2,
        )
        warm = sweep_parameter(
            "s",
            "d",
            (2,),
            ("DAM",),
            tiny_config,
            datasets=("SZipf",),
            cache=cache,
            workers=1,
        )
        assert cache.hits == 1
        assert warm.points == cold.points

    def test_exact_w2_limit_changes_the_key(self, tiny_config, monkeypatch):
        """A cell scored under one exact-W2 limit is never served under another."""
        (cell,) = plan_sweep("d", (13,), ("DAM",), tiny_config, datasets=("SZipf",))
        before = _cell_cache_key(cell, tiny_config)
        monkeypatch.setattr(wasserstein, "EXACT_CELL_LIMIT", 400)
        assert _cell_cache_key(cell, tiny_config) != before

    def test_config_change_invalidates(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        sweep_parameter("s", "d", (2,), ("DAM",), tiny_config, datasets=("SZipf",), cache=cache)
        bumped = tiny_config.with_overrides(seed=tiny_config.seed + 1)
        sweep_parameter("s", "d", (2,), ("DAM",), bumped, datasets=("SZipf",), cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_sweep_resumes_from_completed_cells(
        self, tiny_config, tmp_path, workers
    ):
        """Cells cached before a failure must survive it (incremental resume)."""
        cache = ResultCache(tmp_path / str(workers))
        with pytest.raises(ValueError):
            sweep_parameter(
                "s",
                "d",
                (2,),
                ("DAM", "NoSuchMechanism"),
                tiny_config,
                datasets=("SZipf",),
                cache=cache,
                workers=workers,
            )
        resumed = ResultCache(tmp_path / str(workers))
        result = sweep_parameter(
            "s",
            "d",
            (2,),
            ("DAM",),
            tiny_config,
            datasets=("SZipf",),
            cache=resumed,
            workers=workers,
        )
        assert resumed.hits == 1 and resumed.misses == 0
        assert result.points[0].mechanism == "DAM"

    def test_config_cache_dir_enables_cache(self, tiny_config, tmp_path):
        config = tiny_config.with_overrides(cache_dir=str(tmp_path))
        sweep_parameter("s", "d", (2,), ("DAM",), config, datasets=("SZipf",))
        assert any(tmp_path.rglob("*.json"))
