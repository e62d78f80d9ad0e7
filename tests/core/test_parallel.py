"""Tests for repro.core.parallel — the sharded execution engine.

The headline property is *bit*-equality: a sharded run must not merely be
statistically equivalent to one serial pass (``pipeline.mechanism.run`` over the
in-domain points), it must produce the identical floating-point estimate for every
worker count and shard size.  Everything here asserts exact array equality, never
approximate closeness.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec, SpatialDomain
from repro.core.estimator import ShardAggregate
from repro.core.parallel import ParallelPipeline, run_sharded
from repro.utils.rng import (
    generator_from_state,
    generator_state,
    spawn_seed_sequences,
    supports_stream_splitting,
)


@pytest.fixture(scope="module")
def domain() -> SpatialDomain:
    return SpatialDomain.unit("parallel")


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    rng = np.random.default_rng(99)
    cluster = rng.normal([0.4, 0.55], 0.1, size=(6000, 2))
    background = rng.random((3000, 2))
    return np.clip(np.vstack([cluster, background]), 0.0, 1.0)


def _serial(pipeline: ParallelPipeline, points: np.ndarray, seed):
    """The oracle: one ``mechanism.run`` pass over the in-domain points."""
    inside = points[pipeline.domain.contains(points)]
    report = pipeline.mechanism.run(inside, seed=seed)
    return SimpleNamespace(
        estimate=report.estimate,
        noisy_counts=report.noisy_counts,
        true_distribution=pipeline.grid.distribution(inside),
        n_users=report.n_users,
    )


def _identical(a, b) -> bool:
    return (
        np.array_equal(a.estimate.probabilities, b.estimate.probabilities)
        and np.array_equal(a.noisy_counts, b.noisy_counts)
        and np.array_equal(a.true_distribution.probabilities, b.true_distribution.probabilities)
        and a.n_users == b.n_users
    )


class TestRngHelpers:
    def test_spawn_seed_sequences_match_spawn_rngs(self):
        from repro.utils.rng import spawn_rngs

        rngs = spawn_rngs(5, 3)
        children = spawn_seed_sequences(5, 3)
        for rng, child in zip(rngs, children):
            assert rng.random(4).tolist() == np.random.default_rng(child).random(4).tolist()

    def test_spawn_seed_sequences_rejects_non_positive(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, 0)

    def test_generator_state_roundtrip_with_advance(self):
        serial = np.random.default_rng(13)
        expected = serial.random(10)
        state = generator_state(np.random.default_rng(13))
        head = generator_from_state(state).random(6)
        tail = generator_from_state(state, advance_by=6).random(4)
        assert np.array_equal(expected, np.concatenate([head, tail]))

    def test_supports_stream_splitting(self):
        assert supports_stream_splitting(np.random.default_rng(0))
        mt = np.random.Generator(np.random.MT19937(0))
        assert not supports_stream_splitting(mt)

    def test_advance_on_mt19937_rejected(self):
        state = generator_state(np.random.Generator(np.random.MT19937(0)))
        with pytest.raises(ValueError, match="advance"):
            generator_from_state(state, advance_by=3)


class TestMerge:
    """Shard states fold with ``ShardAggregate.merged``, the one count algebra."""

    def _aggregators(self, domain):
        grid = GridSpec(domain, 4)
        mechanism = DiscreteDAM(grid, 2.0)
        return (
            mechanism,
            mechanism.streaming_aggregator(seed=1),
            mechanism.streaming_aggregator(seed=2),
        )

    def test_merge_equals_sequential_ingestion(self, domain, points):
        grid = GridSpec(domain, 4)
        mechanism = DiscreteDAM(grid, 2.0)
        shard_a, shard_b = points[:4000], points[4000:]

        sequential = mechanism.streaming_aggregator(seed=0)
        sequential.add_points(shard_a)
        state_after_a = generator_state(sequential._rng)
        sequential.add_points(shard_b)

        left = mechanism.streaming_aggregator(seed=0)
        left.add_points(shard_a)
        right = mechanism.streaming_aggregator(seed=generator_from_state(state_after_a))
        right.add_points(shard_b)
        merged = left.state().merged(right.state())

        assert np.array_equal(merged.noisy_counts, sequential.noisy_counts)
        assert np.array_equal(merged.true_cell_counts, sequential.true_cell_counts)
        assert merged.n_users == sequential.n_users

    def test_merge_accepts_shard_aggregate(self, domain, points):
        mechanism, a, b = self._aggregators(domain)
        a.add_points(points[:100])
        b.add_points(points[100:300])
        snapshot = b.state()
        assert isinstance(snapshot, ShardAggregate)
        before = a.state()
        merged = before.merged(snapshot)
        assert merged.n_users == 300
        # Functional: both operands keep their own counts.
        assert before.n_users == 100 and snapshot.n_users == 200

    def test_state_is_a_snapshot(self, domain, points):
        _, a, _ = self._aggregators(domain)
        a.add_points(points[:100])
        snapshot = a.state()
        a.add_points(points[100:200])
        assert snapshot.n_users == 100
        assert a.n_users == 200

    def test_merge_rejects_mismatched_output_domain(self, domain, points):
        grid = GridSpec(domain, 4)
        a = DiscreteDAM(grid, 2.0, b_hat=1).streaming_aggregator()
        b = DiscreteDAM(grid, 2.0, b_hat=2).streaming_aggregator()
        b.add_points(points[:10])
        with pytest.raises(ValueError, match="output domains"):
            a.state().merged(b.state())

    def test_merge_rejects_mismatched_grid(self, domain, points):
        a = DiscreteDAM(GridSpec(domain, 4), 2.0, b_hat=1).streaming_aggregator()
        b = DiscreteDAM(GridSpec(domain, 5), 2.0, b_hat=1).streaming_aggregator()
        with pytest.raises(ValueError):
            a.state().merged(b.state())

    def test_merge_rejects_wrong_type(self, domain):
        _, a, _ = self._aggregators(domain)
        with pytest.raises(TypeError):
            a.state().merged({"noisy_counts": [1.0]})


class TestStreamModeBitEquality:
    def test_matches_batch_run(self, domain, points):
        pipeline = ParallelPipeline(domain, 8, 2.0, workers=2, shard_size=2500)
        parallel = pipeline.run(points, seed=7)
        assert _identical(_serial(pipeline, points, seed=7), parallel)
        assert parallel.info["parallel"] is True
        assert parallel.info["n_shards"] == 4

    def test_matches_run_stream(self, domain, points):
        chunks = np.array_split(points, 5)
        pipeline = ParallelPipeline(domain, 8, 2.0, workers=2)
        parallel = pipeline.run_stream(chunks, seed=11)
        assert _identical(_serial(pipeline, points, seed=11), parallel)
        inline = ParallelPipeline(domain, 8, 2.0).run_stream(iter(chunks), seed=11)
        assert _identical(inline, parallel)

    def test_invariant_to_shard_size(self, domain, points):
        fine = ParallelPipeline(domain, 6, 2.0, workers=1, shard_size=137).run(points, seed=3)
        coarse = ParallelPipeline(domain, 6, 2.0, workers=1, shard_size=5000).run(points, seed=3)
        assert _identical(fine, coarse)

    # The ids name the transition path: every mechanism runs on the disk operator.
    @pytest.mark.parametrize(
        "mechanism", ["dam", "dam-ns", "huem"], ids=lambda name: f"operator-{name}"
    )
    def test_all_mechanisms_and_backends(self, domain, points, mechanism):
        pipeline = ParallelPipeline(domain, 6, 2.0, mechanism=mechanism, shard_size=800)
        parallel = pipeline.run(points[:3000], seed=5)
        assert _identical(_serial(pipeline, points[:3000], seed=5), parallel)

    def test_leaves_caller_generator_in_serial_state(self, domain, points):
        serial_rng = np.random.default_rng(21)
        parallel_rng = np.random.default_rng(21)
        pipeline = ParallelPipeline(domain, 6, 2.0, workers=1, shard_size=1000)
        _serial(pipeline, points, seed=serial_rng)
        pipeline.run(points, seed=parallel_rng)
        assert np.array_equal(serial_rng.random(8), parallel_rng.random(8))

    def test_drops_points_outside_domain_like_serial(self, domain, points):
        shifted = points.copy()
        shifted[::10] += 5.0  # push every tenth point outside the unit square
        pipeline = ParallelPipeline(domain, 6, 2.0, workers=1, shard_size=999)
        parallel = pipeline.run(shifted, seed=2)
        assert _identical(_serial(pipeline, shifted, seed=2), parallel)
        assert parallel.info["dropped_points"] == int((~domain.contains(shifted)).sum())

    def test_mt19937_seed_rejected(self, domain, points):
        pipeline = ParallelPipeline(domain, 6, 2.0, workers=1)
        mt = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="advance") as error:
            pipeline.run(points, seed=mt)
        assert "PCG64" in str(error.value) and "spawn" not in str(error.value)

    @given(
        n_points=st.integers(min_value=1, max_value=400),
        shard_size=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_bit_equal_to_serial(self, n_points, shard_size, seed):
        domain = SpatialDomain.unit()
        pts = np.random.default_rng(seed).random((n_points, 2))
        pipeline = ParallelPipeline(domain, 5, 2.0, workers=1, shard_size=shard_size)
        parallel = pipeline.run(pts, seed=seed)
        assert _identical(_serial(pipeline, pts, seed=seed), parallel)


class TestValidation:
    def test_bad_workers(self, domain):
        with pytest.raises(ValueError):
            ParallelPipeline(domain, 5, 2.0, workers=0)

    def test_bad_shard_size(self, domain):
        with pytest.raises(ValueError):
            ParallelPipeline(domain, 5, 2.0, shard_size=0)

    def test_bad_point_shape(self, domain):
        with pytest.raises(ValueError):
            ParallelPipeline(domain, 5, 2.0, workers=1).run(np.zeros((10, 3)), seed=0)

    def test_no_points_inside(self, domain):
        with pytest.raises(ValueError, match="no points inside"):
            ParallelPipeline(domain, 5, 2.0, workers=1).run(np.full((10, 2), 7.0), seed=0)

    def test_default_workers_positive(self, domain):
        assert ParallelPipeline(domain, 5, 2.0).workers == 1


class TestStreamingMemory:
    """A one-worker stream folds each chunk before pulling the next."""

    CHUNK = 20_000
    N_CHUNKS = 40

    def _chunks(self):
        rng = np.random.default_rng(3)
        for _ in range(self.N_CHUNKS):
            yield rng.random((self.CHUNK, 2))

    def test_one_worker_stream_peaks_under_ten_chunks(self, domain):
        pipeline = ParallelPipeline(domain, 8, 2.0)
        pipeline.run(np.random.default_rng(0).random((100, 2)), seed=0)  # warm lazy caches
        chunk_bytes = self.CHUNK * 2 * np.dtype(float).itemsize
        seed = np.random.default_rng(21)
        tracemalloc.start()
        try:
            streamed = pipeline.run_stream(self._chunks(), seed=seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert streamed.n_users == self.CHUNK * self.N_CHUNKS
        assert peak < 10 * chunk_bytes, f"peak {peak / chunk_bytes:.1f} chunks' bytes"

        serial_seed = np.random.default_rng(21)
        serial = _serial(pipeline, np.vstack(list(self._chunks())), seed=serial_seed)
        assert _identical(serial, streamed)
        assert np.array_equal(seed.random(8), serial_seed.random(8))


class TestMultiprocessEquality:
    """One real multi-process run (the rest use the inline path for speed)."""

    def test_pool_matches_inline_stream(self, domain, points):
        inline = ParallelPipeline(domain, 6, 2.0, workers=1, shard_size=1500).run(points, seed=17)
        pooled = ParallelPipeline(domain, 6, 2.0, workers=4, shard_size=1500).run(points, seed=17)
        assert _identical(inline, pooled)


# Module-level so the spec pickles into pool workers (run_sharded's protocol).
class _SquaringContext:
    def run_shard(self, task):
        return task * task


class _SquaringSpec:
    def build(self):
        return _SquaringContext()


class TestRunSharded:
    """The generic spec/context fan-out protocol shared with the trajectory engine."""

    def test_inline_and_pooled_agree(self):
        tasks = list(range(7))
        inline = run_sharded(_SquaringSpec(), tasks, workers=1)
        pooled = run_sharded(_SquaringSpec(), tasks, workers=3)
        assert inline == pooled == [t * t for t in tasks]

    def test_inline_context_reused(self):
        class Counting(_SquaringContext):
            built = 0

        class CountingSpec:
            def build(self):
                Counting.built += 1
                return Counting()

        context = Counting()
        assert run_sharded(CountingSpec(), [2, 3], workers=1, inline_context=context) == [4, 9]
        assert Counting.built == 0  # never rebuilt on the inline path

    def test_empty_tasks(self):
        assert run_sharded(_SquaringSpec(), [], workers=4) == []
