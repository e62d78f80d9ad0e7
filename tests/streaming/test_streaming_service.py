"""Service loop: warm-started re-solves, worker invariance, atomic serving swaps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec
from repro.core.parallel import ParallelPipeline
from repro.core.postprocess import expectation_maximization
from repro.datasets.synthetic import shifting_hotspot_stream
from repro.mechanisms.mdsw import MDSW
from repro.queries.engine import QueryEngine, QueryLog, StreamingQueryEngine, WorkloadReplay
from repro.streaming import StreamingEstimationService
from repro.streaming.service import WARM_FLOOR


@pytest.fixture(scope="module")
def stream():
    return shifting_hotspot_stream(n_epochs=6, users_per_epoch=600, seed=0)


class TestServiceLoop:
    def test_epoch_updates_track_the_stream(self, stream):
        service = StreamingEstimationService.build(stream.domain, 8, 3.0, window_epochs=3, seed=1)
        updates = [service.ingest_epoch(points) for points in stream.epochs]
        assert [update.epoch for update in updates] == list(range(6))
        assert all(update.n_users_epoch == 600 for update in updates)
        # The window saturates at 3 epochs' worth of users.
        assert updates[0].n_users_window == 600
        assert updates[-1].n_users_window == 1800
        assert service.epochs_processed == 6
        # Every update carries a solved, published estimate.
        for update in updates:
            assert update.estimate.probabilities.shape == (8, 8)
            assert update.iterations >= 1
            assert np.isfinite(update.log_likelihood)
        assert service.serving.epoch == 5

    def test_windowed_estimate_tracks_drift(self, stream):
        """Late in the stream, a small window beats the all-history estimate."""
        windowed = StreamingEstimationService.build(stream.domain, 8, 3.0, window_epochs=2, seed=1)
        unbounded = StreamingEstimationService.build(
            stream.domain, 8, 3.0, window_epochs=len(stream.epochs), seed=1
        )
        for points in stream.epochs:
            update_windowed = windowed.ingest_epoch(points)
            update_unbounded = unbounded.ingest_epoch(points)
        truth = windowed.window.true_distribution().flat()
        mae_windowed = np.abs(update_windowed.estimate.flat() - truth).mean()
        mae_unbounded = np.abs(update_unbounded.estimate.flat() - truth).mean()
        # The hotspot moved: the estimate over all six epochs is stale by design.
        assert mae_windowed < mae_unbounded

    def test_serial_and_pipeline_ingestion_are_bit_identical(self, stream):
        grid = GridSpec(stream.domain, 6)
        mechanism = DiscreteDAM(grid, 2.5, b_hat=1)
        serial = StreamingEstimationService(mechanism, window_epochs=2, seed=3)
        built = StreamingEstimationService.build(
            stream.domain, 6, 2.5, b_hat=1, window_epochs=2, seed=3
        )
        for points in stream.epochs[:3]:
            update_serial = serial.ingest_epoch(points)
            update_built = built.ingest_epoch(points)
            assert np.array_equal(
                update_serial.estimate.probabilities,
                update_built.estimate.probabilities,
            )
            assert update_serial.iterations == update_built.iterations

    def test_worker_count_does_not_change_estimates(self, stream):
        """The sharded pool path reproduces the serial session bit for bit."""
        results = []
        for workers in (1, 2):
            service = StreamingEstimationService.build(
                stream.domain,
                6,
                2.5,
                window_epochs=2,
                workers=workers,
                shard_size=200,
                seed=5,
            )
            results.append(
                [service.ingest_epoch(points) for points in stream.epochs[:3]]
            )
        for update_serial, update_pooled in zip(*results):
            assert np.array_equal(
                update_serial.estimate.probabilities,
                update_pooled.estimate.probabilities,
            )

    def test_solve_window_matches_direct_em(self, stream):
        service = StreamingEstimationService.build(stream.domain, 6, 2.5, window_epochs=2, seed=7)
        service.ingest_epoch(stream.epochs[0])
        noisy, _, _ = service.window.window_counts()
        direct = expectation_maximization(
            service.mechanism._estimation_transition(),
            noisy,
            max_iterations=service.max_iterations,
            tolerance=service.tolerance,
        )
        cold = service.solve_window()
        assert np.array_equal(cold.estimate, direct.estimate)
        assert cold.iterations == direct.iterations

    def test_warm_start_matches_cold_likelihood(self, stream):
        """Warm solves land on (at least) the cold solve's log-likelihood."""
        service = StreamingEstimationService.build(
            stream.domain,
            8,
            3.0,
            window_epochs=3,
            seed=9,
            tolerance=1e-4,
            max_iterations=2000,
        )
        for points in stream.epochs:
            update = service.ingest_epoch(points)
            cold = service.solve_window()
            per_user_gap = (
                update.log_likelihood - cold.log_likelihood
            ) / max(update.n_users_window, 1.0)
            assert per_user_gap > -1e-3

    def test_warm_initial_floors_the_posterior(self, stream):
        service = StreamingEstimationService.build(stream.domain, 8, 3.0, window_epochs=2, seed=11)
        assert service.warm_initial() is None  # nothing solved yet
        service.ingest_epoch(stream.epochs[0])
        initial = service.warm_initial()
        assert initial is not None
        # Floored, then renormalised (the floor adds at most WARM_FLOOR of mass).
        assert initial.min() >= WARM_FLOOR / (8 * 8) / (1.0 + WARM_FLOOR)
        assert initial.sum() == pytest.approx(1.0)

    def test_posterior_is_a_defensive_copy(self, stream):
        service = StreamingEstimationService.build(stream.domain, 6, 2.5, window_epochs=2, seed=15)
        assert service.posterior is None
        update = service.ingest_epoch(stream.epochs[0])
        posterior = service.posterior
        # GridDistribution re-normalises on construction, so the published flat
        # vector may differ from the raw EM posterior in the last ulp.
        np.testing.assert_allclose(posterior, update.estimate.flat(), atol=1e-12)
        posterior[:] = 0.0  # mutating the copy must not poison the warm start
        assert service.warm_initial().sum() == pytest.approx(1.0)
        assert service.warm_initial().max() > 1.0 / 36

    def test_smoothed_solves_stay_normalised(self, stream):
        service = StreamingEstimationService.build(
            stream.domain,
            6,
            2.5,
            window_epochs=2,
            seed=17,
            smoothing_strength=0.4,
        )
        update = service.ingest_epoch(stream.epochs[0])
        assert update.estimate.flat().sum() == pytest.approx(1.0)

    def test_cold_start_service_ignores_posterior(self, stream):
        service = StreamingEstimationService.build(
            stream.domain, 6, 2.5, window_epochs=2, seed=13, warm_start=False
        )
        service.ingest_epoch(stream.epochs[0])
        assert service.warm_initial() is None

    def test_rejects_non_transition_mechanisms(self):
        grid = GridSpec.unit(4)
        with pytest.raises(TypeError, match="transition-matrix"):
            StreamingEstimationService(MDSW(grid, 2.0))

    def test_validation_errors(self, stream):
        grid = GridSpec(stream.domain, 4)
        mechanism = DiscreteDAM(grid, 2.0, b_hat=1)
        with pytest.raises(ValueError, match="max_iterations"):
            StreamingEstimationService(mechanism, max_iterations=0)
        foreign = ParallelPipeline(stream.domain, 4, 2.0, workers=1)
        with pytest.raises(ValueError, match="same mechanism"):
            StreamingEstimationService(mechanism, pipeline=foreign)
        service = StreamingEstimationService(mechanism)
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            service.ingest_epoch(np.zeros((3, 3)))

    def test_ingest_aggregate_skips_privatization(self, stream):
        grid = GridSpec(stream.domain, 4)
        mechanism = DiscreteDAM(grid, 2.0, b_hat=1)
        service = StreamingEstimationService(mechanism, window_epochs=2, seed=0)
        aggregator = mechanism.streaming_aggregator(seed=1)
        aggregator.add_points(stream.epochs[0])
        update = service.ingest_aggregate(aggregator.state())
        assert update.privatize_seconds == 0.0
        assert update.n_users_epoch == 600


class TestParallelAggregate:
    def test_aggregate_matches_run_counts(self, stream):
        pipeline = ParallelPipeline(stream.domain, 6, 2.5, workers=1, shard_size=150)
        aggregate = pipeline.aggregate(stream.epochs[0], seed=21)
        result = pipeline.run(stream.epochs[0], seed=21)
        assert np.array_equal(aggregate.noisy_counts, result.noisy_counts)
        assert aggregate.n_users == result.n_users

    def test_aggregate_validates_shape(self, stream):
        pipeline = ParallelPipeline(stream.domain, 6, 2.5, workers=1)
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            pipeline.aggregate(np.zeros(5))


class TestStreamingQueryEngine:
    @pytest.fixture()
    def estimates(self):
        grid = GridSpec.unit(6)
        rng = np.random.default_rng(0)
        return [
            GridDistribution(grid, rng.dirichlet(np.ones(36))) for _ in range(2)
        ]

    def test_refresh_publishes_fully_built_engine(self, estimates):
        serving = StreamingQueryEngine()
        assert not serving.ready
        with pytest.raises(RuntimeError, match="no estimate"):
            serving.range_mass(np.array([[0.0, 1.0, 0.0, 1.0]]))
        engine = serving.refresh(estimates[0], epoch=0)
        assert serving.ready and serving.epoch == 0
        # The summed-area table exists before the swap ever becomes visible.
        assert engine.sat.table.shape == (7, 7)
        assert serving.snapshot() is engine

    def test_queries_match_plain_engine(self, estimates):
        serving = StreamingQueryEngine(estimates[0])
        plain = QueryEngine(estimates[0])
        queries = np.array([[0.1, 0.4, 0.2, 0.9], [0.0, 1.0, 0.0, 1.0]])
        points = np.array([[0.5, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(serving.range_mass(queries), plain.range_mass(queries))
        np.testing.assert_array_equal(serving.point_density(points), plain.point_density(points))
        assert np.array_equal(
            serving.top_k_cells(3).flat_indices, plain.top_k_cells(3).flat_indices
        )
        np.testing.assert_array_equal(serving.axis_marginals()[0], plain.axis_marginals()[0])
        assert (
            serving.quantile_contours([0.5])[0].n_cells
            == plain.quantile_contours([0.5])[0].n_cells
        )
        assert serving.estimate is estimates[0]
        assert serving.grid is estimates[0].grid

    def test_snapshot_pins_the_old_window_across_a_refresh(self, estimates):
        serving = StreamingQueryEngine(estimates[0])
        pinned = serving.snapshot()
        old_answer = pinned.range_mass(np.array([[0.0, 0.5, 0.0, 0.5]]))
        serving.refresh(estimates[1], epoch=1)
        # The pinned engine still serves the old window, byte for byte...
        np.testing.assert_array_equal(
            pinned.range_mass(np.array([[0.0, 0.5, 0.0, 0.5]])), old_answer
        )
        # ...while fresh calls see the new one.
        assert serving.snapshot() is not pinned
        assert serving.epoch == 1

    def test_workload_replay_serves_mid_stream(self, estimates):
        """WorkloadReplay drives the streaming façade unchanged."""
        serving = StreamingQueryEngine(estimates[0])
        log = QueryLog.random(
            estimates[0].grid.domain,
            n_range=50,
            n_density=20,
            n_top_k=2,
            n_quantiles=2,
            n_marginals=1,
            seed=3,
        )
        report, answers = WorkloadReplay(serving).replay(log)
        assert report.n_operations == log.size
        serving.refresh(estimates[1], epoch=1)
        report_after, answers_after = WorkloadReplay(serving).replay(log)
        assert report_after.n_operations == log.size
        # Same workload, new window: the answers moved with the estimate.
        assert not np.array_equal(answers["range_mass"], answers_after["range_mass"])

    def test_trajectory_logs_still_rejected(self, estimates):
        serving = StreamingQueryEngine(estimates[0])
        log = QueryLog(od_top_k=np.array([3]))
        with pytest.raises(TypeError, match="TrajectoryQueryEngine"):
            WorkloadReplay(serving).replay(log)

    def test_published_pair_never_tears_under_refresh_hammer(self):
        """Regression: the (engine, epoch) pair is published in one store.

        refresh() used to write the engine and the epoch as two separate
        attribute stores; a reader thread interleaving between them could pair
        epoch N+1's engine with epoch N's label.  Each estimate here encodes
        its epoch in the argmax cell, so any torn pair is caught immediately.
        """
        import threading

        grid = GridSpec.unit(4)
        n_cells = grid.d * grid.d
        estimates = []
        for epoch in range(n_cells):
            probabilities = np.full(n_cells, 0.5 / (n_cells - 1))
            probabilities[epoch] = 0.5
            estimates.append(GridDistribution(grid, probabilities.reshape(4, 4)))

        serving = StreamingQueryEngine()
        serving.refresh(estimates[0], epoch=0)
        stop = threading.Event()
        torn: list[tuple[int, int]] = []

        def reader() -> None:
            while not stop.is_set():
                engine, epoch = serving.published()
                hotspot = int(np.argmax(engine.estimate.probabilities))
                if hotspot != epoch:
                    torn.append((hotspot, epoch))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(3000):
                epoch = round_index % n_cells
                serving.refresh(estimates[epoch], epoch=epoch)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert torn == []


class TestCumulativeInvalidation:
    def test_invalidate_cumulative_rebuilds_the_table(self):
        grid = GridSpec.unit(4)
        rng = np.random.default_rng(1)
        distribution = GridDistribution(grid, rng.dirichlet(np.ones(16)))
        stale = distribution.cumulative()
        assert distribution.cumulative() is stale  # cached
        # In-place refresh (the exceptional route): cache must be dropped by hand.
        distribution.probabilities[:] = rng.dirichlet(np.ones(16)).reshape(4, 4)
        assert distribution.cumulative() is stale  # still stale without the call
        distribution.invalidate_cumulative()
        rebuilt = distribution.cumulative()
        assert rebuilt is not stale
        assert rebuilt[-1, -1] == pytest.approx(1.0)
        assert not np.array_equal(rebuilt, stale)


class TestSnapshotWriterIntegration:
    """The ingest loop publishes each window to the shared-memory serving tier."""

    def test_mismatched_writer_grid_rejected(self, stream):
        from repro.serving import SnapshotWriter

        with SnapshotWriter(GridSpec.unit(5)) as writer:
            with pytest.raises(ValueError, match="snapshot_writer grid"):
                StreamingEstimationService.build(
                    stream.domain,
                    6,
                    2.5,
                    window_epochs=2,
                    seed=1,
                    snapshot_writer=writer,
                )

    def test_every_epoch_publishes_to_the_segment(self, stream):
        from repro.serving import SnapshotReader, SnapshotWriter

        with SnapshotWriter(GridSpec(stream.domain, 6)) as writer:
            service = StreamingEstimationService.build(
                stream.domain,
                6,
                2.5,
                window_epochs=2,
                seed=11,
                snapshot_writer=writer,
            )
            with SnapshotReader(writer.spec) as reader:
                assert not reader.ready
                for index, points in enumerate(stream.epochs[:3]):
                    update = service.ingest_epoch(points)
                    engine, generation, epoch = reader.pinned()
                    # One publish per epoch: the generation counter advances by
                    # two (odd during the copy, even once consistent).
                    assert generation == 2 * (index + 1)
                    assert epoch == index == update.epoch
                    np.testing.assert_array_equal(
                        engine.estimate.probabilities, update.estimate.probabilities
                    )
                    np.testing.assert_array_equal(
                        engine.sat.table, update.estimate.cumulative()
                    )
