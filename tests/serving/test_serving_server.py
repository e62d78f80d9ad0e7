"""ServingServer: worker-count invariance, admission, coalescing, staged bulk."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.domain import GridSpec
from repro.queries.engine import QueryEngine, QueryLog
from repro.serving import (
    BackpressureError,
    ServingServer,
    TornSnapshotError,
    WorkloadArena,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec.unit(8)


@pytest.fixture(scope="module")
def estimate(grid):
    rng = np.random.default_rng(0)
    return grid.distribution(rng.random((3000, 2)))


@pytest.fixture(scope="module")
def queries(grid):
    log = QueryLog.random(grid.domain, n_range=300, seed=1)
    return log.range_queries


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_front_end_bit_identical_to_serial(self, grid, estimate, queries, workers):
        serial = QueryEngine(estimate).range_mass(queries)
        with ServingServer(grid, workers=workers, coalesce_rows=64) as server:
            server.publish(estimate, epoch=0)
            server.start()
            np.testing.assert_array_equal(server.range_mass(queries), serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_staged_bit_identical_to_serial(self, grid, estimate, queries, workers):
        serial = QueryEngine(estimate).range_mass(queries)
        with ServingServer(grid, workers=workers) as server:
            server.publish(estimate, epoch=0)
            server.start()
            with WorkloadArena(queries) as arena:
                snapshots = server.serve_staged(arena, batch_rows=50)
                assert snapshots == [(2, 0)] * len(snapshots)
                np.testing.assert_array_equal(arena.answers, serial)


class TestAdmission:
    def test_backpressure_rejects_then_recovers(self, grid, estimate, queries):
        with ServingServer(grid, workers=1, max_pending_rows=250) as server:
            server.publish(estimate, epoch=0)
            server.start()
            ticket = server.submit_range_mass(queries[:200])
            assert server.pending_rows == 200
            with pytest.raises(BackpressureError, match="pending budget"):
                server.submit_range_mass(queries[200:300])
            # Collecting the outstanding ticket frees the budget.
            batch = server.collect(ticket)
            assert server.pending_rows == 0
            np.testing.assert_array_equal(
                batch.answers, QueryEngine(estimate).range_mass(queries[:200])
            )
            server.submit_range_mass(queries[200:300])

    def test_empty_batch_rejected(self, grid, estimate):
        with ServingServer(grid, workers=1) as server:
            server.publish(estimate)
            with pytest.raises(ValueError, match="empty"):
                server.submit_range_mass(np.empty((0, 4)))

    def test_unknown_ticket_rejected(self, grid):
        with ServingServer(grid, workers=1) as server:
            with pytest.raises(KeyError, match="unknown"):
                server.collect(99)

    def test_parameters_validated(self, grid):
        with pytest.raises(ValueError, match="workers"):
            ServingServer(grid, workers=0)
        with pytest.raises(ValueError, match="max_pending_rows"):
            ServingServer(grid, max_pending_rows=0)
        with pytest.raises(ValueError, match="coalesce_rows"):
            ServingServer(grid, coalesce_rows=0)


class TestCoalescing:
    def test_small_bursts_coalesce_and_large_batches_split(
        self, grid, estimate, queries
    ):
        serial = QueryEngine(estimate)
        with ServingServer(grid, workers=2, coalesce_rows=40) as server:
            server.publish(estimate, epoch=5)
            server.start()
            # Two small submissions fit one coalesced task; the third splits.
            tickets = [
                server.submit_range_mass(queries[:15]),
                server.submit_range_mass(queries[15:30]),
                server.submit_range_mass(queries[30:130]),
            ]
            server.flush()
            batches = [server.collect(ticket) for ticket in tickets]
            for batch, lo, hi in zip(batches, (0, 15, 30), (15, 30, 130)):
                np.testing.assert_array_equal(
                    batch.answers, serial.range_mass(queries[lo:hi])
                )
                assert all(epoch == 5 for epoch in batch.epochs)
            # The 100-row ticket spans more than one coalesced task.
            assert len(batches[2].generations) >= 2
            assert set(batches[2].generations) == {2}

    def test_publish_between_batches_moves_the_answers(self, grid, estimate, queries):
        rng = np.random.default_rng(7)
        second = grid.distribution(rng.random((3000, 2)))
        with ServingServer(grid, workers=1) as server:
            server.publish(estimate, epoch=0)
            server.start()
            before = server.range_mass(queries)
            server.publish(second, epoch=1)
            after = server.range_mass(queries)
            assert not np.array_equal(before, after)
            np.testing.assert_array_equal(
                after, QueryEngine(second).range_mass(queries)
            )


class TestFailureSurfacing:
    def test_worker_read_timeout_is_reported_not_fatal(self, grid, queries):
        # No snapshot is ever published: the worker's seqlock read times out and
        # the failure comes back as an error result instead of a dead worker.
        with ServingServer(grid, workers=1, read_timeout=0.1) as server:
            server.start()
            ticket = server.submit_range_mass(queries[:10])
            with pytest.raises(RuntimeError, match="TimeoutError"):
                server.collect(ticket, timeout=10.0)

    def test_dead_publisher_mid_publish_is_reported_not_a_hang(
        self, grid, estimate, queries
    ):
        # Regression: leave the seqlock generation odd (writer died between its
        # two bumps).  Pre-fix every worker read spun for the full read_timeout;
        # now the worker fails the task with TornSnapshotError and the server
        # surfaces it as an error result.
        with ServingServer(grid, workers=1, torn_timeout=0.15) as server:
            server.publish(estimate, epoch=0)
            server.start()
            server.writer._header[0] += 1  # generation stuck odd
            ticket = server.submit_range_mass(queries[:10])
            with pytest.raises(RuntimeError, match="TornSnapshotError"):
                server.collect(ticket, timeout=20.0)

    def test_only_a_torn_snapshot_keeps_its_type(self, grid, estimate, queries):
        # A worker's TornSnapshotError re-raises as itself on both collect
        # paths; every other worker failure stays a plain RuntimeError.
        with ServingServer(grid, workers=1, read_timeout=1.0, torn_timeout=0.15) as server:
            server.start()
            ticket = server.submit_range_mass(queries[:10])
            with pytest.raises(RuntimeError, match="TimeoutError") as error:
                server.collect(ticket, timeout=10.0)
            assert not isinstance(error.value, TornSnapshotError)
            server.publish(estimate, epoch=0)
            server.writer._header[0] += 1  # generation stuck odd
            ticket = server.submit_range_mass(queries[:10])
            with pytest.raises(TornSnapshotError, match="stuck at odd generation"):
                server.collect(ticket, timeout=20.0)
            with WorkloadArena(queries[:10]) as arena:
                with pytest.raises(TornSnapshotError, match="stuck at odd generation"):
                    server.serve_staged(arena, timeout=20.0)

    def test_closed_server_refuses_traffic(self, grid, estimate, queries):
        server = ServingServer(grid, workers=1)
        server.publish(estimate)
        server.close()
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            server.submit_range_mass(queries[:5])
        with pytest.raises(RuntimeError, match="closed"):
            server.start()


class TestWorkloadArena:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WorkloadArena(np.empty((0, 4)))

    def test_bounds_validated(self, grid, estimate, queries):
        with ServingServer(grid, workers=1) as server:
            server.publish(estimate)
            server.start()
            with WorkloadArena(queries[:20]) as arena:
                with pytest.raises(ValueError, match="start < stop"):
                    server.serve_staged(arena, start=10, stop=5)
                with pytest.raises(ValueError, match="start < stop"):
                    server.serve_staged(arena, stop=21)
