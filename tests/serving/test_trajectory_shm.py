"""Trajectory snapshot plane: layout v2 seqlock, bit-identity, torn detection.

The trajectory surface ships as flat tables (lengths + presorted pair triples)
rather than trajectories; the load-bearing property is that a
:class:`TrajectorySnapshotReader` answers every trajectory query bit-identically
to the publisher's in-process :class:`TrajectoryQueryEngine`.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.domain import GridSpec
from repro.queries.engine import TrajectoryQueryEngine
from repro.serving.shm import (
    _GENERATION,
    SnapshotReader,
    SnapshotSpec,
    TornSnapshotError,
    TrajectorySnapshotReader,
    TrajectorySnapshotSpec,
    TrajectorySnapshotWriter,
)


def make_engine(grid: GridSpec, seed: int, n: int = 40) -> TrajectoryQueryEngine:
    rng = np.random.default_rng(seed)
    trajectories = [rng.random((int(k), 2)) for k in rng.integers(2, 9, n)]
    return TrajectoryQueryEngine(trajectories, grid)


def surface(engine: TrajectoryQueryEngine) -> tuple:
    """A materialised sample of the full query surface for equality checks."""
    od = engine.od_top_k(5)
    transitions = engine.transition_top_k(5)
    counts, edges = engine.length_histogram(6)
    return (
        engine.range_mass(np.array([[0.1, 0.8, 0.2, 0.9]])).tolist(),
        od.from_cells.tolist(),
        od.to_cells.tolist(),
        od.counts.tolist(),
        od.fractions.tolist(),
        transitions.from_cells.tolist(),
        transitions.counts.tolist(),
        counts.tolist(),
        edges.tolist(),
    )


@pytest.fixture()
def grid():
    return GridSpec.unit(6)


def writer_for(grid, **kwargs) -> TrajectorySnapshotWriter:
    defaults = dict(max_trajectories=128, max_pairs=4096)
    defaults.update(kwargs)
    return TrajectorySnapshotWriter(grid, **defaults)


class TestFromTables:
    def test_round_trip_equals_original(self, grid):
        engine = make_engine(grid, seed=0)
        rebuilt = TrajectoryQueryEngine.from_tables(
            grid,
            engine.estimate.probabilities,
            engine.lengths,
            engine._od_pairs,
            engine._transition_pairs,
            cumulative=engine.sat.table,
        )
        assert surface(rebuilt) == surface(engine)
        assert rebuilt.n_trajectories == engine.n_trajectories
        assert (
            rebuilt.estimate.probabilities.tobytes()
            == engine.estimate.probabilities.tobytes()
        )


class TestTrajectorySnapshotWriter:
    def test_publish_advances_even_generations(self, grid):
        with writer_for(grid) as writer:
            assert writer.generation == 0
            assert writer.publish(make_engine(grid, 1), epoch=0) == 2
            assert writer.publish(make_engine(grid, 2), epoch=1) == 4

    def test_grid_mismatch_rejected(self, grid):
        with writer_for(grid) as writer:
            with pytest.raises(ValueError, match="does not match"):
                writer.publish(make_engine(GridSpec.unit(4), 3))

    def test_over_capacity_rejected(self, grid):
        engine = make_engine(grid, 4, n=40)
        with writer_for(grid, max_trajectories=10) as writer:
            with pytest.raises(ValueError, match="capacity"):
                writer.publish(engine)
        with writer_for(grid, max_pairs=3) as writer:
            with pytest.raises(ValueError, match="capacity"):
                writer.publish(engine)

    def test_invalid_capacities_rejected(self, grid):
        with pytest.raises(ValueError, match="max_trajectories"):
            TrajectorySnapshotWriter(grid, max_trajectories=0, max_pairs=8)
        with pytest.raises(ValueError, match="max_pairs"):
            TrajectorySnapshotWriter(grid, max_trajectories=8, max_pairs=0)

    def test_closed_writer_refuses_publish(self, grid):
        writer = writer_for(grid)
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            writer.publish(make_engine(grid, 5))


class TestTrajectorySnapshotReader:
    def test_full_surface_bit_identical_to_serial_engine(self, grid):
        engine = make_engine(grid, seed=6)
        with writer_for(grid) as writer:
            writer.publish(engine, epoch=2)
            with TrajectorySnapshotReader(writer.spec) as reader:
                served, generation, epoch = reader.read(surface)
                assert (generation, epoch) == (2, 2)
                assert served == surface(engine)

    def test_counts_shrink_with_a_smaller_publish(self, grid):
        """Live row counts come from the header, not the segment capacity."""
        small = make_engine(grid, seed=7, n=5)
        with writer_for(grid) as writer:
            writer.publish(make_engine(grid, seed=8, n=60), epoch=0)
            writer.publish(small, epoch=1)
            with TrajectorySnapshotReader(writer.spec) as reader:
                histogram, _, _ = reader.read(
                    lambda engine: engine.length_histogram(4)[0].tolist()
                )
                assert sum(histogram) == 5
                served, _, _ = reader.read(surface)
                assert served == surface(small)

    def test_geometry_validated_at_attach(self, grid):
        with writer_for(grid) as writer:
            spec = writer.spec
            wrong_d = TrajectorySnapshotSpec(
                name=spec.name, d=4, bounds=spec.bounds,
                max_trajectories=spec.max_trajectories, max_pairs=spec.max_pairs,
            )
            with pytest.raises(ValueError, match="holds d=6"):
                TrajectorySnapshotReader(wrong_d)
            too_big = TrajectorySnapshotSpec(
                name=spec.name, d=6, bounds=spec.bounds,
                max_trajectories=spec.max_trajectories, max_pairs=10**6,
            )
            with pytest.raises(ValueError, match="bytes"):
                TrajectorySnapshotReader(too_big)

    def test_point_reader_rejects_a_trajectory_segment(self, grid):
        """The segment is big enough for layout v1, so only the version check catches it."""
        with writer_for(grid) as writer:
            spec = writer.spec
            point_spec = SnapshotSpec(name=spec.name, d=spec.d, bounds=spec.bounds)
            assert point_spec.size_bytes < spec.size_bytes
            with pytest.raises(ValueError, match="holds d=6 layout v2, expected d=6 layout v1"):
                SnapshotReader(point_spec)

    def test_wait_ready_and_closed_reader(self, grid):
        with writer_for(grid) as writer:
            reader = TrajectorySnapshotReader(writer.spec)
            assert not reader.ready
            with pytest.raises(TimeoutError, match="no snapshot published"):
                reader.wait_ready(timeout=0.05)
            writer.publish(make_engine(grid, 9))
            reader.wait_ready(timeout=5.0)
            reader.close()
            reader.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                reader.read(lambda engine: None)

    def test_torn_writer_raises_fast(self, grid):
        with writer_for(grid) as writer:
            writer.publish(make_engine(grid, 10), epoch=0)
            writer._header[_GENERATION] += 1  # die mid-publish
            with TrajectorySnapshotReader(writer.spec) as reader:
                start = time.monotonic()
                with pytest.raises(TornSnapshotError, match="stuck at odd generation"):
                    reader.read(lambda engine: None, timeout=30.0, torn_timeout=0.15)
                assert time.monotonic() - start < 5.0

    def test_no_torn_surface_under_concurrent_writer(self, grid):
        """A hammering publisher never lets a read mix two trajectory sets."""
        engines = {0: make_engine(grid, 20, n=30), 1: make_engine(grid, 21, n=50)}
        expected = {epoch: surface(engine) for epoch, engine in engines.items()}

        with writer_for(grid) as writer:
            writer.publish(engines[0], epoch=0)
            done = threading.Event()

            def hammer() -> None:
                for epoch in range(1, 400):
                    writer.publish(engines[epoch % 2], epoch=epoch)
                done.set()

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                with TrajectorySnapshotReader(writer.spec) as reader:
                    observations = 0
                    while not done.is_set() or observations == 0:
                        served, _, epoch = reader.read(surface)
                        assert served == expected[epoch % 2]
                        observations += 1
            finally:
                thread.join()
            assert observations > 0
