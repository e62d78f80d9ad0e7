"""Tests for repro.queries.engine — the summed-area-table serving subsystem.

The load-bearing property is SAT/dense equivalence: the O(1) summed-area-table path
must reproduce the seed O(d^2) ``_cell_overlap_fractions`` summation to 1e-10 for
arbitrary grids, domains and query rectangles (interior, overhanging, outside,
sliver-thin).  On top of that the façade operations (point density, top-k, marginals,
quantile contours) and the persistable replay driver are pinned down.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import strategies
from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.queries import QuerySurface
from repro.queries.engine import (
    QueryEngine,
    QueryLog,
    StreamingQueryEngine,
    StreamingTrajectoryQueryEngine,
    SummedAreaTable,
    TrajectoryQueryEngine,
    WorkloadReplay,
    queries_to_array,
)
from repro.queries.range_query import (
    FlatRangeQueryEngine,
    HierarchicalRangeQueryEngine,
    RangeQuery,
    RangeQueryWorkload,
    dense_range_answer,
)

SLOW_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Domains for the 1e-10 equivalence property: moderate offsets and extents, so the
# comparison measures algorithmic agreement rather than ulp-cancellation at
# planet-scale coordinates (those extremes are covered by the boundary properties in
# tests/core/test_domain.py, with appropriately scaled tolerances).
_EQUIV_DOMAINS = strategies.domains(offsets=(0.0, 1.0, 1e3), min_extent=0.1, max_extent=100.0)
_EQUIV_DISTRIBUTIONS = strategies.grid_distributions(
    min_side=1, max_side=12, domain_strategy=_EQUIV_DOMAINS
)


class TestSATEquivalence:
    """The acceptance property: SAT answers == dense overlap answers (<= 1e-10)."""

    @given(_EQUIV_DISTRIBUTIONS, strategies.seeds())
    @SLOW_SETTINGS
    def test_answer_batch_matches_dense_summation(self, estimate, seed):
        rng = np.random.default_rng(seed)
        sat = SummedAreaTable(estimate)
        domain = estimate.grid.domain
        n = int(rng.integers(1, 48))
        lo = domain.denormalise(rng.uniform(-0.75, 1.75, size=(n, 2)))
        extents = rng.uniform(1e-9, 1.2, size=(n, 2)) * [domain.width, domain.height]
        hi = np.maximum(lo + extents, np.nextafter(lo, np.inf))
        batch = np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])
        answers = sat.answer_batch(batch)
        dense = np.array(
            [
                dense_range_answer(estimate, RangeQuery(x_lo, x_hi, y_lo, y_hi))
                for x_lo, x_hi, y_lo, y_hi in batch
            ]
        )
        np.testing.assert_allclose(answers, dense, atol=1e-10, rtol=0)

    @given(_EQUIV_DISTRIBUTIONS)
    @SLOW_SETTINGS
    def test_single_query_matches_dense(self, estimate):
        query = RangeQuery(
            estimate.grid.domain.x_min + 0.3 * estimate.grid.domain.width,
            estimate.grid.domain.x_min + 0.77 * estimate.grid.domain.width,
            estimate.grid.domain.y_min + 0.11 * estimate.grid.domain.height,
            estimate.grid.domain.y_min + 0.64 * estimate.grid.domain.height,
        )
        assert SummedAreaTable(estimate).answer(query) == pytest.approx(
            dense_range_answer(estimate, query), abs=1e-12
        )

    @given(_EQUIV_DISTRIBUTIONS)
    @SLOW_SETTINGS
    def test_full_domain_is_one_and_outside_is_zero(self, estimate):
        domain = estimate.grid.domain
        sat = SummedAreaTable(estimate)
        full = RangeQuery(
            domain.x_min - domain.width,
            domain.x_max + domain.width,
            domain.y_min - domain.height,
            domain.y_max + domain.height,
        )
        outside = RangeQuery(
            domain.x_max + domain.width,
            domain.x_max + 2 * domain.width,
            domain.y_min,
            domain.y_max,
        )
        assert sat.answer(full) == pytest.approx(1.0, abs=1e-12)
        assert sat.answer(outside) == pytest.approx(0.0, abs=1e-12)

    @given(strategies.grid_distributions(min_side=1, max_side=10, unit=True), strategies.seeds())
    @SLOW_SETTINGS
    def test_cumulative_monotone_and_bounded(self, estimate, seed):
        rng = np.random.default_rng(seed)
        sat = SummedAreaTable(estimate)
        xs = np.sort(rng.random(10))
        ys = np.full(10, rng.random())
        values = sat.cumulative_at(xs, ys)
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all((values >= -1e-12) & (values <= 1.0 + 1e-12))


class TestQuerySurface:
    """``answer_batch`` must equal stacked ``answer`` for every engine."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(5)
        return np.clip(rng.normal([0.4, 0.6], 0.12, size=(4000, 2)), 0, 1)

    @pytest.fixture(scope="class")
    def workload(self):
        return RangeQueryWorkload.random(SpatialDomain.unit(), 25, seed=6)

    def test_flat_engine(self, points, workload):
        estimate = GridSpec.unit(9).distribution(points)
        engine = FlatRangeQueryEngine(estimate)
        stacked = np.array([engine.answer(q) for q in workload.queries])
        np.testing.assert_allclose(engine.answer_batch(workload.queries), stacked, atol=1e-12)
        np.testing.assert_allclose(engine.answer_batch(workload.as_array()), stacked, atol=1e-12)

    def test_hierarchical_engine(self, points, workload):
        engine = HierarchicalRangeQueryEngine(
            SpatialDomain.unit(),
            3.0,
            levels=3,
        ).fit(points, seed=7)
        stacked = np.array([engine.answer(q) for q in workload.queries])
        np.testing.assert_allclose(engine.answer_batch(workload.queries), stacked, atol=1e-12)

    def test_query_engine(self, points, workload):
        estimate = GridSpec.unit(9).distribution(points)
        engine = QueryEngine(estimate)
        stacked = np.array([engine.sat.answer(q) for q in workload.queries])
        np.testing.assert_allclose(engine.range_mass(workload.as_array()), stacked, atol=1e-12)
        np.testing.assert_allclose(engine.answer_batch(workload.as_array()), stacked, atol=1e-12)

    def test_every_engine_conforms(self, points, workload):
        estimate = GridSpec.unit(9).distribution(points)
        streaming = StreamingQueryEngine(estimate)
        engines = [
            FlatRangeQueryEngine(estimate),
            HierarchicalRangeQueryEngine(SpatialDomain.unit(), 3.0).fit(points, seed=8),
            QueryEngine(estimate),
            streaming,
        ]
        for engine in engines:
            assert isinstance(engine, QuerySurface)
            assert engine.answer_batch(workload.as_array()).shape == (25,)


class TestQueriesToArray:
    def test_single_query(self):
        arr = queries_to_array(RangeQuery(0.1, 0.4, 0.2, 0.9))
        np.testing.assert_allclose(arr, [[0.1, 0.4, 0.2, 0.9]])

    def test_sequence_and_array_agree(self):
        queries = [RangeQuery(0, 0.5, 0, 0.5), RangeQuery(0.2, 0.9, 0.1, 0.3)]
        arr = queries_to_array(queries)
        assert arr.shape == (2, 4)
        np.testing.assert_allclose(queries_to_array(arr), arr)

    def test_empty_sequence(self):
        assert queries_to_array([]).shape == (0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            queries_to_array(np.zeros((3, 5)))


class TestQueryEngineFacade:
    @pytest.fixture(scope="class")
    def engine(self):
        rng = np.random.default_rng(0)
        pts = np.clip(rng.normal([0.25, 0.25], 0.1, size=(8000, 2)), 0, 1)
        grid = GridSpec.unit(12)
        return QueryEngine(grid.distribution(pts))

    def test_point_density_integrates_to_cell_mass(self, engine):
        centers = engine.grid.cell_centers()
        cell_area = engine.grid.cell_width * engine.grid.cell_height
        densities = engine.point_density(centers)
        np.testing.assert_allclose(densities * cell_area, engine.estimate.flat(), atol=1e-12)

    def test_point_density_outside_domain_is_zero(self, engine):
        assert engine.point_density(np.array([[2.0, 2.0], [-1.0, 0.5]])).tolist() == [0, 0]

    def test_top_k_sorted_and_consistent(self, engine):
        top = engine.top_k_cells(7)
        assert np.all(np.diff(top.masses) <= 1e-15)
        flat = engine.estimate.flat()
        np.testing.assert_allclose(flat[top.flat_indices], top.masses)
        assert top.masses[0] == pytest.approx(flat.max())

    def test_top_k_bounds_checked(self, engine):
        with pytest.raises(ValueError):
            engine.top_k_cells(0)
        with pytest.raises(ValueError):
            engine.top_k_cells(engine.grid.n_cells + 1)

    def test_marginals_sum_to_one(self, engine):
        x_marg, y_marg = engine.axis_marginals()
        assert x_marg.sum() == pytest.approx(1.0)
        assert y_marg.sum() == pytest.approx(1.0)

    def test_quantile_contours_nested_and_sufficient(self, engine):
        low, high = engine.quantile_contours([0.5, 0.9])
        assert low.covered_mass >= 0.5 and high.covered_mass >= 0.9
        assert low.n_cells <= high.n_cells
        # The 50% contour is contained in the 90% contour (highest-density nesting).
        assert np.all(high.mask[low.mask])
        # Minimality: dropping the lightest included cell dips below the level.
        assert low.covered_mass - low.threshold < 0.5

    def test_quantile_level_validated(self, engine):
        with pytest.raises(ValueError):
            engine.quantile_contours([0.0])
        with pytest.raises(ValueError):
            engine.quantile_contours([1.5])

    def test_range_mass_matches_private_estimate(self, engine):
        query = RangeQuery(0.0, 0.5, 0.0, 0.5)
        assert engine.range_mass(query)[0] == pytest.approx(
            dense_range_answer(engine.estimate, query), abs=1e-12
        )


class TestQueryLogAndReplay:
    def test_random_log_shapes(self):
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=40,
            n_density=10,
            n_top_k=3,
            n_quantiles=2,
            n_marginals=1,
            seed=0,
        )
        assert log.range_queries.shape == (40, 4)
        assert log.density_points.shape == (10, 2)
        assert log.size == 56
        # Generated rectangles stay inside the domain and non-degenerate.
        assert np.all(log.range_queries[:, 0] < log.range_queries[:, 1])
        assert np.all(log.range_queries[:, 2] < log.range_queries[:, 3])
        assert log.range_queries[:, [0, 2]].min() >= 0.0
        assert log.range_queries[:, [1, 3]].max() <= 1.0

    def test_save_load_roundtrip(self, tmp_path):
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=12,
            n_density=4,
            n_top_k=2,
            n_quantiles=1,
            n_marginals=2,
            seed=1,
        )
        path = tmp_path / "workload.npz"
        log.save(path)
        loaded = QueryLog.load(path)
        np.testing.assert_allclose(loaded.range_queries, log.range_queries)
        np.testing.assert_allclose(loaded.density_points, log.density_points)
        np.testing.assert_array_equal(loaded.top_k, log.top_k)
        np.testing.assert_allclose(loaded.quantile_levels, log.quantile_levels)
        assert loaded.n_marginal_requests == log.n_marginal_requests

    def test_replay_reports_every_kind(self):
        rng = np.random.default_rng(2)
        engine = QueryEngine(
            GridSpec.unit(8).distribution(rng.random((3000, 2)))
        )
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=100,
            n_density=50,
            n_top_k=2,
            n_quantiles=2,
            n_marginals=1,
            seed=3,
        )
        report, answers = WorkloadReplay(engine).replay(log)
        assert report.n_operations == log.size
        # Density answers are keyed "point_density" since 1.7 (they used to be
        # reported under the mismatched kind "density").
        assert set(report.per_kind) == {
            "range_mass",
            "point_density",
            "top_k",
            "quantiles",
            "marginals",
        }
        assert set(answers) == set(report.per_kind)
        assert answers["range_mass"].shape == (100,)
        assert report.operations_per_second > 0
        assert "ops/sec" in report.format()

    def test_replay_reports_latency_percentiles(self):
        rng = np.random.default_rng(6)
        engine = QueryEngine(GridSpec.unit(8).distribution(rng.random((2000, 2))))
        log = QueryLog.random(
            SpatialDomain.unit(), n_range=200, n_density=64, n_top_k=3, seed=7
        )
        report, _ = WorkloadReplay(engine).replay(log)
        for kind, stats in report.per_kind.items():
            assert stats["latency_p50"] >= 0, kind
            assert stats["latency_p99"] >= stats["latency_p50"], kind
        # Batched kinds are timed in sliced dispatches, so the percentiles are
        # per-slice, not one number smeared over the whole batch.
        assert "p50 ms" in report.format() and "p99 ms" in report.format()

    def test_sliced_batches_match_unsliced_answers(self):
        """Latency slicing must not change a single bit of the answers."""
        rng = np.random.default_rng(11)
        engine = QueryEngine(GridSpec.unit(9).distribution(rng.random((2500, 2))))
        log = QueryLog.random(SpatialDomain.unit(), n_range=137, n_density=41, seed=12)
        _, answers = WorkloadReplay(engine).replay(log)
        np.testing.assert_array_equal(
            answers["range_mass"], engine.range_mass(log.range_queries)
        )
        np.testing.assert_array_equal(
            answers["point_density"], engine.point_density(log.density_points)
        )

    def test_replay_empty_log(self):
        engine = QueryEngine(GridDistribution.uniform(GridSpec.unit(4)))
        report, answers = WorkloadReplay(engine).replay(QueryLog())
        assert report.n_operations == 0
        assert answers == {}


class TestCumulativeAccessor:
    def test_cached_and_consistent(self):
        rng = np.random.default_rng(8)
        dist = GridDistribution(GridSpec.unit(6), rng.dirichlet(np.ones(36)).reshape(6, 6))
        table = dist.cumulative()
        assert table is dist.cumulative()  # cached
        assert table.shape == (7, 7)
        assert table[0].tolist() == [0.0] * 7
        assert table[-1, -1] == pytest.approx(1.0)
        np.testing.assert_allclose(
            np.diff(np.diff(table, axis=0), axis=1), dist.probabilities, atol=1e-12
        )

    def test_private_estimate_serving_path(self):
        rng = np.random.default_rng(9)
        pts = np.clip(rng.normal([0.3, 0.7], 0.1, size=(3000, 2)), 0, 1)
        grid = GridSpec.unit(8)
        estimate = DiscreteDAM(grid, 4.0).run(pts, seed=0).estimate
        engine = QueryEngine(estimate)
        answers = engine.range_mass(np.array([[0.0, 1.0, 0.0, 1.0]]))
        assert answers[0] == pytest.approx(1.0, abs=1e-9)


class TestTrajectoryQueryEngine:
    """Sequence-aware serving: OD/transition top-k and length histograms."""

    @pytest.fixture
    def tiny_trajectories(self):
        # Hand-built on a 2x2 unit grid: cells are row*2+col.
        # T1: (0,0) -> (0,1) -> (1,1)  [cells 0, 1, 3]
        # T2: (0,0) -> (0,1)           [cells 0, 1]
        # T3: single point in cell 3
        return [
            np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75]]),
            np.array([[0.25, 0.25], [0.75, 0.25]]),
            np.array([[0.75, 0.75]]),
        ]

    @pytest.fixture
    def serving(self, tiny_trajectories):
        return TrajectoryQueryEngine(tiny_trajectories, GridSpec.unit(2))

    def test_point_mass_is_the_cell_distribution(self, serving):
        # 6 points: cells [0,1,3, 0,1, 3] -> masses (2, 2, 0, 2)/6.
        np.testing.assert_allclose(serving.estimate.flat(), np.array([2, 2, 0, 2]) / 6.0)

    def test_od_top_k_counts(self, serving):
        od = serving.od_top_k(4)
        # OD pairs: (0 -> 3), (0 -> 1), (3 -> 3); all counts 1.
        assert od.counts.sum() == 3
        pairs = set(zip(od.from_cells.tolist(), od.to_cells.tolist()))
        assert pairs == {(0, 3), (0, 1), (3, 3)}
        np.testing.assert_allclose(od.fractions.sum(), 1.0)

    def test_transition_top_k_counts(self, serving):
        transitions = serving.transition_top_k(10)
        # Steps: 0->1 (twice), 1->3 (once).
        lookup = {
            (f, t): c
            for f, t, c in zip(
                transitions.from_cells.tolist(),
                transitions.to_cells.tolist(),
                transitions.counts.tolist(),
            )
        }
        assert lookup == {(0, 1): 2.0, (1, 3): 1.0}
        assert transitions.counts[0] == 2.0  # sorted by decreasing count

    def test_length_histogram(self, serving):
        counts, edges = serving.length_histogram(bins=3)
        assert counts.sum() == 3
        assert edges[0] == 1 and edges[-1] == 3

    def test_inherits_point_serving(self, serving):
        mass = serving.range_mass(np.array([[0.0, 1.0, 0.0, 1.0]]))
        assert mass[0] == pytest.approx(1.0)
        assert serving.top_k_cells(1).masses[0] == pytest.approx(2 / 6)

    def test_validation(self, serving, tiny_trajectories):
        with pytest.raises(ValueError):
            TrajectoryQueryEngine([], GridSpec.unit(2))
        with pytest.raises(ValueError):
            TrajectoryQueryEngine([np.empty((0, 2))], GridSpec.unit(2))
        with pytest.raises(ValueError):
            serving.od_top_k(0)
        with pytest.raises(ValueError):
            serving.length_histogram(bins=0)

    def test_single_trajectory_has_no_interior_end_bug(self):
        # One trajectory: every consecutive step must count, none dropped.
        serving = TrajectoryQueryEngine(
            [np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])],
            GridSpec.unit(2),
        )
        assert serving.transition_top_k(10).counts.sum() == 3

    @given(strategies.trajectory_sets(), strategies.grid_sides(2, 8), strategies.seeds())
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pair_totals_consistent(self, trajectories, d, seed):
        domain = SpatialDomain.from_points(np.vstack(trajectories), relative_pad=0.05)
        serving = TrajectoryQueryEngine(trajectories, GridSpec(domain, d))
        od = serving.od_top_k(10**9)  # clipped to all pairs
        transitions = serving.transition_top_k(10**9)
        assert od.counts.sum() == len(trajectories)
        n_steps = sum(max(np.shape(t)[0] - 1, 0) for t in trajectories)
        assert transitions.counts.sum() == n_steps


class TestTrajectoryWorkloadReplay:
    def _serving(self):
        rng = np.random.default_rng(3)
        trajectories = [
            np.clip(rng.normal(0.5, 0.2, size=(int(rng.integers(1, 12)), 2)), 0, 1)
            for _ in range(40)
        ]
        return TrajectoryQueryEngine(trajectories, GridSpec.unit(4))

    def test_replay_serves_trajectory_operations(self):
        serving = self._serving()
        log = QueryLog.random(
            serving.grid.domain,
            n_range=16,
            n_od_top_k=3,
            n_transition_top_k=3,
            n_length_histograms=2,
            seed=0,
        )
        report, answers = WorkloadReplay(serving).replay(log)
        assert report.n_operations == log.size
        assert len(answers["od_top_k"]) == 3
        assert len(answers["transition_top_k"]) == 3
        assert len(answers["length_histogram"]) == 2

    def test_point_engine_rejects_trajectory_log(self):
        estimate = GridDistribution.uniform(GridSpec.unit(4))
        log = QueryLog(od_top_k=np.array([3]))
        with pytest.raises(TypeError, match="TrajectoryQueryEngine"):
            WorkloadReplay(QueryEngine(estimate)).replay(log)

    def test_rejection_names_engine_class_and_log_op_kinds(self):
        """The error must say which engine failed AND which operations it cannot
        serve, so a mis-routed replay is diagnosable from the message alone."""
        estimate = GridDistribution.uniform(GridSpec.unit(4))
        log = QueryLog(
            od_top_k=np.array([3, 5]),
            length_histogram_bins=np.array([8]),
        )
        with pytest.raises(TypeError) as excinfo:
            WorkloadReplay(QueryEngine(estimate)).replay(log)
        message = str(excinfo.value)
        assert "QueryEngine" in message
        assert "od_top_k x2" in message
        assert "length_histogram x1" in message
        assert "transition_top_k" not in message  # zero-count kinds stay out

    def test_trajectory_operation_counts_property(self):
        log = QueryLog(od_top_k=np.array([3]), transition_top_k=np.array([2, 4]))
        assert log.trajectory_operation_counts == {"od_top_k": 1, "transition_top_k": 2}
        assert QueryLog().trajectory_operation_counts == {}

    def test_trajectory_log_roundtrip(self, tmp_path):
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=4,
            n_od_top_k=2,
            n_transition_top_k=1,
            n_length_histograms=1,
            seed=5,
        )
        assert log.has_trajectory_operations
        path = tmp_path / "trajectory-log.npz"
        log.save(path)
        loaded = QueryLog.load(path)
        np.testing.assert_array_equal(loaded.od_top_k, log.od_top_k)
        np.testing.assert_array_equal(loaded.transition_top_k, log.transition_top_k)
        np.testing.assert_array_equal(loaded.length_histogram_bins, log.length_histogram_bins)
        assert loaded.size == log.size

class TestStreamingTrajectoryQueryEngine:
    def _trajectories(self, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        return [
            np.clip(rng.normal(0.5, 0.2, size=(int(rng.integers(1, 10)), 2)), 0, 1)
            for _ in range(30)
        ]

    def test_refresh_trajectories_publishes_atomically(self):
        serving = StreamingTrajectoryQueryEngine()
        with pytest.raises(RuntimeError, match="no estimate has been published"):
            serving.snapshot()
        first = serving.refresh_trajectories(self._trajectories(0), GridSpec.unit(4), epoch=0)
        assert serving.snapshot() is first
        assert serving.epoch == 0
        second = serving.refresh_trajectories(self._trajectories(1), GridSpec.unit(4), epoch=1)
        assert serving.snapshot() is second
        assert serving.epoch == 1
        # A pinned snapshot keeps answering on its window after a refresh.
        assert first.od_top_k(2).counts.sum() <= 30

    def test_delegated_trajectory_queries_match_snapshot(self):
        serving = StreamingTrajectoryQueryEngine()
        serving.refresh_trajectories(self._trajectories(2), GridSpec.unit(4), epoch=0)
        pinned = serving.snapshot()
        np.testing.assert_array_equal(serving.od_top_k(3).counts, pinned.od_top_k(3).counts)
        np.testing.assert_array_equal(
            serving.transition_top_k(3).counts, pinned.transition_top_k(3).counts
        )
        counts, edges = serving.length_histogram(bins=5)
        pinned_counts, pinned_edges = pinned.length_histogram(bins=5)
        np.testing.assert_array_equal(counts, pinned_counts)
        np.testing.assert_array_equal(edges, pinned_edges)

    def test_point_published_engine_is_rejected_for_trajectory_queries(self):
        serving = StreamingTrajectoryQueryEngine()
        serving.refresh(GridDistribution.uniform(GridSpec.unit(4)), epoch=0)
        with pytest.raises(RuntimeError, match="refresh_trajectories"):
            serving.od_top_k(2)

    def test_replay_runs_against_streaming_facade(self):
        serving = StreamingTrajectoryQueryEngine()
        serving.refresh_trajectories(self._trajectories(3), GridSpec.unit(4), epoch=0)
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=4,
            n_od_top_k=2,
            n_transition_top_k=2,
            n_length_histograms=1,
            seed=7,
        )
        report, answers = WorkloadReplay(serving).replay(log)
        assert report.n_operations == log.size
        assert len(answers["od_top_k"]) == 2


class TestTrajectoryWorkloadReplayRoundtrips:
    def test_legacy_log_without_trajectory_fields_loads(self, tmp_path):
        """Archives written before the trajectory operations existed must load."""
        path = tmp_path / "legacy-log.npz"
        np.savez_compressed(
            path,
            range_queries=np.array([[0.1, 0.4, 0.1, 0.4]]),
            density_points=np.empty((0, 2)),
            top_k=np.empty(0, dtype=np.int64),
            quantile_levels=np.empty(0),
            n_marginal_requests=np.int64(0),
        )
        loaded = QueryLog.load(path)
        assert loaded.size == 1
        assert not loaded.has_trajectory_operations
