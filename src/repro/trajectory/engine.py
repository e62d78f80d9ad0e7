"""Vectorized, batched trajectory privatization and synthesis engine.

The seed implementation of LDPTrace (:mod:`repro.trajectory.ldptrace`) collects its
three per-user LDP reports in a per-trajectory Python loop and synthesises one
trajectory at a time, one step at a time — fine for a figure, hopeless for the
ROADMAP's production-scale trajectory workloads.  This module is the scaled path:

* :meth:`TrajectoryEngine.collect_reports` gathers all three report streams (length /
  start cell / movement direction) with zero per-trajectory Python beyond the cell
  mapping: the trajectory set is stacked once, mapped to cells once, and every
  uniformly-sampled movement is computed in whole-array operations.
* :meth:`TrajectoryEngine.fit` shards report collection over a process pool using the
  same mergeable-aggregate protocol as :class:`repro.core.parallel.ParallelPipeline`
  (:func:`repro.core.parallel.run_sharded`): each shard reduces its reports to the
  additive :class:`TrajectoryShardAggregate` sufficient statistic, the coordinator
  merges and runs the oracle estimators once.  Results are deterministic in the seed
  and the shard plan and invariant to the worker count.
* :meth:`TrajectoryEngine.synthesize` replaces the per-step walk with a batched Markov
  walk: all length buckets, start cells and direction matrices are drawn in
  whole-array operations (pad-to-max-length, then mask); the only remaining loop is
  over time steps, each one contiguous update of every trajectory at once
  (:func:`batched_walk`: time-major layout, int32 positions, int8 steps).

The seed loops survive as ``fit_reference`` / ``synthesize_reference`` and back the
differential tests in ``tests/trajectory/test_trajectory_engine.py``: estimates from merged
aggregates are bit-identical to oracle estimates over the raw concatenated reports,
and batched synthesis matches the reference walk's point density to W2 tolerance
(gated at serving scale by ``benchmarks/test_trajectory_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.core.domain import GridSpec, SpatialDomain, stack_trajectory_cells
from repro.core.parallel import run_sharded
from repro.core.postprocess import sanitize_probability_vector
from repro.trajectory.ldptrace import DIRECTIONS, LDPTrace, LDPTraceModel
from repro.utils.rng import ensure_rng, spawn_seed_sequences

#: Default number of trajectories per shard for the sharded fit.  Small enough that a
#: 10k-trajectory workload spreads over several workers, large enough that per-shard
#: overhead (pickling the shard, three oracle calls) stays negligible.
DEFAULT_TRAJECTORY_SHARD_SIZE = 2048

#: Row/column steps of each direction index, vectorised lookup tables for the walk
#: (int8: steps are always in {-1, 0, 1}).
_DIR_ROW_STEPS = np.array([step[0] for step in DIRECTIONS], dtype=np.int8)
_DIR_COL_STEPS = np.array([step[1] for step in DIRECTIONS], dtype=np.int8)


def inverse_cdf_draws(
    rng: np.random.Generator,
    probabilities: np.ndarray,
    shape,
    *,
    dtype=np.int64,
) -> np.ndarray:
    """Inverse-CDF categorical draws, clipped into range.

    Consumes exactly ``rng.random(shape)``; ``dtype`` narrows the indices without
    changing any value.
    """
    cumulative = np.cumsum(probabilities)
    draws = np.searchsorted(cumulative, rng.random(shape), side="right")
    indices = draws.astype(dtype, copy=False)
    np.clip(indices, 0, probabilities.shape[0] - 1, out=indices)
    return indices


def batched_walk(
    start_cells: np.ndarray,
    step_rows: np.ndarray,
    step_cols: np.ndarray,
    d: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the clipped batched Markov walk in time-major layout.

    Parameters
    ----------
    start_cells:
        Flat start cell of each of the ``n`` trajectories.
    step_rows, step_cols:
        ``(n, max_steps)`` per-step row/column increments in ``{-1, 0, 1}``
        (any integer dtype; they are squeezed to int8 internally).
    d:
        Grid side length; positions are clipped into ``[0, d - 1]``.

    Returns
    -------
    ``(rows, cols)`` — **time-major** ``(max_steps + 1, n)`` int32 position arrays
    (``rows[t]`` is one contiguous step); transpose for the trajectory-major view.
    Each step is one contiguous pass over narrow dtypes, so the walk moves a
    fraction of the bytes a trajectory-major int64 walk does, with the same values.
    """
    n = int(start_cells.shape[0])
    max_steps = int(step_rows.shape[1])
    rows = np.empty((max_steps + 1, n), dtype=np.int32)
    cols = np.empty((max_steps + 1, n), dtype=np.int32)
    np.floor_divide(start_cells, d, out=rows[0], casting="unsafe")
    np.remainder(start_cells, d, out=cols[0], casting="unsafe")
    drow = np.ascontiguousarray(step_rows.T, dtype=np.int8)
    dcol = np.ascontiguousarray(step_cols.T, dtype=np.int8)
    for t in range(max_steps):
        np.add(rows[t], drow[t], out=rows[t + 1], casting="unsafe")
        np.clip(rows[t + 1], 0, d - 1, out=rows[t + 1])
        np.add(cols[t], dcol[t], out=cols[t + 1], casting="unsafe")
        np.clip(cols[t + 1], 0, d - 1, out=cols[t + 1])
    return rows, cols


@dataclass(frozen=True)
class TrajectoryReports:
    """The raw per-user LDP report streams of one trajectory set."""

    length_reports: np.ndarray
    start_reports: np.ndarray
    direction_reports: np.ndarray
    n_users: int


@dataclass(frozen=True)
class TrajectoryShardAggregate:
    """Additive sufficient statistic of one shard's trajectory reports.

    The trajectory analogue of :class:`repro.core.estimator.ShardAggregate`: three
    per-category support-count histograms plus a user counter.  Summing any number of
    these (in any order) and estimating once is exactly equivalent to estimating over
    the concatenated raw reports — the property the differential tests pin bit-for-bit.

    The class conforms to the functional mergeable-aggregate protocol
    (:mod:`repro.streaming.protocol`): :meth:`subtracted` is the **exact inverse**
    of :meth:`merged` (every count is an integer-valued float far below ``2**53``,
    so the algebra is bit-exact), which is what lets
    :class:`repro.streaming.trajectory.StreamingTrajectoryService` slide a
    trajectory window in O(one epoch) instead of re-scanning surviving reports.
    :meth:`scaled` / :meth:`clamped` supply the exponentially-decayed window
    variant; ``n_users`` stays an ``int`` whenever integral and becomes a
    ``float`` only for decay-weighted aggregates.
    """

    length_counts: np.ndarray
    start_counts: np.ndarray
    direction_counts: np.ndarray
    n_users: int | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "length_counts", np.asarray(self.length_counts, dtype=float))
        object.__setattr__(self, "start_counts", np.asarray(self.start_counts, dtype=float))
        object.__setattr__(self, "direction_counts", np.asarray(self.direction_counts, dtype=float))
        users = float(self.n_users)
        object.__setattr__(self, "n_users", int(users) if users.is_integer() else users)

    def _check_domains(self, other: "TrajectoryShardAggregate", verb: str) -> None:
        if not isinstance(other, TrajectoryShardAggregate):
            raise TypeError(
                f"{verb} expects a TrajectoryShardAggregate, got {type(other).__name__}"
            )
        if (
            other.length_counts.shape != self.length_counts.shape
            or other.start_counts.shape != self.start_counts.shape
            or other.direction_counts.shape != self.direction_counts.shape
        ):
            raise ValueError(
                f"cannot {verb} trajectory aggregates with different report domains "
                "(different grids or length bucketisations?)"
            )

    def merged(self, other: "TrajectoryShardAggregate") -> "TrajectoryShardAggregate":
        """Fold another shard's counts into a new aggregate (commutative/associative)."""
        self._check_domains(other, "merge")
        return TrajectoryShardAggregate(
            length_counts=self.length_counts + other.length_counts,
            start_counts=self.start_counts + other.start_counts,
            direction_counts=self.direction_counts + other.direction_counts,
            n_users=self.n_users + other.n_users,
        )

    def subtracted(self, other: "TrajectoryShardAggregate") -> "TrajectoryShardAggregate":
        """The exact inverse of :meth:`merged`: retire an epoch's counts bit-exactly.

        ``a.merged(b).subtracted(b)`` returns an aggregate bit-identical to ``a``
        (integer count algebra — see the class docstring).  Like
        :meth:`repro.core.estimator.ShardAggregate.subtracted` this is pure
        algebra without a never-merged guard, because the decayed window subtracts
        scaled epochs from decayed totals where tiny negative float residues are
        expected and cleaned up by :meth:`clamped`.
        """
        self._check_domains(other, "subtract")
        return TrajectoryShardAggregate(
            length_counts=self.length_counts - other.length_counts,
            start_counts=self.start_counts - other.start_counts,
            direction_counts=self.direction_counts - other.direction_counts,
            n_users=self.n_users - other.n_users,
        )

    def scaled(self, factor: float) -> "TrajectoryShardAggregate":
        """A new aggregate with every count multiplied by ``factor`` (decay weight)."""
        return TrajectoryShardAggregate(
            length_counts=self.length_counts * factor,
            start_counts=self.start_counts * factor,
            direction_counts=self.direction_counts * factor,
            n_users=self.n_users * factor,
        )

    def clamped(self) -> "TrajectoryShardAggregate":
        """A new aggregate with negative float-decay residues clamped to zero."""
        return TrajectoryShardAggregate(
            length_counts=np.clip(self.length_counts, 0.0, None),
            start_counts=np.clip(self.start_counts, 0.0, None),
            direction_counts=np.clip(self.direction_counts, 0.0, None),
            n_users=max(self.n_users, 0),
        )


def merge_trajectory_aggregates(
    aggregates: list[TrajectoryShardAggregate],
) -> TrajectoryShardAggregate:
    """Merge shard aggregates into the whole-population sufficient statistic."""
    if not aggregates:
        raise ValueError("no trajectory aggregates to merge")
    return reduce(lambda a, b: a.merged(b), aggregates)


@dataclass(frozen=True)
class _EngineSpec:
    """Everything a worker needs to rebuild the engine — tiny and picklable."""

    bounds: tuple[float, float, float, float]
    domain_name: str
    d: int
    epsilon: float
    n_length_buckets: int
    max_length: int

    def build(self) -> "_EngineShardRunner":
        grid = GridSpec(SpatialDomain(*self.bounds, name=self.domain_name), self.d)
        mechanism = LDPTrace(
            grid,
            self.epsilon,
            n_length_buckets=self.n_length_buckets,
            max_length=self.max_length,
        )
        return _EngineShardRunner(TrajectoryEngine(mechanism))


@dataclass(frozen=True)
class _ShardTask:
    """One unit of work: a slice of the trajectory list plus its child seed."""

    trajectories: list
    seed: np.random.SeedSequence


@dataclass
class _EngineShardRunner:
    """Worker context: one built engine, one trajectory shard at a time."""

    engine: "TrajectoryEngine"

    def run_shard(self, task: _ShardTask) -> TrajectoryShardAggregate:
        return self.engine.collect_aggregate(
            task.trajectories, seed=np.random.default_rng(task.seed)
        )


class TrajectoryEngine:
    """Batched LDPTrace: vectorized report collection, sharded fit, batched synthesis.

    Wraps an :class:`~repro.trajectory.ldptrace.LDPTrace` mechanism (which carries the
    grid, the budget split and the three frequency oracles) and provides the
    production-scale execution paths.  Build one directly over an existing mechanism
    or with :meth:`TrajectoryEngine.build` from grid parameters.
    """

    def __init__(self, mechanism: LDPTrace) -> None:
        self.mechanism = mechanism

    @classmethod
    def build(
        cls,
        grid: GridSpec,
        epsilon: float,
        *,
        n_length_buckets: int = 10,
        max_length: int = 200,
    ) -> "TrajectoryEngine":
        return cls(
            LDPTrace(grid, epsilon, n_length_buckets=n_length_buckets, max_length=max_length)
        )

    # ------------------------------------------------------------- conveniences
    @property
    def grid(self) -> GridSpec:
        return self.mechanism.grid

    @property
    def epsilon(self) -> float:
        return self.mechanism.epsilon

    def _spec(self) -> _EngineSpec:
        domain = self.grid.domain
        return _EngineSpec(
            bounds=domain.bounds,
            domain_name=domain.name,
            d=self.grid.d,
            epsilon=self.epsilon,
            n_length_buckets=self.mechanism.n_length_buckets,
            max_length=self.mechanism.max_length,
        )

    # ----------------------------------------------------------------- fitting
    def collect_reports(self, trajectories: list[np.ndarray], seed=None) -> TrajectoryReports:
        """Collect the three per-user LDP report streams in whole-array operations.

        Matches the reference loop's sampling semantics (one uniformly chosen
        movement per trajectory; single-point trajectories report "stay") without its
        per-trajectory Python.
        """
        rng = ensure_rng(seed)
        mech = self.mechanism
        if not trajectories:
            raise ValueError("cannot fit LDPTrace on an empty trajectory set")
        lengths, starts, cells = stack_trajectory_cells(self.grid, trajectories)
        n = lengths.shape[0]
        d = self.grid.d

        start_cells = cells[starts]
        # One uniformly sampled movement per trajectory: floor(u * (len - 1)) is
        # uniform over the len-1 steps; single-point trajectories keep pick = 0 and
        # compare a cell against itself, encoding the "stay" direction.
        movable = lengths > 1
        pick = np.zeros(n, dtype=np.int64)
        u = rng.random(n)
        pick[movable] = np.floor(u[movable] * (lengths[movable] - 1)).astype(np.int64)
        idx_a = starts + pick
        idx_b = idx_a + movable.astype(np.int64)
        drow = np.clip(cells[idx_b] // d - cells[idx_a] // d, -1, 1)
        dcol = np.clip(cells[idx_b] % d - cells[idx_a] % d, -1, 1)
        directions = (drow + 1) * 3 + (dcol + 1)

        return TrajectoryReports(
            length_reports=mech.length_oracle.privatize(mech._length_bucket(lengths), seed=rng),
            start_reports=mech.start_oracle.privatize(start_cells, seed=rng),
            direction_reports=mech.direction_oracle.privatize(directions, seed=rng),
            n_users=n,
        )

    def aggregate_reports(self, reports: TrajectoryReports) -> TrajectoryShardAggregate:
        """Reduce raw report streams to their additive sufficient statistic."""
        mech = self.mechanism
        return TrajectoryShardAggregate(
            length_counts=mech.length_oracle.support_counts(reports.length_reports),
            start_counts=mech.start_oracle.support_counts(reports.start_reports),
            direction_counts=mech.direction_oracle.support_counts(
                reports.direction_reports
            ),
            n_users=reports.n_users,
        )

    def collect_aggregate(
        self, trajectories: list[np.ndarray], seed=None
    ) -> TrajectoryShardAggregate:
        """One shard's work: collect reports and reduce them immediately."""
        return self.aggregate_reports(self.collect_reports(trajectories, seed=seed))

    def estimate(self, aggregate: TrajectoryShardAggregate) -> LDPTraceModel:
        """Run the three oracle estimators once over merged aggregate counts.

        Bit-identical to ``oracle.estimate_frequencies`` over the raw concatenated
        reports (the counts are the estimators' sufficient statistic).
        """
        mech = self.mechanism
        return LDPTraceModel(
            length_distribution=mech.length_oracle.estimate_from_counts(
                aggregate.length_counts, aggregate.n_users
            ),
            start_distribution=mech.start_oracle.estimate_from_counts(
                aggregate.start_counts, aggregate.n_users
            ),
            direction_distribution=mech.direction_oracle.estimate_from_counts(
                aggregate.direction_counts, aggregate.n_users
            ),
            length_buckets=mech.length_buckets,
        )

    def collect_aggregate_sharded(
        self,
        trajectories: list[np.ndarray],
        seed=None,
        *,
        workers: int = 1,
        shard_size: int = DEFAULT_TRAJECTORY_SHARD_SIZE,
    ) -> TrajectoryShardAggregate:
        """Collect one epoch's merged aggregate, sharding over the process pool.

        The trajectory list is split into shards of ``shard_size``; each shard draws
        an independent child stream of ``seed`` (``SeedSequence.spawn``), privatizes
        its reports and ships back only its :class:`TrajectoryShardAggregate`; the
        shards are merged into one sufficient statistic.  The result is
        deterministic in ``(seed, shard_size)`` and invariant to ``workers`` —
        the property that makes sharded epochs of a streaming session bit-identical
        at any worker count.
        """
        if not trajectories:
            raise ValueError("cannot fit LDPTrace on an empty trajectory set")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        n_shards = -(-len(trajectories) // shard_size)
        children = spawn_seed_sequences(seed, n_shards)
        tasks = [
            _ShardTask(
                trajectories=trajectories[index * shard_size : (index + 1) * shard_size],
                seed=child,
            )
            for index, child in enumerate(children)
        ]
        aggregates = run_sharded(
            self._spec(), tasks, workers, inline_context=_EngineShardRunner(self)
        )
        # Privatization happens inside each worker's run_shard -> collect_aggregate,
        # which module-local taint analysis cannot see across the process boundary.
        return merge_trajectory_aggregates(aggregates)  # repro-lint: disable=priv-flow

    def fit(
        self,
        trajectories: list[np.ndarray],
        seed=None,
        *,
        workers: int = 1,
        shard_size: int = DEFAULT_TRAJECTORY_SHARD_SIZE,
    ) -> LDPTraceModel:
        """Fit the LDPTrace model, optionally sharding collection over a process pool.

        :meth:`collect_aggregate_sharded` followed by a single :meth:`estimate`
        over the merged counts — deterministic in ``(seed, shard_size)`` and
        invariant to ``workers``.
        """
        return self.estimate(
            self.collect_aggregate_sharded(
                trajectories, seed=seed, workers=workers, shard_size=shard_size
            )
        )

    def fit_reference(self, trajectories: list[np.ndarray], seed=None) -> LDPTraceModel:
        """The retained seed loop (see :meth:`LDPTrace.fit_reference`)."""
        return self.mechanism.fit_reference(trajectories, seed=seed)

    # --------------------------------------------------------------- synthesis
    def _check_model(self, model: LDPTraceModel) -> None:
        if np.shape(model.start_distribution)[0] != self.grid.n_cells:
            raise ValueError(
                f"model start distribution has "
                f"{np.shape(model.start_distribution)[0]} cells but the grid has "
                f"{self.grid.n_cells}"
            )
        if np.shape(model.length_buckets)[0] != np.shape(model.length_distribution)[0] + 1:
            raise ValueError("model length_buckets must have one more edge than buckets")
        if np.shape(model.direction_distribution)[0] != len(DIRECTIONS):
            raise ValueError(
                f"model direction distribution must have {len(DIRECTIONS)} entries"
            )

    def synthesize(
        self, model: LDPTraceModel, n_trajectories: int, seed=None
    ) -> list[np.ndarray]:
        """Batched Markov walk: draw everything in whole-array operations.

        All ``n_trajectories`` length buckets, start cells and per-step direction
        indices are drawn up front (inverse-CDF ``searchsorted`` over the sanitized
        model distributions, padded to the maximum drawn length); the walk itself is
        one vectorised clip-and-step update per time step over every trajectory at
        once (:func:`batched_walk`), and the final cell-to-point jitter is a single
        uniform block over the masked (valid) positions.
        """
        rng = ensure_rng(seed)
        if n_trajectories < 0:
            raise ValueError(f"n_trajectories must be non-negative, got {n_trajectories}")
        if n_trajectories == 0:
            return []
        self._check_model(model)
        d = self.grid.d
        n = n_trajectories
        # Unbiased frequency estimates can be negative or degenerate; sanitize onto
        # the simplex (uniform fallback) before any sampling.
        length_probs = sanitize_probability_vector(model.length_distribution)
        start_probs = sanitize_probability_vector(model.start_distribution)
        direction_probs = sanitize_probability_vector(model.direction_distribution)

        # Lengths: bucket via inverse CDF, then uniform within the bucket.
        n_buckets = length_probs.shape[0]
        buckets = np.searchsorted(np.cumsum(length_probs), rng.random(n), side="right")
        np.clip(buckets, 0, n_buckets - 1, out=buckets)
        lo = np.asarray(model.length_buckets, dtype=float)[buckets]
        hi = np.asarray(model.length_buckets, dtype=float)[buckets + 1]
        lengths = np.maximum(2, np.round(lo + rng.random(n) * (hi - lo)).astype(np.int64))

        # Start cells via inverse CDF over the start distribution.
        cells0 = np.searchsorted(np.cumsum(start_probs), rng.random(n), side="right")
        np.clip(cells0, 0, self.grid.n_cells - 1, out=cells0)

        # Direction matrix: every step of every trajectory, padded to max length.
        max_steps = int(lengths.max()) - 1
        step_idx = inverse_cdf_draws(rng, direction_probs, (n, max_steps), dtype=np.int16)
        rows_t, cols_t = batched_walk(cells0, _DIR_ROW_STEPS[step_idx], _DIR_COL_STEPS[step_idx], d)
        rows, cols = rows_t.T, cols_t.T

        # Mask the padding, jitter every valid cell uniformly, split per trajectory.
        mask = np.arange(max_steps + 1)[None, :] < lengths[:, None]
        flat_rows = rows[mask]
        flat_cols = cols[mask]
        u = rng.random((flat_rows.shape[0], 2))
        x_min, x_max, y_min, y_max = self.grid.domain.bounds
        xs = x_min + (flat_cols + u[:, 0]) * (x_max - x_min) / d
        ys = y_min + (flat_rows + u[:, 1]) * (y_max - y_min) / d
        points = np.column_stack([xs, ys])
        return np.split(points, np.cumsum(lengths)[:-1])

    def synthesize_reference(
        self, model: LDPTraceModel, n_trajectories: int, seed=None
    ) -> list[np.ndarray]:
        """The retained seed loop (see :meth:`LDPTrace.synthesize_reference`)."""
        return self.mechanism.synthesize_reference(model, n_trajectories, seed=seed)

    def fit_synthesize(
        self,
        trajectories: list[np.ndarray],
        seed=None,
        *,
        n_output: int | None = None,
        workers: int = 1,
    ) -> list[np.ndarray]:
        """Convenience: sharded fit followed by batched synthesis."""
        rng = ensure_rng(seed)
        model = self.fit(trajectories, seed=rng, workers=workers)
        count = len(trajectories) if n_output is None else n_output
        return self.synthesize(model, count, seed=rng)
