"""Parallel sharded execution of the DAM pipeline.

:class:`~repro.core.pipeline.DAMPipeline` processes every user in one process.  This
module scales the privatization stage across a process pool while keeping the result
*bit-identical* to the serial path:

* the user population is split into shards;
* each worker privatizes its shards with a deterministically derived per-shard
  generator and returns only the additive partial state (a
  :class:`~repro.core.estimator.ShardAggregate` — two histograms and a counter);
* the coordinator merges the shard aggregates in shard order and runs a single EM
  solve on the combined histogram, exactly as the serial pipeline would.

Every worker rebuilds the *same* base generator state and advances it by the number
of users in all preceding shards.  Since every batch sampler in the library consumes
exactly one ``rng.random()`` double per user in input order (see
:meth:`repro.core.operator.DiskTransitionOperator.sample`), the shards jointly
consume the very stream a serial pass would have — so the reports, the histograms
and therefore the estimate are bit-identical to :meth:`DAMPipeline.run` /
:meth:`DAMPipeline.run_stream` with the same seed, for any shard size and any worker
count.  This requires a bit generator with ``advance`` (PCG64/Philox — i.e.
everything ``default_rng`` produces).

Workers are plain processes (``concurrent.futures.ProcessPoolExecutor``); each builds
its mechanism once from a small picklable spec in the pool initializer, so shipping
work to a shard costs one point array and one generator state, and shipping the result
back costs two histograms.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.domain import GridDistribution, SpatialDomain
from repro.core.estimator import ShardAggregate
from repro.core.pipeline import DAMPipeline, MechanismName, PipelineResult
from repro.utils.rng import (
    ensure_rng,
    generator_from_state,
    generator_state,
    supports_stream_splitting,
)

#: Default number of users per shard.  Large enough that per-shard Python overhead
#: (pickling, one bincount) is negligible, small enough that a handful of shards
#: exist even for modest datasets so every worker gets something to do.
DEFAULT_SHARD_SIZE = 50_000


@dataclass(frozen=True)
class _PipelineSpec:
    """Everything a worker needs to rebuild the pipeline — tiny and picklable."""

    bounds: tuple[float, float, float, float]
    domain_name: str
    d: int
    epsilon: float
    mechanism: MechanismName
    b_hat: int | None

    def build(self) -> "_PipelineShardRunner":
        domain = SpatialDomain(*self.bounds, name=self.domain_name)
        return _PipelineShardRunner(
            DAMPipeline(domain, self.d, self.epsilon, mechanism=self.mechanism, b_hat=self.b_hat)
        )


@dataclass(frozen=True)
class _ShardTask:
    """One unit of work: a filtered point shard plus where its draws start.

    The shard's generator is the shared base state advanced by ``offset``, the
    number of users in all preceding shards.
    """

    points: np.ndarray
    base_state: dict
    offset: int


def _privatize_shard(pipeline: DAMPipeline, task: _ShardTask) -> ShardAggregate:
    """Privatize one shard and return its additive partial state."""
    rng = generator_from_state(task.base_state, advance_by=task.offset)
    aggregator = pipeline.mechanism.streaming_aggregator(seed=rng)
    aggregator.add_points(task.points)
    return aggregator.state()


@dataclass
class _PipelineShardRunner:
    """Worker context of the DAM pipeline: one built pipeline, one shard at a time."""

    pipeline: DAMPipeline

    def run_shard(self, task: _ShardTask) -> ShardAggregate:
        return _privatize_shard(self.pipeline, task)


# Worker-process global, installed once per worker by the pool initializer so the
# (comparatively expensive) per-worker context construction is not repeated per shard.
_WORKER_CONTEXT = None


def _shard_worker_init(spec) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = spec.build()


def _shard_worker_run(task):
    assert _WORKER_CONTEXT is not None, "shard pool initializer did not run"
    return _WORKER_CONTEXT.run_shard(task)


def run_sharded(spec, tasks: Sequence, workers: int, *, inline_context=None) -> list:
    """Map shard tasks to their mergeable aggregates, optionally on a process pool.

    The generic fan-out protocol shared by :class:`ParallelPipeline` and the
    trajectory engine (:class:`repro.trajectory.engine.TrajectoryEngine`):

    * ``spec`` is a small picklable value object whose ``build()`` constructs the
      per-worker context exactly once (in the pool initializer);
    * the context's ``run_shard(task)`` maps one task to its additive partial
      state (a :class:`~repro.core.estimator.ShardAggregate` or any other
      mergeable aggregate), which is all that travels back to the coordinator.

    With ``workers <= 1`` or a single task the same plan runs inline without
    subprocesses; ``inline_context`` lets callers reuse an already-built context
    on that path instead of paying ``spec.build()`` again.
    """
    if not tasks:
        return []
    n_workers = min(int(workers), len(tasks))
    if n_workers <= 1:
        context = inline_context if inline_context is not None else spec.build()
        return [context.run_shard(task) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_shard_worker_init,
        initargs=(spec,),
    ) as pool:
        return list(pool.map(_shard_worker_run, tasks))


class ParallelPipeline:
    """Shard-parallel Algorithm 1: privatize on a worker pool, solve EM once.

    Parameters
    ----------
    domain, d, epsilon, mechanism, b_hat:
        Exactly as for :class:`~repro.core.pipeline.DAMPipeline`.
    workers:
        Size of the process pool.  ``None`` uses ``os.cpu_count()``; ``1`` executes
        the same sharded plan inline (no subprocesses), which is useful for tests
        and single-core machines.
    shard_size:
        Number of users per shard for :meth:`run`.  :meth:`run_stream` shards at
        the caller's chunk boundaries instead.
    """

    def __init__(
        self,
        domain: SpatialDomain,
        d: int,
        epsilon: float,
        *,
        mechanism: MechanismName = "dam",
        b_hat: int | None = None,
        workers: int | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        self.pipeline = DAMPipeline(domain, d, epsilon, mechanism=mechanism, b_hat=b_hat)
        self._spec = _PipelineSpec(
            bounds=domain.bounds,
            domain_name=domain.name,
            d=d,
            epsilon=epsilon,
            mechanism=mechanism,
            b_hat=self.pipeline.b_hat,
        )

    # ------------------------------------------------------------ public API
    @property
    def domain(self) -> SpatialDomain:
        return self.pipeline.domain

    @property
    def grid(self):
        return self.pipeline.grid

    @property
    def b_hat(self) -> int:
        return self.pipeline.b_hat

    def run(self, points: np.ndarray, seed=None) -> PipelineResult:
        """Parallel Algorithm 1 over one point set.

        The result is bit-identical to ``DAMPipeline.run(points, seed=seed)``
        regardless of ``workers`` and ``shard_size``.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        inside = self.domain.contains(pts)
        dropped = int((~inside).sum())
        pts = pts[inside]
        n_shards = max(1, -(-pts.shape[0] // self.shard_size))
        shards = np.array_split(pts, n_shards)
        return self._execute(shards, dropped, seed)

    def run_stream(self, chunks: Iterable[np.ndarray], seed=None) -> PipelineResult:
        """Parallel Algorithm 1 over an iterable of point-array shards.

        Each chunk becomes one shard.  The result is bit-identical to
        ``DAMPipeline.run_stream(chunks, seed=seed)``; note that
        unlike the serial version the chunks are materialised into a shard list
        before dispatch, so peak memory is the total filtered point count.
        """
        shards: list[np.ndarray] = []
        dropped = 0
        for chunk in chunks:
            pts = np.asarray(chunk, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
            inside = self.domain.contains(pts)
            dropped += int((~inside).sum())
            shards.append(pts[inside])
        return self._execute(shards, dropped, seed)

    # -------------------------------------------------------------- plumbing
    def _shard_tasks(self, shards: Sequence[np.ndarray], seed) -> list[_ShardTask]:
        rng = ensure_rng(seed)
        if not supports_stream_splitting(rng):
            raise ValueError(
                f"bit generator {type(rng.bit_generator).__name__} does not support "
                "advance(); pass a PCG64-backed seed"
            )
        base_state = generator_state(rng)
        sizes = [int(shard.shape[0]) for shard in shards]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        # Leave the caller's generator exactly where a serial pass (one double per
        # user) would have left it, so downstream draws match the serial schedule.
        rng.bit_generator.advance(int(offsets[-1]))
        return [
            _ShardTask(points=shard, base_state=base_state, offset=int(offset))
            for shard, offset in zip(shards, offsets[:-1])
        ]

    def aggregate(self, points: np.ndarray, seed=None):
        """Privatize one point set on the pool and return only the merged counts.

        Same sharded fan-out as :meth:`run` (and the same bit-identical RNG
        guarantees), but the result is the additive
        :class:`~repro.core.estimator.ShardAggregate` *before* any estimation solve.
        This is the ingestion primitive of the streaming service
        (:class:`repro.streaming.StreamingEstimationService`), which folds each
        epoch's aggregate into its window and runs its own warm-started solve —
        solving here per epoch would throw the warm start away.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        pts = pts[self.domain.contains(pts)]
        n_shards = max(1, -(-pts.shape[0] // self.shard_size))
        shards = np.array_split(pts, n_shards)
        return self._merge_shards(shards, seed).state()

    def _merge_shards(self, shards: list[np.ndarray], seed):
        """Fan the shards out, merge the partial states into one fresh aggregator."""
        tasks = self._shard_tasks(shards, seed)
        aggregates = run_sharded(
            self._spec,
            tasks,
            min(self.workers, len(tasks)),
            inline_context=_PipelineShardRunner(self.pipeline),
        )
        aggregator = self.pipeline.mechanism.streaming_aggregator()
        for aggregate in aggregates:
            aggregator.merge(aggregate)
        return aggregator

    def _execute(self, shards: list[np.ndarray], dropped: int, seed) -> PipelineResult:
        if sum(shard.shape[0] for shard in shards) == 0:
            raise ValueError("no points inside the domain were ingested")
        n_workers = min(self.workers, len(shards))
        aggregator = self._merge_shards(shards, seed)
        report = aggregator.finalize()
        return PipelineResult(
            estimate=report.estimate,
            true_distribution=GridDistribution.from_flat(
                self.grid, aggregator.true_cell_counts / aggregator.true_cell_counts.sum()
            ),
            noisy_counts=report.noisy_counts,
            n_users=report.n_users,
            b_hat=self.b_hat,
            mechanism=self.pipeline.mechanism.name,
            info={
                "epsilon": self.pipeline.epsilon,
                "d": self.pipeline.d,
                "dropped_points": dropped,
                "streamed": True,
                "parallel": True,
                "workers": n_workers if shards else 0,
                "n_shards": len(shards),
            },
        )
