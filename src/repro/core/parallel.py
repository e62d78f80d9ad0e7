"""Algorithm 1 end to end: the DAM processing framework as one sharded pipeline.

Algorithm 1 takes a raw point set, a square range of side ``L``, a cell side ``g`` and
a privacy budget ``eps``; it bucketises the range into a grid, randomises each point's
cell with ``GridAreaResponse``, accumulates the noisy map and post-processes it into a
distribution estimate.  :class:`ParallelPipeline` packages those steps behind a small
API so applications (the examples in ``examples/``) never have to touch transition
matrices, while :func:`estimate_spatial_distribution` is the one-call convenience
entry point.

:meth:`~ParallelPipeline.run`, :meth:`~ParallelPipeline.run_stream` and
:meth:`~ParallelPipeline.aggregate` share one path:

* the points are filtered to the domain and cut into shards (at most ``shard_size``
  users each, never spanning two chunks of a stream);
* each shard is privatized with a deterministically derived per-shard generator
  into its additive partial state (a :class:`~repro.core.estimator.ShardAggregate`
  — two histograms and a counter);
* the aggregates are folded in shard order with
  :meth:`~repro.core.estimator.ShardAggregate.merged`, and one EM solve runs on the
  combined histogram.

With one worker (the default) every shard is privatized and folded as it arrives, so
a stream holds one chunk and the running aggregate at a time, however many users it
carries.  A process pool first collects every shard, then privatizes them in
parallel.

Each shard's generator is the caller's generator state advanced by the number of
users in all preceding shards.  Since every batch sampler in the library consumes
exactly one ``rng.random()`` double per user in input order (see
:meth:`repro.core.operator.DiskTransitionOperator.sample`), the shards jointly
consume the very stream one serial pass would have — so the reports, the histograms
and therefore the estimate are bit-identical to ``pipeline.mechanism.run`` on the
in-domain points with the same seed, for any shard size and any worker count, and
the caller's generator is left where that pass would leave it.  This requires a bit
generator with ``advance`` (PCG64/Philox — i.e. everything ``default_rng``
produces).

Workers are plain processes (``concurrent.futures.ProcessPoolExecutor``); each builds
its mechanism once from a small picklable spec in the pool initializer, so shipping
work to a shard costs one point array and one generator state, and shipping the result
back costs two histograms.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.core.estimator import ShardAggregate, TransitionMatrixMechanism
from repro.core.huem import DiscreteHUEM
from repro.core.radius import grid_radius
from repro.utils.rng import (
    ensure_rng,
    generator_from_state,
    generator_state,
    supports_stream_splitting,
)
from repro.utils.validation import check_epsilon, check_grid_side

MechanismName = Literal["dam", "dam-ns", "huem"]

#: Default number of users per shard.  Large enough that per-shard Python overhead
#: (pickling, one bincount) is negligible, small enough that a handful of shards
#: exist even for modest datasets so every worker gets something to do.
DEFAULT_SHARD_SIZE = 50_000


@dataclass
class PipelineResult:
    """Everything Algorithm 1 produces, plus bookkeeping useful to applications."""

    #: the reconstructed distribution map ``R`` over the input grid
    estimate: GridDistribution
    #: the true (non-private) empirical distribution, for utility evaluation
    true_distribution: GridDistribution
    #: histogram of noisy reports over the mechanism's output domain
    noisy_counts: np.ndarray
    #: number of users that contributed a report
    n_users: int
    #: the integer high-probability radius actually used
    b_hat: int
    #: name of the mechanism used
    mechanism: str = "DAM"
    #: extra metadata (epsilon, grid side, ...)
    info: dict = field(default_factory=dict)


def _build_mechanism(
    name: MechanismName, grid: GridSpec, epsilon: float, b_hat: int
) -> TransitionMatrixMechanism:
    if name == "dam":
        return DiscreteDAM(grid, epsilon, b_hat=b_hat)
    if name == "dam-ns":
        return DiscreteDAM(grid, epsilon, b_hat=b_hat, use_shrinkage=False)
    if name == "huem":
        return DiscreteHUEM(grid, epsilon, b_hat=b_hat)
    raise ValueError(f"unknown mechanism {name!r}; expected 'dam', 'dam-ns' or 'huem'")


@dataclass(frozen=True)
class _PipelineSpec:
    """Everything a worker needs to rebuild the mechanism — tiny and picklable."""

    bounds: tuple[float, float, float, float]
    domain_name: str
    d: int
    epsilon: float
    mechanism: MechanismName
    b_hat: int

    def build(self) -> "_PipelineShardRunner":
        grid = GridSpec(SpatialDomain(*self.bounds, name=self.domain_name), self.d)
        return _PipelineShardRunner(
            _build_mechanism(self.mechanism, grid, self.epsilon, self.b_hat)
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


@dataclass
class _PipelineShardRunner:
    """Worker context of the pipeline: one built mechanism, one shard at a time."""

    mechanism: TransitionMatrixMechanism

    def run_shard(self, task: _ShardTask) -> ShardAggregate:
        """Privatize one shard and return its additive partial state."""
        rng = generator_from_state(task.base_state, advance_by=task.offset)
        aggregator = self.mechanism.streaming_aggregator(seed=rng)
        aggregator.add_points(task.points)
        return aggregator.state()


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
    """The DAM Processing Framework (Algorithm 1): sharded privatization, one EM solve.

    Parameters
    ----------
    domain:
        The square (or rectangular) region covered by the analysis.
    d:
        Number of grid cells per side (the paper's discrete side length).
    epsilon:
        Privacy budget per user report.
    mechanism:
        ``"dam"`` (default), ``"dam-ns"`` (no shrinkage) or ``"huem"``; it
        post-processes with EMS, the paper's choice.
    b_hat:
        Optional override of the integer high-probability radius; defaults to the
        mutual-information-optimal choice of Section V-C.
    workers:
        Size of the process pool.  ``1`` (the default) privatizes every shard
        inline, as it arrives, without subprocesses.
    shard_size:
        Largest number of users per shard.  :meth:`run_stream` additionally cuts
        at the caller's chunk boundaries.
    """

    def __init__(
        self,
        domain: SpatialDomain,
        d: int,
        epsilon: float,
        *,
        mechanism: MechanismName = "dam",
        b_hat: int | None = None,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        self.domain = domain
        self.d = check_grid_side(d)
        self.epsilon = check_epsilon(epsilon)
        self.grid = GridSpec(domain, self.d)
        if b_hat is None:
            b_hat = grid_radius(self.epsilon, self.d, domain.side_length)
        self.b_hat = int(b_hat)
        self.mechanism = _build_mechanism(mechanism, self.grid, self.epsilon, self.b_hat)
        self._spec = _PipelineSpec(
            bounds=domain.bounds,
            domain_name=domain.name,
            d=self.d,
            epsilon=self.epsilon,
            mechanism=mechanism,
            b_hat=self.b_hat,
        )
        self._runner = _PipelineShardRunner(self.mechanism)

    # ------------------------------------------------------------ public API
    def run(self, points: np.ndarray, seed=None) -> PipelineResult:
        """Execute Algorithm 1 on a raw point set and return the distribution map.

        The result is bit-identical to ``self.mechanism.run`` on the in-domain
        points with the same seed, regardless of ``workers`` and ``shard_size``.
        """
        return self.run_stream([points], seed=seed)

    def run_stream(self, chunks: Iterable[np.ndarray], seed=None) -> PipelineResult:
        """Execute Algorithm 1 over an iterable of point-array chunks.

        With one worker each chunk is privatized and folded before the next is
        pulled, so memory stays bounded by one chunk plus two histograms however
        many users stream through; a pool holds every filtered chunk until it
        dispatches.  The result is bit-identical to :meth:`run` on the
        concatenated chunks.
        """
        total, dropped, n_shards = self._fold(chunks, seed)
        if total.n_users == 0:
            raise ValueError("no points inside the domain were ingested")
        true_counts = total.true_cell_counts
        return PipelineResult(
            estimate=self.mechanism.estimate(total.noisy_counts, n_users=total.n_users),
            true_distribution=GridDistribution.from_flat(
                self.grid, true_counts / true_counts.sum()
            ),
            noisy_counts=total.noisy_counts,
            n_users=total.n_users,
            b_hat=self.b_hat,
            mechanism=self.mechanism.name,
            info={
                "epsilon": self.epsilon,
                "d": self.d,
                "dropped_points": dropped,
                "streamed": True,
                "parallel": True,
                "workers": min(self.workers, n_shards),
                "n_shards": n_shards,
            },
        )

    def aggregate(self, points: np.ndarray, seed=None) -> ShardAggregate:
        """Privatize one point set and return only the folded counts.

        Same path as :meth:`run` (and the same bit-identical RNG guarantees), but
        the result is the additive :class:`~repro.core.estimator.ShardAggregate`
        *before* any estimation solve.  This is the ingestion primitive of the
        streaming service (:class:`repro.streaming.StreamingEstimationService`),
        which folds each epoch's aggregate into its window and runs its own
        warm-started solve — solving here per epoch would throw the warm start away.
        """
        return self._fold([points], seed)[0]

    # -------------------------------------------------------------- plumbing
    def _fold(self, chunks: Iterable[np.ndarray], seed) -> tuple[ShardAggregate, int, int]:
        """Filter, shard, privatize and fold ``chunks``: the path of every entry point.

        Returns the folded aggregate, the number of points dropped outside the
        domain and the number of shards.
        """
        rng = ensure_rng(seed)
        if not supports_stream_splitting(rng):
            raise ValueError(
                f"bit generator {type(rng.bit_generator).__name__} does not support "
                "advance(); pass a PCG64-backed seed"
            )
        base_state = generator_state(rng)
        total = ShardAggregate(
            noisy_counts=np.zeros(self.mechanism.output_domain_size()),
            true_cell_counts=np.zeros(self.grid.n_cells),
            n_users=0,
        )
        pending: list[_ShardTask] = []
        dropped = offset = n_shards = 0
        for chunk in chunks:
            pts = np.asarray(chunk, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
            inside = self.domain.contains(pts)
            dropped += int((~inside).sum())
            pts = pts[inside]
            for shard in np.array_split(pts, max(1, -(-pts.shape[0] // self.shard_size))):
                task = _ShardTask(points=shard, base_state=base_state, offset=offset)
                offset += shard.shape[0]
                n_shards += 1
                if self.workers == 1:
                    total = total.merged(self._runner.run_shard(task))
                else:
                    pending.append(task)
        for aggregate in run_sharded(
            self._spec, pending, self.workers, inline_context=self._runner
        ):
            total = total.merged(aggregate)
        # Leave the caller's generator exactly where a serial pass (one double per
        # user) would have left it, so downstream draws match the serial schedule.
        rng.bit_generator.advance(offset)
        return total, dropped, n_shards


def estimate_spatial_distribution(
    points: np.ndarray,
    epsilon: float,
    *,
    d: int = 15,
    domain: SpatialDomain | None = None,
    mechanism: MechanismName = "dam",
    seed=None,
) -> PipelineResult:
    """One-call private spatial distribution estimation.

    This is the quickstart entry point: give it raw ``(n, 2)`` locations and a privacy
    budget and it returns the privately estimated density map together with the true
    empirical map for comparison.  The analysis domain defaults to the bounding box of
    the data (note that deriving the box from the data itself is a convenience for
    experimentation — a production deployment should fix the domain a priori so that it
    does not leak information).  It runs a one-worker :class:`ParallelPipeline`, so
    ``seed`` must be PCG64-backed like everywhere else on that path.
    """
    pts = np.asarray(points, dtype=float)
    if domain is None:
        # Relative pad: an absolute epsilon underflows for projected coordinates
        # (~1e6 m), leaving boundary points on the box edge.
        domain = SpatialDomain.from_points(pts, relative_pad=1e-9)
    return ParallelPipeline(domain, d, epsilon, mechanism=mechanism).run(pts, seed=seed)
