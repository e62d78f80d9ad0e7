"""The sliding-window estimation service: the batch stack as a long-lived session.

:class:`StreamingEstimationService` ties the streaming pieces together into the
deployment loop a production LDP collector actually runs:

1. **Ingest** — each epoch's reports are privatized (optionally sharded over the
   process pool via :meth:`repro.core.parallel.ParallelPipeline.aggregate`) and
   committed to a :class:`~repro.streaming.window.WindowedAggregator`, sliding the
   analysis window in O(one epoch) of count algebra.
2. **Re-solve** — the window's histogram is re-estimated by
   :func:`~repro.core.postprocess.expectation_maximization` *warm-started from the
   previous epoch's posterior*.  Under drift the posterior moves a little per epoch,
   so the warm solve converges in a small fraction of the cold-start iterations at
   the same final log-likelihood (gated in
   ``benchmarks/test_streaming_throughput.py``).
3. **Publish** — the fresh estimate is swapped into a
   :class:`~repro.queries.engine.StreamingQueryEngine`, so analyst queries running
   mid-stream never observe a half-updated window.  When the service was built
   with a ``snapshot_writer``, the same estimate is also published to the
   shared-memory segment of the :mod:`repro.serving` tier, so out-of-process
   serving workers pick the new window up on their next seqlock read.

Privacy: windowing and warm-starting are pure post-processing of already-privatized
reports — each user's single report is produced by the underlying ε-LDP mechanism
exactly as in the batch pipeline, so the deployment's per-report guarantee is
unchanged (audited in ``tests/streaming/test_streaming_window.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.core.estimator import TransitionMatrixMechanism
from repro.core.parallel import DEFAULT_SHARD_SIZE, MechanismName, ParallelPipeline
from repro.core.postprocess import (
    EM_ITERATIONS,
    EMResult,
    expectation_maximization,
    make_grid_smoother,
)
from repro.queries.engine import StreamingQueryEngine
from repro.serving.shm import SnapshotWriter
from repro.streaming.window import WindowedAggregator
from repro.utils.rng import ensure_rng

#: Mass floor (relative to uniform) applied to the previous posterior before it
#: seeds the next solve: every cell starts at least ``WARM_FLOOR / n_cells``.  EM's
#: updates are multiplicative, so a cell the old window estimated at ~0 could
#: otherwise take hundreds of iterations to regrow when the population drifts onto
#: it — the floor un-sticks those zeros while leaving the informative bulk of the
#: posterior untouched (measured: raw warm starts *lose* to cold starts; floored
#: ones beat them severalfold).
WARM_FLOOR = 0.1


@dataclass(frozen=True)
class EpochUpdate:
    """Everything one epoch's turn of the service loop produced."""

    #: 0-based index of the epoch in the stream.
    epoch: int
    #: users ingested this epoch (after domain filtering)
    n_users_epoch: int
    #: effective user total of the window after the slide (fractional under decay)
    n_users_window: float
    #: EM iterations the (warm-started) re-solve needed
    iterations: int
    #: final log-likelihood of the re-solve
    log_likelihood: float
    #: whether the re-solve converged within the iteration budget
    converged: bool
    #: the published estimate
    estimate: GridDistribution
    #: wall-clock seconds spent privatizing the epoch's reports (0.0 when the
    #: epoch arrived pre-aggregated through :meth:`ingest_aggregate`)
    privatize_seconds: float
    #: wall-clock seconds of the pure window slide (the O(one epoch) count algebra)
    slide_seconds: float
    #: wall-clock seconds spent in the warm-started EM re-solve
    solve_seconds: float


class StreamingEstimationService:
    """Long-lived sliding-window estimation over a continuous report stream.

    Construct directly from a built mechanism (serial ingestion), or through
    :meth:`build` to get the pipeline wiring — domain filtering and ``workers``-way
    sharded privatization — for free.

    Parameters
    ----------
    mechanism:
        A :class:`~repro.core.estimator.TransitionMatrixMechanism` (DAM, DAM-NS,
        HUEM, ...).  The warm-started re-solve drives
        :func:`~repro.core.postprocess.expectation_maximization` with the
        mechanism's transition, so mechanisms without a transition model are
        rejected.
    window_epochs, decay:
        Window geometry — see :class:`~repro.streaming.window.WindowedAggregator`.
    max_iterations, tolerance:
        EM convergence controls for the per-epoch re-solve.
    smoothing_strength:
        Optional EMS smoothing in ``[0, 1]`` applied inside each re-solve
        (``0.0`` — the default — keeps the solve a pure maximum-likelihood EM so
        warm and cold starts share one objective).
    warm_start:
        ``False`` forces every epoch to a cold (uniform-start) solve — the
        ablation the throughput benchmark measures against.  A warm start is the
        previous posterior floored at :data:`WARM_FLOOR`.
    seed:
        Seeds the service's report-privatization stream; epochs consume one shared
        stream, so a fixed seed makes the whole session reproducible.
    pipeline:
        Optional :class:`~repro.core.parallel.ParallelPipeline` whose mechanism is
        ``mechanism``; when present, epochs are privatized through
        :meth:`~repro.core.parallel.ParallelPipeline.aggregate` (sharded, domain
        filtered, worker-pool capable).  :meth:`build` wires this up.
    snapshot_writer:
        Optional :class:`~repro.serving.shm.SnapshotWriter` on this service's
        grid; when present, every epoch's estimate is additionally published to
        its shared-memory segment (after the in-process serving swap), which is
        how the :class:`~repro.serving.server.ServingServer` worker pool sees
        new windows.  The caller owns the writer's lifetime.
    """

    def __init__(
        self,
        mechanism: TransitionMatrixMechanism,
        *,
        window_epochs: int = 8,
        decay: float | None = None,
        max_iterations: int = EM_ITERATIONS,
        tolerance: float = 1e-6,
        smoothing_strength: float = 0.0,
        warm_start: bool = True,
        seed=None,
        pipeline: ParallelPipeline | None = None,
        snapshot_writer: SnapshotWriter | None = None,
    ) -> None:
        if not isinstance(mechanism, TransitionMatrixMechanism):
            raise TypeError(
                "streaming estimation needs a transition-matrix mechanism "
                "(DAM / DAM-NS / HUEM / ...) so the warm-started EM re-solve can "
                f"invert the randomisation; got {type(mechanism).__name__}"
            )
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if pipeline is not None and pipeline.mechanism is not mechanism:
            raise ValueError("pipeline must wrap the same mechanism instance")
        if snapshot_writer is not None and (
            snapshot_writer.grid.d != mechanism.grid.d
            or snapshot_writer.grid.domain.bounds != mechanism.grid.domain.bounds
        ):
            raise ValueError(
                "snapshot_writer grid does not match the mechanism grid "
                f"(d={snapshot_writer.grid.d} vs d={mechanism.grid.d})"
            )
        self.mechanism = mechanism
        self.grid: GridSpec = mechanism.grid
        self.window = WindowedAggregator(mechanism, window_epochs, decay=decay)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.warm_start = bool(warm_start)
        self._smoother = (
            make_grid_smoother(self.grid.d, strength=smoothing_strength)
            if smoothing_strength > 0 and self.grid.d > 1
            else None
        )
        self._rng = ensure_rng(seed)
        self._pipeline = pipeline
        self._theta: np.ndarray | None = None
        self.serving = StreamingQueryEngine()
        self.snapshot_writer = snapshot_writer

    @classmethod
    def build(
        cls,
        domain: SpatialDomain,
        d: int,
        epsilon: float,
        *,
        mechanism: MechanismName = "dam",
        b_hat: int | None = None,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        **kwargs,
    ) -> "StreamingEstimationService":
        """Construct the service from pipeline-style parameters.

        ``workers > 1`` privatizes every epoch on the existing sharded process
        pool; the per-shard RNG derivation keeps the session bit-identical to the
        serial run at any worker count.  Remaining keyword arguments go to the
        service constructor (``window_epochs``, ``decay``, ``seed``, ...).
        """
        pipeline = ParallelPipeline(
            domain,
            d,
            epsilon,
            mechanism=mechanism,
            b_hat=b_hat,
            workers=workers,
            shard_size=shard_size,
        )
        return cls(pipeline.mechanism, pipeline=pipeline, **kwargs)

    # --------------------------------------------------------------- the loop
    @property
    def epochs_processed(self) -> int:
        return self.window.epochs_seen

    @property
    def posterior(self) -> np.ndarray | None:
        """The previous epoch's solved distribution (the next warm start), if any."""
        return None if self._theta is None else self._theta.copy()

    def ingest_epoch(self, points: np.ndarray) -> EpochUpdate:
        """One turn of the service loop: privatize, slide, re-solve, publish."""
        start = time.perf_counter()
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if self._pipeline is not None:
            aggregate = self._pipeline.aggregate(pts, seed=self._rng)
        else:
            pts = pts[self.grid.domain.contains(pts)]
            aggregator = self.mechanism.streaming_aggregator(seed=self._rng)
            aggregator.add_points(pts)
            aggregate = aggregator.state()
        privatize_seconds = time.perf_counter() - start
        return self._ingest(aggregate, privatize_seconds)

    def ingest_aggregate(self, aggregate) -> EpochUpdate:
        """Like :meth:`ingest_epoch` for epochs that arrive pre-aggregated.

        Edge collectors (or the worker pool) may deliver an epoch as its merged
        :class:`~repro.core.estimator.ShardAggregate`; the service then only pays
        the slide, the warm re-solve and the publish.
        """
        return self._ingest(aggregate, 0.0)

    def _ingest(self, aggregate, privatize_seconds: float) -> EpochUpdate:
        start = time.perf_counter()
        self.window.commit_aggregate(aggregate)
        slide_seconds = time.perf_counter() - start

        start = time.perf_counter()
        result = self.solve_window(initial=self.warm_initial())
        solve_seconds = time.perf_counter() - start

        estimate = GridDistribution.from_flat(self.grid, result.estimate)
        self._theta = result.estimate
        epoch = self.window.epochs_seen - 1
        self.serving.refresh(estimate, epoch=epoch)
        if self.snapshot_writer is not None:
            # refresh() above already materialised the summed-area table on this
            # estimate, so the cross-process publish is two buffer copies under
            # the seqlock — no recomputation.
            self.snapshot_writer.publish(estimate, epoch=epoch)
        return EpochUpdate(
            epoch=epoch,
            n_users_epoch=aggregate.n_users,
            n_users_window=self.window.n_users_window,
            iterations=result.iterations,
            log_likelihood=result.log_likelihood,
            converged=result.converged,
            estimate=estimate,
            privatize_seconds=privatize_seconds,
            slide_seconds=slide_seconds,
            solve_seconds=solve_seconds,
        )

    def warm_initial(self) -> np.ndarray | None:
        """The floored previous posterior that seeds the next solve (or ``None``).

        ``None`` — meaning a cold, uniform start — is returned before the first
        epoch lands or when the service was built with ``warm_start=False``.
        """
        if not self.warm_start or self._theta is None:
            return None
        floored = np.maximum(self._theta, WARM_FLOOR / self.grid.n_cells)
        return floored / floored.sum()

    def solve_window(self, *, initial: np.ndarray | None = None) -> EMResult:
        """Re-solve the current window, optionally warm-started.

        ``initial=None`` is the cold start (uniform); :meth:`ingest_epoch` passes
        :meth:`warm_initial`.  Exposed so benchmarks and diagnostics can compare
        both starts on the identical histogram.
        """
        noisy, _, _ = self.window.window_counts()
        return expectation_maximization(
            self.mechanism._estimation_transition(),
            noisy,
            initial=initial,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            smoothing=self._smoother,
        )
