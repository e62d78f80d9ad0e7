"""Epoch-bucketed sufficient statistics with an O(one epoch) sliding window.

A long-lived LDP deployment receives reports continuously.  The batch stack
(:class:`~repro.core.estimator.StreamingAggregator` and everything above it) can
ingest those reports incrementally, but it can only ever *grow*: once an epoch's
counts are folded in they are in forever, so tracking population drift would require
re-scanning every surviving report whenever the analysis window moves.

:class:`WindowedAggregator` removes that re-scan.  Reports are bucketed into
*epochs* (the deployment's collection interval — an hour, a day); each epoch is
reduced to its additive :class:`~repro.core.estimator.ShardAggregate` and a generic
:class:`~repro.streaming.protocol.SlidingAggregateWindow` maintains the running
total of the last ``window_epochs`` epochs by pure count algebra:

* committing an epoch **merges** its histograms (``ShardAggregate.merged``);
* the epoch that falls off the back is **subtracted**
  (``ShardAggregate.subtracted``) — an exact inverse, since histogram counts are
  integer-valued floats far below 2**53 and therefore add and subtract exactly
  (the same algebra :class:`~repro.core.parallel.ParallelPipeline` folds its shards
  with);
* with an optional exponential ``decay`` in ``(0, 1)``, every slide scales the
  running total by the decay before the new epoch lands, so older epochs fade
  smoothly instead of dropping off a cliff (the expired epoch is removed at its
  decayed weight ``decay**window_epochs``).

Either way a window slide costs O(one epoch's histograms) — never O(window), never a
pass over raw reports.  The undecayed algebra is *bit-exact*: a window that merged
and then expired an epoch holds byte-for-byte the counts of a window that never saw
that epoch (property-tested in ``tests/streaming/test_streaming_window.py``).  The
window machinery itself is aggregate-agnostic — the trajectory sessions in
:mod:`repro.streaming.trajectory` slide the very same
:class:`~repro.streaming.protocol.SlidingAggregateWindow` over
:class:`~repro.trajectory.engine.TrajectoryShardAggregate` epochs.
"""

from __future__ import annotations

import numpy as np

from repro.core.domain import GridDistribution
from repro.core.estimator import MechanismReport, ShardAggregate, SpatialMechanism
from repro.streaming.protocol import SlidingAggregateWindow
from repro.utils.rng import ensure_rng


class WindowedAggregator:
    """Sliding-window sufficient statistics over one mechanism's report stream.

    Parameters
    ----------
    mechanism:
        The :class:`~repro.core.estimator.SpatialMechanism` whose reports are being
        windowed; it supplies the output-domain and grid shapes and the
        privatization used by :meth:`ingest_epoch`.
    window_epochs:
        Number of most-recent epochs the window covers.
    decay:
        ``None`` (default) for a hard window — every covered epoch at weight 1 —
        or a factor in ``(0, 1]`` applied to the running totals at every slide.
        ``decay=1.0`` is algebraically identical to ``None`` (multiplying by 1.0 is
        exact), so callers can sweep the decay without special-casing the endpoint.

    Notes
    -----
    The aggregator never holds raw reports: per epoch it keeps one
    :class:`~repro.core.estimator.ShardAggregate` (two histograms and a counter), so
    memory is ``O(window_epochs * (m + d^2))`` regardless of traffic volume.
    Epochs may arrive pre-aggregated (:meth:`commit_aggregate` — e.g. merged shard
    states from a worker pool) or as raw points/cells (:meth:`ingest_epoch` /
    :meth:`ingest_epoch_cells`).
    """

    def __init__(
        self,
        mechanism: SpatialMechanism,
        window_epochs: int,
        *,
        decay: float | None = None,
    ) -> None:
        self.mechanism = mechanism
        self._window = SlidingAggregateWindow(window_epochs, decay=decay)
        self._noisy_shape = (mechanism.output_domain_size(),)
        self._true_shape = (mechanism.grid.n_cells,)

    # ------------------------------------------------------------- inspection
    @property
    def window_epochs(self) -> int:
        return self._window.window_epochs

    @property
    def decay(self) -> float | None:
        return self._window.decay

    @property
    def epochs_seen(self) -> int:
        return self._window.epochs_seen

    @property
    def n_epochs_in_window(self) -> int:
        return self._window.n_epochs_in_window

    @property
    def n_users_window(self) -> float:
        """Effective user total of the window (fractional under decay)."""
        total = self._window.total
        return 0.0 if total is None else float(total.n_users)

    def epoch_aggregates(self) -> tuple[ShardAggregate, ...]:
        """The undecayed per-epoch aggregates currently covered, oldest first."""
        return self._window.epoch_aggregates()

    def window_counts(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Copies of the windowed ``(noisy_counts, true_cell_counts, n_users)``."""
        total = self._window.total
        if total is None:
            return np.zeros(self._noisy_shape), np.zeros(self._true_shape), 0.0
        return (
            total.noisy_counts.copy(),
            total.true_cell_counts.copy(),
            float(total.n_users),
        )

    # -------------------------------------------------------------- ingestion
    def ingest_epoch(self, points: np.ndarray, seed=None) -> ShardAggregate:
        """Privatize one epoch of raw points, commit it, return its aggregate.

        ``seed`` follows the library convention — pass a shared generator to make
        consecutive epochs consume one RNG stream (bit-identical to a batch run
        over the concatenated epochs).
        """
        aggregator = self.mechanism.streaming_aggregator(seed=ensure_rng(seed))
        aggregator.add_points(np.asarray(points, dtype=float))
        aggregate = aggregator.state()
        self.commit_aggregate(aggregate)
        return aggregate

    def ingest_epoch_cells(self, cells: np.ndarray, seed=None) -> ShardAggregate:
        """Like :meth:`ingest_epoch` for callers that already bucketised their data."""
        aggregator = self.mechanism.streaming_aggregator(seed=ensure_rng(seed))
        aggregator.add_cells(np.asarray(cells, dtype=np.int64))
        aggregate = aggregator.state()
        self.commit_aggregate(aggregate)
        return aggregate

    def commit_aggregate(self, aggregate: ShardAggregate) -> ShardAggregate | None:
        """Slide the window by one epoch: fold the new counts in, expire the oldest.

        Returns the expired epoch's (undecayed) aggregate, or ``None`` while the
        window is still filling.  This — one merge, at most one subtraction —
        is the *entire* cost of a slide.
        """
        if not isinstance(aggregate, ShardAggregate):
            raise TypeError(
                f"commit_aggregate expects a ShardAggregate, got {type(aggregate).__name__}"
            )
        if aggregate.noisy_counts.shape != self._noisy_shape:
            raise ValueError(
                f"epoch noisy counts have shape {aggregate.noisy_counts.shape}, "
                f"expected {self._noisy_shape} (different mechanism?)"
            )
        if aggregate.true_cell_counts.shape != self._true_shape:
            raise ValueError(
                f"epoch true-cell counts have shape {aggregate.true_cell_counts.shape}, "
                f"expected {self._true_shape} (different grid?)"
            )
        return self._window.commit(aggregate)

    # ------------------------------------------------------------- estimation
    def finalize(self) -> MechanismReport:
        """Post-process the current window through the mechanism's own estimator.

        The batch-equivalent endpoint: for a hard window this is exactly what
        ``StreamingAggregator.finalize`` would return over the covered epochs'
        reports.  The incremental service bypasses this in favour of the
        warm-started solve (:class:`repro.streaming.StreamingEstimationService`).
        """
        noisy, _, users = self.window_counts()
        estimate = self.mechanism.estimate(noisy, n_users=int(round(users)))
        return MechanismReport(estimate=estimate, noisy_counts=noisy, n_users=int(round(users)))

    def true_distribution(self) -> GridDistribution:
        """The (non-private) empirical distribution of the window's population.

        Serves as the drift-tracking ground truth in evaluations; raises while the
        window is empty.
        """
        _, true_counts, _ = self.window_counts()
        if true_counts.sum() <= 0:
            raise ValueError("the window holds no users yet")
        return GridDistribution.from_flat(self.mechanism.grid, true_counts / true_counts.sum())
