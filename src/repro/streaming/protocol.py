"""The mergeable-aggregate protocol and the generic sliding window over it.

Every scaled execution path in this repository — the sharded process pool
(:func:`repro.core.parallel.run_sharded`), the point sliding window
(:class:`repro.streaming.window.WindowedAggregator`) and the trajectory sessions
(:class:`repro.streaming.trajectory.StreamingTrajectoryService`) — reduces its
input to *additive sufficient statistics* and then works in pure count algebra.
This module names that contract once and implements the window over it, so any
aggregate that satisfies the laws below slides for free.

The protocol
------------

An aggregate is a value object carrying one population's counts:
:class:`repro.core.estimator.ShardAggregate` and
:class:`repro.trajectory.engine.TrajectoryShardAggregate` are frozen dataclasses
whose ``merged(self, other)`` / ``subtracted(self, other)`` return *new*
aggregates, plus ``scaled(self, factor)`` / ``clamped(self)`` for the decayed
window variant (the ``agg-protocol`` lint rule checks the exact signatures).
Ingestion builds them: :class:`repro.core.estimator.StreamingAggregator` privatizes
reports into running histograms and ``state()`` snapshots them as a
``ShardAggregate``.

The laws (property-tested in ``tests/streaming/``):

* ``merged`` is commutative and associative — shard and merge in any order;
* ``subtracted`` is the **exact inverse** of ``merged``:
  ``a.merged(b).subtracted(b)`` is *bit-identical* to ``a``.  This is not an
  approximation: every count is an integer-valued float far below ``2**53``, so
  IEEE-754 addition and subtraction are exact on them;
* ``scaled(1.0)`` is the identity (multiplying by 1.0 is exact), so decayed and
  hard windows share one slide path;
* solving (EM for point mechanisms, the closed-form oracle estimators for
  trajectories) reads *only* the merged counts, so ``solve(merge(shards))`` is
  bit-identical to a serial pass over the concatenated reports.

:class:`SlidingAggregateWindow` needs nothing else: a window slide is one
``merged`` plus at most one ``subtracted`` — O(one epoch's counts), never a
re-scan of surviving reports, for *any* conforming aggregate type.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, TypeVar, runtime_checkable


@runtime_checkable
class MergeableAggregate(Protocol):
    """A functional additive aggregate: pure merge with an exact inverse."""

    def merged(self, other):
        """A new aggregate holding ``self``'s and ``other``'s counts."""
        ...

    def subtracted(self, other):
        """The exact inverse of :meth:`merged` — retire ``other``'s counts."""
        ...


@runtime_checkable
class DecayableAggregate(MergeableAggregate, Protocol):
    """A mergeable aggregate that additionally supports exponential decay."""

    def scaled(self, factor):
        """A new aggregate with every count multiplied by ``factor``."""
        ...

    def clamped(self):
        """A new aggregate with negative float-decay residues clamped to zero."""
        ...


A = TypeVar("A", bound=MergeableAggregate)


class SlidingAggregateWindow:
    """A sliding window over any mergeable aggregate, in O(one epoch) per slide.

    The type-agnostic core that :class:`repro.streaming.window.WindowedAggregator`
    (point mechanisms) and
    :class:`repro.streaming.trajectory.StreamingTrajectoryService` (trajectory
    mechanisms) are both built on.  The window holds the last ``window_epochs``
    per-epoch aggregates plus one running total maintained purely through the
    protocol:

    * committing an epoch **merges** its aggregate into the total;
    * the epoch that falls off the back is **subtracted** — bit-exact, by the
      integer-count argument in the module docstring;
    * with ``decay`` in ``(0, 1]``, the running total is **scaled** by the decay
      before each new epoch lands and the expired epoch is retired at its decayed
      weight ``decay**window_epochs``, with :meth:`~DecayableAggregate.clamped`
      absorbing the ~1e-17 float residues decay can leave behind.

    Parameters
    ----------
    window_epochs:
        Number of most-recent epochs the window covers.
    decay:
        ``None`` (default) for a hard window, or a factor in ``(0, 1]`` applied to
        the running total at every slide.  ``decay=1.0`` is algebraically
        identical to ``None`` (scaling by 1.0 is exact).  Decay requires the
        committed aggregates to conform to :class:`DecayableAggregate`.
    """

    def __init__(self, window_epochs: int, *, decay: float | None = None) -> None:
        if window_epochs < 1:
            raise ValueError(f"window_epochs must be >= 1, got {window_epochs}")
        if decay is not None and not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        self.window_epochs = int(window_epochs)
        self.decay = decay
        self._epochs: deque = deque()
        self._total = None
        self.epochs_seen = 0

    # ------------------------------------------------------------- inspection
    @property
    def n_epochs_in_window(self) -> int:
        return len(self._epochs)

    @property
    def total(self):
        """The running window total, or ``None`` before the first commit."""
        return self._total

    def epoch_aggregates(self) -> tuple:
        """The undecayed per-epoch aggregates currently covered, oldest first."""
        return tuple(self._epochs)

    # ------------------------------------------------------------------ slide
    def commit(self, aggregate):
        """Slide the window by one epoch; return the expired aggregate (if any).

        One ``merged``, at most one ``subtracted`` (plus two ``scaled`` under
        decay) — that is the *entire* cost of a slide, for any aggregate type.
        """
        protocol = MergeableAggregate if self.decay is None else DecayableAggregate
        if not isinstance(aggregate, protocol):
            raise TypeError(
                f"commit expects a {protocol.__name__} "
                f"(merged/subtracted{'' if self.decay is None else '/scaled/clamped'}), "
                f"got {type(aggregate).__name__}"
            )
        if self.decay is not None and self._total is not None:
            self._total = self._total.scaled(self.decay)
        self._total = aggregate if self._total is None else self._total.merged(aggregate)
        self._epochs.append(aggregate)
        self.epochs_seen += 1

        expired = None
        if len(self._epochs) > self.window_epochs:
            expired = self._epochs.popleft()
            if self.decay is None:
                self._total = self._total.subtracted(expired)
            else:
                # The expired epoch entered at weight 1 and was decayed once per
                # subsequent slide, so it leaves at decay**window_epochs; float
                # decay can leave ~1e-17 residues on counts the expired epoch
                # owned exclusively — clamp them so downstream solvers see a
                # valid histogram.  The undecayed path is exact and never clamps.
                weight = self.decay**self.window_epochs
                self._total = self._total.subtracted(expired.scaled(weight)).clamped()
        return expired
