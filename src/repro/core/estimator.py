"""Frequency-oracle protocol shared by DAM and every baseline mechanism.

The paper frames every mechanism as a Frequency Oracle ``FO = <T, E>``: a randomised
reporting function ``T`` run by each user and an estimation function ``E`` run by the
analyst.  :class:`SpatialMechanism` captures that contract for mechanisms operating on
a :class:`~repro.core.domain.GridSpec`:

* :meth:`SpatialMechanism.privatize_cells` is ``T`` — it maps true cell indices to
  noisy report indices in the mechanism's own output domain;
* :meth:`SpatialMechanism.estimate` is ``E`` — it maps the histogram of noisy reports
  back to a :class:`~repro.core.domain.GridDistribution` over the input grid.

Mechanisms that perturb raw coordinates rather than cells (e.g. the continuous SAM
samplers) can still participate through :meth:`privatize_points`.

Two throughput facilities live here as well:

* :class:`TransitionMatrixMechanism` privatizes whole user batches with per-row
  cumulative distributions and a single ``searchsorted`` over one uniform draw batch
  (or delegates to a structured :class:`~repro.core.operator.DiskTransitionOperator`
  when one is installed), instead of one ``Generator.choice`` call per distinct cell;
* :class:`StreamingAggregator` ingests reports in shards so callers never have to
  hold all points in memory; its :class:`ShardAggregate` snapshots are the one count
  algebra that shards, windows and the pipeline fold with.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.domain import GridDistribution, GridSpec
from repro.utils.rng import ensure_rng, sample_grouped_inverse_cdf
from repro.utils.validation import check_epsilon


@dataclass
class MechanismReport:
    """The output of one end-to-end mechanism run.

    Attributes
    ----------
    estimate:
        The reconstructed distribution over the input grid.
    noisy_counts:
        Histogram of noisy reports over the mechanism's output domain.
    n_users:
        Number of users that reported.
    """

    estimate: GridDistribution
    noisy_counts: np.ndarray
    n_users: int


class SpatialMechanism(abc.ABC):
    """Base class for ε-LDP (or ε-Geo-I) spatial distribution estimators."""

    #: Short display name used by the experiment runner and benchmark tables.
    name: str = "mechanism"

    def __init__(self, grid: GridSpec, epsilon: float) -> None:
        self.grid = grid
        self.epsilon = check_epsilon(epsilon)

    # ------------------------------------------------------------------ T
    @abc.abstractmethod
    def privatize_cells(self, cells: np.ndarray, seed=None) -> np.ndarray:
        """Randomise true (flattened) input-cell indices into noisy report indices.

        ``cells`` is an integer array of length ``n_users``; the return value is an
        integer array of the same length indexing the mechanism's output domain
        (``self.output_domain_size()`` categories).
        """

    # ------------------------------------------------------------------ E
    @abc.abstractmethod
    def estimate(self, noisy_counts: np.ndarray, n_users: int) -> GridDistribution:
        """Reconstruct the input distribution from the noisy-report histogram."""

    @abc.abstractmethod
    def output_domain_size(self) -> int:
        """Number of distinct values a noisy report can take."""

    # ------------------------------------------------------- conveniences
    def privatize_points(self, points: np.ndarray, seed=None) -> np.ndarray:
        """Bucketise raw points onto the grid, then privatise the cell indices."""
        cells = self.grid.point_to_cell(points)
        return self.privatize_cells(cells, seed=seed)

    def aggregate(self, reports: np.ndarray) -> np.ndarray:
        """Histogram of noisy reports over the output domain."""
        reports = np.asarray(reports, dtype=np.int64)
        if reports.size and (reports.min() < 0 or reports.max() >= self.output_domain_size()):
            raise ValueError(
                "reports contain indices outside the output domain "
                f"[0, {self.output_domain_size()})"
            )
        return np.bincount(reports, minlength=self.output_domain_size()).astype(float)

    def run(self, points: np.ndarray, seed=None) -> MechanismReport:
        """End-to-end: bucketise, privatise, aggregate and estimate.

        This is Algorithm 1 of the paper specialised to the mechanism at hand.
        """
        rng = ensure_rng(seed)
        pts = np.asarray(points, dtype=float)
        reports = self.privatize_points(pts, seed=rng)
        noisy_counts = self.aggregate(reports)
        estimate = self.estimate(noisy_counts, n_users=pts.shape[0])
        return MechanismReport(estimate=estimate, noisy_counts=noisy_counts, n_users=pts.shape[0])

    def run_cells(self, cells: np.ndarray, seed=None) -> MechanismReport:
        """Like :meth:`run` but for callers that already bucketised their data."""
        rng = ensure_rng(seed)
        cells = np.asarray(cells, dtype=np.int64)
        reports = self.privatize_cells(cells, seed=rng)
        noisy_counts = self.aggregate(reports)
        estimate = self.estimate(noisy_counts, n_users=cells.shape[0])
        return MechanismReport(estimate=estimate, noisy_counts=noisy_counts, n_users=cells.shape[0])

    def streaming_aggregator(self, seed=None) -> "StreamingAggregator":
        """A chunked-ingestion aggregator bound to this mechanism."""
        return StreamingAggregator(self, seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(d={self.grid.d}, epsilon={self.epsilon}, "
            f"outputs={self.output_domain_size()})"
        )


class TransitionMatrixMechanism(SpatialMechanism):
    """A mechanism fully described by a per-cell transition matrix.

    Subclasses install the randomisation either as a dense matrix
    (``transition[i, j] = Pr(report = j | true cell = i)``, via
    :meth:`_set_transition`) or as a structured
    :class:`~repro.core.operator.DiskTransitionOperator` (via :meth:`_set_operator`),
    in which case the dense matrix is only materialised on demand.  Either way this
    base class provides batch sampling — per-row cumulative distributions answered
    with one ``searchsorted`` over a single uniform draw batch — and estimation via
    expectation maximisation.
    """

    def __init__(self, grid: GridSpec, epsilon: float) -> None:
        super().__init__(grid, epsilon)
        self._transition: np.ndarray | None = None
        self._operator = None
        self._row_cdf: np.ndarray | None = None

    @property
    def transition(self) -> np.ndarray:
        """The ``(n_input_cells, n_output_cells)`` row-stochastic transition matrix.

        For operator-backed mechanisms the dense matrix is materialised lazily on
        first access and cached; the hot paths (sampling, EM) never require it.
        """
        if self._transition is None:
            if self._operator is not None:
                self._transition = self._operator.to_dense()
            else:
                raise RuntimeError(
                    f"{type(self).__name__} has not built its transition matrix yet"
                )
        return self._transition

    @property
    def operator(self):
        """The structured transition operator, or ``None`` for dense mechanisms."""
        return self._operator

    def _set_transition(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.grid.n_cells:
            raise ValueError(
                f"transition must have {self.grid.n_cells} rows, got shape {matrix.shape}"
            )
        rows = matrix.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-6):
            raise ValueError("transition rows must sum to 1")
        self._transition = matrix
        self._operator = None
        self._row_cdf = None

    def _set_operator(self, operator) -> None:
        if operator.shape[0] != self.grid.n_cells:
            raise ValueError(
                f"operator must have {self.grid.n_cells} rows, got shape {operator.shape}"
            )
        self._operator = operator
        self._transition = None
        self._row_cdf = None

    def _estimation_transition(self):
        """What :func:`expectation_maximization` should consume: operator if present."""
        return self._operator if self._operator is not None else self.transition

    def output_domain_size(self) -> int:
        if self._operator is not None:
            return self._operator.shape[1]
        return self.transition.shape[1]

    def privatize_cells(self, cells: np.ndarray, seed=None) -> np.ndarray:
        rng = ensure_rng(seed)
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and (cells.min() < 0 or cells.max() >= self.grid.n_cells):
            raise ValueError(f"cell indices must lie in [0, {self.grid.n_cells})")
        if self._operator is not None:
            return self._operator.sample(cells, rng)
        return self._sample_from_rows(cells, rng)

    def _sample_from_rows(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling over the cached per-row cumulative distributions."""
        if self._row_cdf is None:
            self._row_cdf = np.cumsum(self.transition, axis=1)
        return sample_grouped_inverse_cdf(
            rng, cells, self._row_cdf.__getitem__, self._row_cdf.shape[1]
        )

    def ldp_ratio(self) -> float:
        """Worst-case probability ratio between any two rows (the LDP audit value).

        For a correctly built ε-LDP mechanism this is at most ``e^eps`` up to floating
        point noise; tests assert it.  A column that mixes zero and positive entries
        means some output is possible from one cell and impossible from another — an
        *infinite* ratio, i.e. a hard ε-LDP violation — and audits as ``inf`` (columns
        that are zero everywhere carry no information and are ignored).
        """
        if self._operator is not None and self._transition is None:
            return self._operator.ldp_ratio()
        matrix = self.transition
        col_min = matrix.min(axis=0)
        col_max = matrix.max(axis=0)
        if np.any((col_min <= 0.0) & (col_max > 0.0)):
            return float("inf")
        active = col_min > 0.0
        if not active.any():
            return float("inf")
        return float((col_max[active] / col_min[active]).max())


@dataclass(frozen=True)
class ShardAggregate:
    """The mergeable partial state of a :class:`StreamingAggregator`.

    A plain value object (three arrays/counters, no mechanism reference) so worker
    processes can ship their shard's aggregate back to the coordinator cheaply; the
    coordinator folds any number of these with :meth:`merged` before a single
    estimation solve.

    The class is also the point-mechanism implementation of the *functional*
    mergeable-aggregate protocol (:mod:`repro.streaming.protocol`):
    :meth:`merged` / :meth:`subtracted` return new aggregates and are exact
    inverses of each other (integer-valued float counts below ``2**53`` add and
    subtract exactly), and :meth:`scaled` / :meth:`clamped` supply the decayed
    sliding-window variant.  ``n_users`` stays an ``int`` whenever its value is
    integral and becomes a ``float`` only for decay-weighted aggregates.
    """

    noisy_counts: np.ndarray
    true_cell_counts: np.ndarray
    n_users: int | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "noisy_counts", np.asarray(self.noisy_counts, dtype=float))
        object.__setattr__(self, "true_cell_counts", np.asarray(self.true_cell_counts, dtype=float))
        users = float(self.n_users)
        object.__setattr__(self, "n_users", int(users) if users.is_integer() else users)

    def _check_algebra(self, other: "ShardAggregate", verb: str) -> None:
        if not isinstance(other, ShardAggregate):
            raise TypeError(f"{verb} expects a ShardAggregate, got {type(other).__name__}")
        if other.noisy_counts.shape != self.noisy_counts.shape:
            raise ValueError(
                f"cannot {verb} aggregates: noisy-count histograms have shapes "
                f"{other.noisy_counts.shape} vs {self.noisy_counts.shape} "
                "(different mechanisms or output domains?)"
            )
        if other.true_cell_counts.shape != self.true_cell_counts.shape:
            raise ValueError(
                f"cannot {verb} aggregates: true-cell histograms have shapes "
                f"{other.true_cell_counts.shape} vs {self.true_cell_counts.shape} "
                "(different grids?)"
            )

    def merged(self, other: "ShardAggregate") -> "ShardAggregate":
        """A new aggregate folding ``other``'s counts in (commutative/associative)."""
        self._check_algebra(other, "merge")
        return ShardAggregate(
            noisy_counts=self.noisy_counts + other.noisy_counts,
            true_cell_counts=self.true_cell_counts + other.true_cell_counts,
            n_users=self.n_users + other.n_users,
        )

    def subtracted(self, other: "ShardAggregate") -> "ShardAggregate":
        """The exact inverse of :meth:`merged` — pure count algebra, no guard.

        ``a.merged(b).subtracted(b)`` is bit-identical to ``a``.  It does not
        reject counts that were never merged: the decayed sliding window
        legitimately subtracts scaled epochs from decayed totals, where tiny
        negative float residues are expected and cleaned up by :meth:`clamped`.
        """
        self._check_algebra(other, "subtract")
        return ShardAggregate(
            noisy_counts=self.noisy_counts - other.noisy_counts,
            true_cell_counts=self.true_cell_counts - other.true_cell_counts,
            n_users=self.n_users - other.n_users,
        )

    def scaled(self, factor: float) -> "ShardAggregate":
        """A new aggregate with every count multiplied by ``factor`` (decay weight)."""
        return ShardAggregate(
            noisy_counts=self.noisy_counts * factor,
            true_cell_counts=self.true_cell_counts * factor,
            n_users=self.n_users * factor,
        )

    def clamped(self) -> "ShardAggregate":
        """A new aggregate with negative float-decay residues clamped to zero."""
        return ShardAggregate(
            noisy_counts=np.clip(self.noisy_counts, 0.0, None),
            true_cell_counts=np.clip(self.true_cell_counts, 0.0, None),
            n_users=max(self.n_users, 0),
        )


class StreamingAggregator:
    """Chunked report ingestion — Algorithm 1's aggregate step without the memory.

    The aggregator holds only the running noisy-report histogram, the running true
    cell histogram (for utility evaluation) and a user counter, so arbitrarily many
    reports can be ingested in shards.  All shards share one generator: with a fixed
    seed the accumulated histogram is identical to a single batch run over the
    concatenated shards.

    :meth:`state` snapshots the partial counts as a :class:`ShardAggregate`, whose
    :meth:`~ShardAggregate.merged` / :meth:`~ShardAggregate.subtracted` are the count
    algebra of the sliding windows in :mod:`repro.streaming`.  Because all the state
    is additive histograms, privatizing shards on independent workers and merging
    their snapshots is exactly equivalent to one sequential pass — the foundation
    of :class:`repro.core.parallel.ParallelPipeline`.

    Examples
    --------
    >>> aggregator = mechanism.streaming_aggregator(seed=0)      # doctest: +SKIP
    >>> for shard in shards:                                     # doctest: +SKIP
    ...     aggregator.add_points(shard)
    >>> report = aggregator.finalize()                           # doctest: +SKIP
    """

    def __init__(self, mechanism: SpatialMechanism, seed=None) -> None:
        self.mechanism = mechanism
        self._rng = ensure_rng(seed)
        self.noisy_counts = np.zeros(mechanism.output_domain_size(), dtype=float)
        self.true_cell_counts = np.zeros(mechanism.grid.n_cells, dtype=float)
        self.n_users = 0

    def add_points(self, points: np.ndarray) -> "StreamingAggregator":
        """Bucketise one shard of raw points and ingest the resulting cells."""
        pts = np.asarray(points, dtype=float)
        return self.add_cells(self.mechanism.grid.point_to_cell(pts))

    def add_cells(self, cells: np.ndarray) -> "StreamingAggregator":
        """Privatize one shard of true cell indices and fold it into the histogram."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return self
        reports = self.mechanism.privatize_cells(cells, seed=self._rng)
        self.noisy_counts += np.bincount(
            reports,
            minlength=self.noisy_counts.shape[0],
        ).astype(float)
        self.true_cell_counts += np.bincount(
            cells,
            minlength=self.true_cell_counts.shape[0],
        ).astype(float)
        self.n_users += int(cells.shape[0])
        return self

    def state(self) -> ShardAggregate:
        """Snapshot the partial counts as a picklable :class:`ShardAggregate`."""
        return ShardAggregate(
            noisy_counts=self.noisy_counts.copy(),
            true_cell_counts=self.true_cell_counts.copy(),
            n_users=self.n_users,
        )

    def finalize(self) -> MechanismReport:
        """Post-process the accumulated histogram into a distribution estimate.

        The report gets a snapshot of the histogram, so checkpointing mid-stream and
        then ingesting further shards leaves earlier reports untouched.
        """
        noisy_counts = self.noisy_counts.copy()
        estimate = self.mechanism.estimate(noisy_counts, n_users=self.n_users)
        return MechanismReport(estimate=estimate, noisy_counts=noisy_counts, n_users=self.n_users)
