"""High-throughput query serving on top of estimated grid distributions.

The paper's related-work section positions DAM's estimated grid as the substrate for
private range queries (the HIO/HDG/AHEAD combinations sketched in
:mod:`repro.queries.range_query`).  That module's engines price every query at an
O(d^2) dense overlap pass — fine for a figure, hopeless for a serving workload.  This
module is the serving path:

* :class:`SummedAreaTable` — a 2-D prefix sum (integral image) over a
  :class:`~repro.core.domain.GridDistribution`.  The mass of any axis-aligned
  rectangle, *including* fractional border coverage, is an inclusion-exclusion of four
  corner evaluations, each O(1): the interior block comes straight from the table and
  the border corrections are bilinear terms recovered from adjacent table entries.
  :meth:`SummedAreaTable.answer_batch` evaluates thousands-to-millions of queries as a
  handful of vectorised array operations and never drops into per-query Python.
* :class:`QueryEngine` — the façade an analyst actually serves from: rectangular range
  mass, point density lookups, top-k hotspot cells, axis marginals and grid-quantile
  contours (highest-density regions), all backed by the same table.
* :class:`StreamingQueryEngine` — the façade's long-lived sibling for the sliding
  windows of :mod:`repro.streaming`: each epoch's re-estimate becomes a complete new
  engine (summed-area table included) published by one atomic reference swap, so
  mid-stream queries never observe a half-updated window.
* :class:`QueryLog` / :class:`WorkloadReplay` — persistable mixed workloads and a
  replay driver that reports per-operation latency and queries/second.

Everything here is exact: the SAT path reproduces the dense
``_cell_overlap_fractions`` summation to ~1e-12 (asserted by the hypothesis
equivalence property in ``tests/queries/test_engine.py``), it is just a few orders of
magnitude cheaper per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.domain import GridDistribution, marginals, stack_trajectory_cells
from repro.utils.rng import ensure_rng


def queries_to_array(queries) -> np.ndarray:
    """Normalise a query workload to a float array of shape ``(n, 4)``.

    Accepts an ``(n, 4)`` array of ``[x_lo, x_hi, y_lo, y_hi]`` rows (the structured
    serving format — already validated by the caller), a single
    :class:`~repro.queries.range_query.RangeQuery`, or any sequence of them.
    """
    if isinstance(queries, np.ndarray):
        arr = np.asarray(queries, dtype=float)
        if arr.ndim == 1 and arr.shape[0] == 4:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"query array must have shape (n, 4), got {arr.shape}")
        return arr
    if hasattr(queries, "x_lo"):  # a single RangeQuery
        queries = [queries]
    return np.array([[q.x_lo, q.x_hi, q.y_lo, q.y_hi] for q in queries], dtype=float).reshape(-1, 4)


class SummedAreaTable:
    """O(1) rectangle-mass evaluation over one grid distribution.

    The continuous cumulative ``F(x, y)`` — the estimate's mass on
    ``[x_min, x] x [y_min, y]`` under the per-cell-uniform density — decomposes into
    the prefix-sum block below-left of the containing cell plus two partial-row/column
    strips and one bilinear corner term, all of which are differences of adjacent
    summed-area-table entries.  A rectangle is then the usual four-corner
    inclusion-exclusion ``F(xh,yh) - F(xl,yh) - F(xh,yl) + F(xl,yl)``, which matches
    the dense per-cell overlap summation exactly (continuous area-overlap convention;
    see ``RangeQuery.true_answer`` for how this relates to point counting on closed
    rectangles).
    """

    def __init__(self, estimate: GridDistribution) -> None:
        self.estimate = estimate
        self.grid = estimate.grid
        self.table = estimate.cumulative()
        x_min, x_max, y_min, y_max = self.grid.domain.bounds
        self._x_min, self._x_max = x_min, x_max
        self._y_min, self._y_max = y_min, y_max
        self._x_scale = self.grid.d / (x_max - x_min)
        self._y_scale = self.grid.d / (y_max - y_min)

    def cumulative_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised ``F(x, y)`` for coordinate arrays of any common shape.

        Coordinates are clipped onto the domain, so overhanging and fully-outside
        rectangles resolve to the mass they actually cover.
        """
        d = self.grid.d
        tx = (np.clip(xs, self._x_min, self._x_max) - self._x_min) * self._x_scale
        ty = (np.clip(ys, self._y_min, self._y_max) - self._y_min) * self._y_scale
        cols = np.minimum(tx.astype(np.int64), d - 1)
        rows = np.minimum(ty.astype(np.int64), d - 1)
        fx = tx - cols
        fy = ty - rows
        table = self.table
        s00 = table[rows, cols]
        s01 = table[rows, cols + 1]
        s10 = table[rows + 1, cols]
        s11 = table[rows + 1, cols + 1]
        return (
            s00
            + fx * (s01 - s00)
            + fy * (s10 - s00)
            + fx * fy * (s11 - s10 - s01 + s00)
        )

    def rectangle_mass(
        self,
        x_lo: np.ndarray,
        x_hi: np.ndarray,
        y_lo: np.ndarray,
        y_hi: np.ndarray,
    ) -> np.ndarray:
        """Mass of each ``[x_lo, x_hi] x [y_lo, y_hi]`` rectangle (vectorised)."""
        return (
            self.cumulative_at(x_hi, y_hi)
            - self.cumulative_at(x_lo, y_hi)
            - self.cumulative_at(x_hi, y_lo)
            + self.cumulative_at(x_lo, y_lo)
        )

    def answer_batch(self, queries) -> np.ndarray:
        """Answer a whole workload in one shot.

        ``queries`` is an ``(n, 4)`` float array of ``[x_lo, x_hi, y_lo, y_hi]`` rows
        or a sequence of :class:`~repro.queries.range_query.RangeQuery`.  The answers
        come back in workload order; the whole batch is four corner evaluations over
        the stacked coordinate arrays.
        """
        arr = queries_to_array(queries)
        return self.rectangle_mass(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])

    def answer(self, query) -> float:
        """Answer one query (convenience wrapper over :meth:`answer_batch`)."""
        return float(self.answer_batch(query)[0])


@dataclass(frozen=True)
class HotspotCells:
    """Top-k densest cells of an estimate, sorted by decreasing mass."""

    flat_indices: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    centers: np.ndarray  # (k, 2) domain coordinates


@dataclass(frozen=True)
class QuantileContour:
    """Smallest set of highest-density cells holding at least ``level`` mass.

    ``mask`` is a boolean ``(d, d)`` highest-density-region indicator; ``threshold``
    is the mass of the lightest included cell (the contour's density level) and
    ``covered_mass`` the total mass actually enclosed (>= ``level``).
    """

    level: float
    mask: np.ndarray
    threshold: float
    covered_mass: float
    n_cells: int


class QueryEngine:
    """Serve a mixed analyst workload from one estimated grid distribution.

    All operations are vectorised and share the cached summed-area table, so the
    engine can absorb the query traffic of a deployed estimate: range mass
    (:meth:`range_mass`), point density (:meth:`point_density`), top-k hotspots
    (:meth:`top_k_cells`), axis marginals (:meth:`axis_marginals`) and grid-quantile
    contours (:meth:`quantile_contours`).
    """

    def __init__(self, estimate: GridDistribution) -> None:
        self.estimate = estimate
        self.grid = estimate.grid
        self.sat = SummedAreaTable(estimate)

    # ------------------------------------------------------------- range mass
    def range_mass(self, queries) -> np.ndarray:
        """Estimated population fraction inside each rectangle (batched, O(1)/query)."""
        return self.sat.answer_batch(queries)

    # The unified query surface (:class:`repro.queries.QuerySurface`): every
    # engine in the library answers one query via ``answer`` and a workload via
    # ``answer_batch``, so serving code is written once against the protocol.
    def answer(self, query) -> float:
        """Answer one range query (:class:`~repro.queries.QuerySurface`)."""
        return self.sat.answer(query)

    def answer_batch(self, queries) -> np.ndarray:
        """Answer a range-query workload (:class:`~repro.queries.QuerySurface`)."""
        return self.sat.answer_batch(queries)

    # ---------------------------------------------------------- point density
    def point_density(self, points: np.ndarray) -> np.ndarray:
        """Estimated probability density at each ``(x, y)`` location.

        The density is the containing cell's mass divided by the cell area (the
        per-cell-uniform model every engine in the library shares).  Points outside
        the domain have zero density.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        inside = self.grid.domain.contains(pts)
        cells = self.grid.point_to_cell(self.grid.domain.clip(pts))
        cell_area = self.grid.cell_width * self.grid.cell_height
        densities = self.estimate.flat()[cells] / cell_area
        return np.where(inside, densities, 0.0)

    # --------------------------------------------------------------- hotspots
    def top_k_cells(self, k: int) -> HotspotCells:
        """The ``k`` densest cells, sorted by decreasing estimated mass."""
        if not 1 <= k <= self.grid.n_cells:
            raise ValueError(f"k must lie in [1, {self.grid.n_cells}], got {k}")
        flat = self.estimate.flat()
        top = np.argpartition(flat, -k)[-k:]
        top = top[np.argsort(flat[top])[::-1]]
        rows, cols = self.grid.cell_to_rowcol(top)
        return HotspotCells(
            flat_indices=top,
            rows=rows,
            cols=cols,
            masses=flat[top],
            centers=self.grid.cell_centers()[top],
        )

    # -------------------------------------------------------------- marginals
    def axis_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """The (x-marginal, y-marginal) of the estimate (length-``d`` each)."""
        return marginals(self.estimate)

    # ------------------------------------------------------ quantile contours
    def quantile_contours(self, levels: Sequence[float]) -> list[QuantileContour]:
        """Highest-density regions covering each requested mass quantile.

        For every ``level`` in ``(0, 1]`` the contour is the smallest set of cells,
        taken in decreasing density order, whose total mass reaches the level — the
        grid analogue of a density contour line (e.g. "where do 50% / 90% of users
        concentrate?").
        """
        flat = self.estimate.flat()
        order = np.argsort(flat)[::-1]
        csum = np.cumsum(flat[order])
        contours = []
        for level in levels:
            if not 0.0 < level <= 1.0:
                raise ValueError(f"quantile levels must lie in (0, 1], got {level}")
            n_cells = int(np.searchsorted(csum, level * (1.0 - 1e-12)) + 1)
            n_cells = min(n_cells, flat.shape[0])
            chosen = order[:n_cells]
            mask = np.zeros(flat.shape[0], dtype=bool)
            mask[chosen] = True
            contours.append(
                QuantileContour(
                    level=float(level),
                    mask=mask.reshape(self.grid.d, self.grid.d),
                    threshold=float(flat[chosen[-1]]),
                    covered_mass=float(csum[n_cells - 1]),
                    n_cells=n_cells,
                )
            )
        return contours


class StreamingQueryEngine:
    """Serve a continuously re-estimated distribution without torn reads.

    A long-lived deployment re-estimates its distribution every epoch while
    analysts keep querying.  Rebuilding a :class:`QueryEngine` *in place* would let
    a query observe a half-updated window (new probabilities, stale summed-area
    table).  This façade makes the refresh safe:

    * :meth:`refresh` builds a complete new :class:`QueryEngine` — estimate,
      summed-area table and all — **before** publishing it, and publishes the
      engine *together with its epoch* as one immutable tuple behind a single
      attribute store (atomic under both the GIL and free-threaded CPython's
      per-object locks: readers see either the old pair or the new pair, never a
      mix and never a new engine with a stale epoch);
    * every query method grabs one local reference, so even a batch that straddles
      a refresh is answered entirely by one window;
    * :meth:`snapshot` hands out the current engine — and :meth:`published` the
      consistent ``(engine, epoch)`` pair — for longer units of work (e.g. a
      whole :class:`WorkloadReplay` run) that must stay on one window.

    The façade exposes the full point-query surface of :class:`QueryEngine`, so
    ``WorkloadReplay`` drives it unchanged mid-stream.
    """

    def __init__(self, estimate: GridDistribution | None = None) -> None:
        # The engine and its epoch label travel in ONE immutable tuple replaced by
        # a single attribute store.  Publishing them as two separate stores (the
        # original implementation) let a concurrent reader interleave between the
        # stores and pair the new engine with the stale epoch.
        self._published: tuple[QueryEngine | None, int | None] = (None, None)
        if estimate is not None:
            self.refresh(estimate)

    # ---------------------------------------------------------------- refresh
    def refresh(self, estimate: GridDistribution, *, epoch: int | None = None) -> QueryEngine:
        """Publish a new estimate; returns the engine that now serves.

        The summed-area table is materialised inside the new engine before the
        swap, and the engine is published together with its epoch in one store,
        so no caller can ever observe a partial rebuild or a torn
        ``(engine, epoch)`` pair.
        """
        engine = QueryEngine(estimate)
        self._published = (engine, epoch)
        return engine

    @property
    def ready(self) -> bool:
        """Whether an estimate has been published yet."""
        return self._published[0] is not None

    @property
    def epoch(self) -> int | None:
        """Epoch label of the currently published engine (``None`` before any)."""
        return self._published[1]

    def published(self) -> tuple[QueryEngine, int | None]:
        """The current ``(engine, epoch)`` pair from one atomic tuple load.

        Reading ``snapshot()`` and ``epoch`` as two attribute accesses can
        straddle a concurrent :meth:`refresh`; this accessor can not.
        """
        engine, epoch = self._published
        if engine is None:
            raise RuntimeError(
                "no estimate has been published yet; call refresh() first"
            )
        return engine, epoch

    def snapshot(self) -> QueryEngine:
        """The currently published engine — pin it to stay on one window."""
        engine = self._published[0]
        if engine is None:
            raise RuntimeError(
                "no estimate has been published yet; call refresh() first"
            )
        return engine

    # ------------------------------------------------------------- delegation
    @property
    def estimate(self) -> GridDistribution:
        return self.snapshot().estimate

    @property
    def grid(self):
        return self.snapshot().grid

    def range_mass(self, queries) -> np.ndarray:
        return self.snapshot().range_mass(queries)

    def answer(self, query) -> float:
        return self.snapshot().answer(query)

    def answer_batch(self, queries) -> np.ndarray:
        return self.snapshot().answer_batch(queries)

    def point_density(self, points: np.ndarray) -> np.ndarray:
        return self.snapshot().point_density(points)

    def top_k_cells(self, k: int) -> HotspotCells:
        return self.snapshot().top_k_cells(k)

    def axis_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.snapshot().axis_marginals()

    def quantile_contours(self, levels: Sequence[float]) -> list[QuantileContour]:
        return self.snapshot().quantile_contours(levels)


class StreamingTrajectoryQueryEngine(StreamingQueryEngine):
    """Atomic-swap serving for trajectory sessions.

    The trajectory twin of :class:`StreamingQueryEngine`:
    :meth:`refresh_trajectories` builds a complete
    :class:`TrajectoryQueryEngine` — point mass, summed-area table, OD and
    transition pair tables — from a fresh synthetic trajectory set *before*
    publishing it with a single attribute store, so analyst queries running
    mid-stream never observe a half-updated window.  On top of the full point
    surface it delegates the three sequence-aware operations, which is what lets
    :class:`WorkloadReplay` drive a mixed point+trajectory log against a live
    :class:`repro.streaming.trajectory.StreamingTrajectoryService` unchanged.
    """

    def refresh_trajectories(
        self, trajectories: list, grid, *, epoch: int | None = None
    ) -> TrajectoryQueryEngine:
        """Publish a new synthetic trajectory set; returns the engine now serving.

        Same single-store discipline as :meth:`StreamingQueryEngine.refresh`: the
        engine and its epoch are swapped in as one immutable tuple.
        """
        engine = TrajectoryQueryEngine(trajectories, grid)
        self._published = (engine, epoch)
        return engine

    def od_top_k(self, k: int) -> "TrajectoryTopK":
        return self.snapshot().od_top_k(k)

    def transition_top_k(self, k: int) -> "TrajectoryTopK":
        return self.snapshot().transition_top_k(k)

    def length_histogram(self, bins: int = 10) -> tuple[np.ndarray, np.ndarray]:
        return self.snapshot().length_histogram(bins)

    def snapshot(self) -> "TrajectoryQueryEngine":
        engine = super().snapshot()
        if not isinstance(engine, TrajectoryQueryEngine):
            raise RuntimeError(
                "the published engine is not a TrajectoryQueryEngine; publish "
                "through refresh_trajectories() rather than refresh()"
            )
        return engine


# ------------------------------------------------------------------ trajectory
@dataclass(frozen=True)
class TrajectoryTopK:
    """Top-k (from-cell, to-cell) pairs by count, sorted by decreasing weight.

    Serves both the origin–destination view (first cell → last cell of each
    trajectory) and the transition view (every consecutive cell step); ``fractions``
    are the counts normalised by the total number of pairs observed.
    """

    from_cells: np.ndarray
    to_cells: np.ndarray
    counts: np.ndarray
    fractions: np.ndarray


class TrajectoryQueryEngine(QueryEngine):
    """Serve trajectory workloads from one trajectory set on an analysis grid.

    Extends :class:`QueryEngine` — the per-cell *point mass* of the trajectory set is
    the estimate being served, so range mass, point density, hotspots, marginals and
    contours all work unchanged — with the sequence-aware statistics a trajectory
    analyst asks for: origin–destination top-k (:meth:`od_top_k`), transition top-k
    (:meth:`transition_top_k`) and length histograms (:meth:`length_histogram`).

    The trajectory set is reduced to flat arrays once at construction (stack, one
    cell mapping, ``np.unique`` over encoded pairs); every query afterwards is an
    array lookup, so the engine absorbs workload replay at the same rates as the
    point engines.  Typically built over the *synthetic* output of
    :class:`~repro.trajectory.engine.TrajectoryEngine` (the private release), with a
    twin over the raw input for accuracy comparisons.
    """

    def __init__(self, trajectories: list, grid) -> None:
        if not trajectories:
            raise ValueError("cannot serve queries over an empty trajectory set")
        lengths, starts, cells = stack_trajectory_cells(grid, trajectories)
        counts = np.bincount(cells, minlength=grid.n_cells).astype(float)
        super().__init__(GridDistribution.from_flat(grid, counts / counts.sum()))

        ends = starts + lengths - 1
        self.lengths = lengths
        self.n_trajectories = int(lengths.shape[0])
        self._od_pairs = self._pair_counts(cells[starts], cells[ends])
        # Consecutive steps: position i -> i+1 for every i that is not a trajectory
        # end (the last trajectory's end is already outside the step range).
        step_mask = np.ones(max(cells.shape[0] - 1, 0), dtype=bool)
        interior_ends = ends[ends < cells.shape[0] - 1]
        step_mask[interior_ends] = False
        self._transition_pairs = self._pair_counts(cells[:-1][step_mask], cells[1:][step_mask])

    @classmethod
    def from_tables(
        cls,
        grid,
        probabilities: np.ndarray,
        lengths: np.ndarray,
        od_pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        transition_pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        cumulative: np.ndarray | None = None,
    ) -> "TrajectoryQueryEngine":
        """Rebuild an engine from its published flat tables (the shm serving path).

        The inverse of construction: ``__init__`` reduces a trajectory set to the
        per-cell mass, the length array and the two presorted ``(from, to, count)``
        pair tables — this adopts those tables verbatim (no re-stacking, no
        ``np.unique``), so a :class:`~repro.serving.shm.TrajectorySnapshotReader`
        serves bit-identically to the publisher's engine without ever shipping
        the trajectories themselves.  ``cumulative`` installs a precomputed
        summed-area table exactly like
        :meth:`~repro.core.domain.GridDistribution.from_normalized`.
        """
        engine = cls.__new__(cls)
        QueryEngine.__init__(
            engine,
            GridDistribution.from_normalized(grid, probabilities, cumulative=cumulative),
        )
        engine.lengths = np.asarray(lengths, dtype=np.int64)
        engine.n_trajectories = int(engine.lengths.shape[0])
        engine._od_pairs = tuple(od_pairs)
        engine._transition_pairs = tuple(transition_pairs)
        return engine

    def _pair_counts(
        self, from_cells: np.ndarray, to_cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique (from, to) pairs with counts, pre-sorted by decreasing count."""
        if from_cells.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        codes = from_cells.astype(np.int64) * self.grid.n_cells + to_cells.astype(np.int64)
        unique, counts = np.unique(codes, return_counts=True)
        order = np.argsort(counts, kind="stable")[::-1]
        unique, counts = unique[order], counts[order]
        return unique // self.grid.n_cells, unique % self.grid.n_cells, counts.astype(float)

    def _top_k(self, pairs, k: int) -> TrajectoryTopK:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        from_cells, to_cells, counts = pairs
        k = min(k, counts.shape[0])
        total = counts.sum()
        return TrajectoryTopK(
            from_cells=from_cells[:k],
            to_cells=to_cells[:k],
            counts=counts[:k],
            fractions=counts[:k] / total if total > 0 else counts[:k],
        )

    def od_top_k(self, k: int) -> TrajectoryTopK:
        """The ``k`` most frequent origin–destination (first cell, last cell) pairs."""
        return self._top_k(self._od_pairs, k)

    def transition_top_k(self, k: int) -> TrajectoryTopK:
        """The ``k`` most frequent consecutive cell-to-cell steps."""
        return self._top_k(self._transition_pairs, k)

    def length_histogram(self, bins: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of trajectory lengths: ``(counts, bin_edges)``."""
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        return np.histogram(self.lengths, bins=bins)


# --------------------------------------------------------------------- replay
@dataclass
class QueryLog:
    """A persistable mixed query workload (the serving traffic of one estimate).

    ``range_queries`` is an ``(n, 4)`` array of ``[x_lo, x_hi, y_lo, y_hi]`` rows,
    ``density_points`` an ``(m, 2)`` array of lookup locations, ``top_k`` the
    requested hotspot sizes and ``quantile_levels`` the requested contour levels.
    The trajectory operations (requested sizes of origin–destination and transition
    top-k queries plus length-histogram bin counts) are only servable by a
    :class:`TrajectoryQueryEngine`; logs containing them replay against point-only
    engines with a clear error.
    """

    range_queries: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    density_points: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    top_k: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    quantile_levels: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_marginal_requests: int = 0
    od_top_k: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    transition_top_k: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    length_histogram_bins: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def __post_init__(self) -> None:
        self.range_queries = np.asarray(self.range_queries, dtype=float).reshape(-1, 4)
        self.density_points = np.asarray(self.density_points, dtype=float).reshape(-1, 2)
        self.top_k = np.asarray(self.top_k, dtype=np.int64).reshape(-1)
        self.quantile_levels = np.asarray(self.quantile_levels, dtype=float).reshape(-1)
        self.od_top_k = np.asarray(self.od_top_k, dtype=np.int64).reshape(-1)
        self.transition_top_k = np.asarray(self.transition_top_k, dtype=np.int64).reshape(-1)
        self.length_histogram_bins = np.asarray(
            self.length_histogram_bins,
            dtype=np.int64,
        ).reshape(-1)

    @property
    def size(self) -> int:
        """Total number of logged operations."""
        return (
            self.range_queries.shape[0]
            + self.density_points.shape[0]
            + self.top_k.shape[0]
            + self.quantile_levels.shape[0]
            + self.n_marginal_requests
            + self.od_top_k.shape[0]
            + self.transition_top_k.shape[0]
            + self.length_histogram_bins.shape[0]
        )

    @property
    def trajectory_operation_counts(self) -> dict[str, int]:
        """Per-kind counts of the log's trajectory operations (zero kinds omitted).

        Feeds the replay fail-fast message, so a mixed point+trajectory session
        log rejected by a point-only engine says exactly which op kinds need the
        trajectory surface.
        """
        counts = {
            "od_top_k": int(self.od_top_k.shape[0]),
            "transition_top_k": int(self.transition_top_k.shape[0]),
            "length_histogram": int(self.length_histogram_bins.shape[0]),
        }
        return {kind: count for kind, count in counts.items() if count}

    @property
    def has_trajectory_operations(self) -> bool:
        """Whether the log needs a :class:`TrajectoryQueryEngine` to replay fully."""
        return bool(self.trajectory_operation_counts)

    def save(self, path) -> None:
        """Persist the log as a compressed ``.npz`` archive."""
        np.savez_compressed(
            Path(path),
            range_queries=self.range_queries,
            density_points=self.density_points,
            top_k=self.top_k,
            quantile_levels=self.quantile_levels,
            n_marginal_requests=np.int64(self.n_marginal_requests),
            od_top_k=self.od_top_k,
            transition_top_k=self.transition_top_k,
            length_histogram_bins=self.length_histogram_bins,
        )

    @staticmethod
    def load(path) -> "QueryLog":
        with np.load(Path(path)) as archive:
            # Trajectory operations were added after the first on-disk format;
            # archives written by older versions simply lack the keys.
            def optional(key: str) -> np.ndarray:
                return archive[key] if key in archive.files else np.empty(0, dtype=np.int64)

            return QueryLog(
                range_queries=archive["range_queries"],
                density_points=archive["density_points"],
                top_k=archive["top_k"],
                quantile_levels=archive["quantile_levels"],
                n_marginal_requests=int(archive["n_marginal_requests"]),
                od_top_k=optional("od_top_k"),
                transition_top_k=optional("transition_top_k"),
                length_histogram_bins=optional("length_histogram_bins"),
            )

    @staticmethod
    def random(
        domain,
        *,
        n_range: int = 1000,
        n_density: int = 0,
        n_top_k: int = 0,
        n_quantiles: int = 0,
        n_marginals: int = 0,
        n_od_top_k: int = 0,
        n_transition_top_k: int = 0,
        n_length_histograms: int = 0,
        min_fraction: float = 0.05,
        max_fraction: float = 0.5,
        max_k: int = 10,
        seed=None,
    ) -> "QueryLog":
        """A random mixed workload over a :class:`~repro.core.domain.SpatialDomain`."""
        rng = ensure_rng(seed)
        widths = domain.width * rng.uniform(min_fraction, max_fraction, n_range)
        heights = domain.height * rng.uniform(min_fraction, max_fraction, n_range)
        x_lo = domain.x_min + rng.random(n_range) * (domain.width - widths)
        y_lo = domain.y_min + rng.random(n_range) * (domain.height - heights)
        ranges = np.column_stack([x_lo, x_lo + widths, y_lo, y_lo + heights])
        points = domain.denormalise(rng.random((n_density, 2)))
        return QueryLog(
            range_queries=ranges,
            density_points=points,
            top_k=rng.integers(1, max_k + 1, n_top_k),
            quantile_levels=rng.uniform(0.1, 0.95, n_quantiles),
            n_marginal_requests=n_marginals,
            od_top_k=rng.integers(1, max_k + 1, n_od_top_k),
            transition_top_k=rng.integers(1, max_k + 1, n_transition_top_k),
            length_histogram_bins=rng.integers(4, 33, n_length_histograms),
        )


def latency_stats(count: int, latencies, *, seconds: float | None = None) -> dict:
    """The per-kind stats record of a :class:`ReplayReport`.

    ``count`` operations took the given per-dispatch ``latencies`` (seconds);
    the record carries totals plus the 50th/99th percentile dispatch latency.
    ``seconds`` is the total time of all ``count`` operations when
    ``latencies`` holds only a recent window of them (default: their sum).
    Shared by :class:`WorkloadReplay` and the HTTP front-end's ``/metrics``
    endpoint so both report latency through one formula.
    """
    latencies = np.asarray(latencies, dtype=float)
    elapsed = float(latencies.sum()) if seconds is None else float(seconds)
    return {
        "count": count,
        "seconds": elapsed,
        "ops_per_second": count / elapsed if elapsed > 0 else float("inf"),
        "latency_p50": float(np.quantile(latencies, 0.50)),
        "latency_p99": float(np.quantile(latencies, 0.99)),
    }


@dataclass(frozen=True)
class ReplayReport:
    """Latency/throughput summary of one :class:`WorkloadReplay` run.

    ``per_kind`` maps each operation kind to ``count`` / ``seconds`` /
    ``ops_per_second`` plus ``latency_p50`` / ``latency_p99``: the 50th and 99th
    percentile latency (seconds) over the individual dispatches the replay issued
    for that kind — per item for the looped kinds (top-k, contours, marginals,
    trajectory statistics), per batch slice for the vectorised array kinds.
    """

    n_operations: int
    elapsed_seconds: float
    operations_per_second: float
    per_kind: dict = field(compare=False)

    def format(self) -> str:
        lines = [
            f"{'operation':<14} {'count':>9} {'seconds':>10} {'ops/sec':>14} "
            f"{'p50 ms':>9} {'p99 ms':>9}",
        ]
        for kind, stats in self.per_kind.items():
            lines.append(
                f"{kind:<14} {stats['count']:>9} {stats['seconds']:>10.4f} "
                f"{stats['ops_per_second']:>14.0f} "
                f"{stats['latency_p50'] * 1e3:>9.3f} "
                f"{stats['latency_p99'] * 1e3:>9.3f}"
            )
        lines.append(
            f"{'total':<14} {self.n_operations:>9} {self.elapsed_seconds:>10.4f} "
            f"{self.operations_per_second:>14.0f} {'-':>9} {'-':>9}"
        )
        return "\n".join(lines)


class WorkloadReplay:
    """Replay a saved :class:`QueryLog` against a :class:`QueryEngine`.

    Measures wall-clock latency and throughput per operation kind — the serving-side
    companion of the accuracy benchmarks.  Every operation runs in this process
    against ``engine``; multi-process range serving is
    :class:`~repro.serving.ServingServer`'s job (``repro serve --serve-workers``).
    """

    #: how many same-sized slices the vectorised batch kinds are cut into so the
    #: latency percentiles have per-dispatch samples (slicing a row-wise batch
    #: and concatenating the slice answers is bitwise identical to one call)
    LATENCY_SLICES = 32

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    def replay(self, log: QueryLog) -> tuple[ReplayReport, dict]:
        """Run every logged operation; return the report and the raw answers.

        The answers dictionary maps operation kind to its results so replays can be
        compared across engine versions (regression harnesses diff them).  The
        report's ``per_kind`` uses the same kind strings as ``answers`` — in
        particular point-density lookups are keyed ``"point_density"`` in both.
        (Releases before 1.7 reported them under ``"density"``, so answer/report
        diffs mismatched; saved ``.npz`` query logs never stored kind strings and
        are unaffected by the rename.)
        """
        # Fail fast: a log that needs sequence statistics must not burn through the
        # whole point workload before discovering the engine cannot serve it.  The
        # check is structural (not an isinstance) so the streaming swap façade —
        # which delegates rather than subclasses TrajectoryQueryEngine — replays
        # mixed workloads mid-stream.
        if log.has_trajectory_operations:
            required = ("od_top_k", "transition_top_k", "length_histogram")
            if not all(callable(getattr(self.engine, op, None)) for op in required):
                kinds = ", ".join(
                    f"{kind} x{count}"
                    for kind, count in log.trajectory_operation_counts.items()
                )
                raise TypeError(
                    f"this query log contains trajectory operations ({kinds}) that "
                    f"{type(self.engine).__name__} cannot serve; replay it against "
                    "a TrajectoryQueryEngine (or the StreamingTrajectoryQueryEngine "
                    "serving façade)"
                )
        per_kind: dict = {}
        answers: dict = {}

        def timed(kind: str, dispatches: list) -> list:
            """Run ``(n_ops, fn)`` dispatches; record totals and p50/p99 latency."""
            latencies = np.empty(len(dispatches))
            outputs = []
            count = 0
            for i, (n_ops, fn) in enumerate(dispatches):
                start = time.perf_counter()
                outputs.append(fn())
                latencies[i] = time.perf_counter() - start
                count += n_ops
            per_kind[kind] = latency_stats(count, latencies)
            return outputs

        def sliced(array: np.ndarray, fn) -> list:
            """Per-slice dispatches for a row-wise batch kind.

            range_mass and point_density answer each row independently, so the
            concatenated slice answers are bitwise identical to one full-batch
            call — slicing only adds timing points for the percentiles.
            """
            pieces = np.array_split(array, min(self.LATENCY_SLICES, array.shape[0]))
            return [(piece.shape[0], lambda p=piece: fn(p)) for piece in pieces]

        if log.range_queries.shape[0]:
            answers["range_mass"] = np.concatenate(
                timed("range_mass", sliced(log.range_queries, self.engine.range_mass))
            )
        if log.density_points.shape[0]:
            answers["point_density"] = np.concatenate(
                timed(
                    "point_density",
                    sliced(log.density_points, self.engine.point_density),
                )
            )
        if log.top_k.shape[0]:
            answers["top_k"] = timed(
                "top_k",
                [(1, lambda k=int(k): self.engine.top_k_cells(k)) for k in log.top_k],
            )
        if log.quantile_levels.shape[0]:
            contour_lists = timed(
                "quantiles",
                [
                    (1, lambda lv=float(level): self.engine.quantile_contours([lv]))
                    for level in log.quantile_levels
                ],
            )
            answers["quantiles"] = [contours[0] for contours in contour_lists]
        if log.n_marginal_requests:
            answers["marginals"] = timed(
                "marginals",
                [
                    (1, self.engine.axis_marginals)
                    for _ in range(log.n_marginal_requests)
                ],
            )
        if log.od_top_k.shape[0]:
            answers["od_top_k"] = timed(
                "od_top_k",
                [(1, lambda k=int(k): self.engine.od_top_k(k)) for k in log.od_top_k],
            )
        if log.transition_top_k.shape[0]:
            answers["transition_top_k"] = timed(
                "transition_top_k",
                [
                    (1, lambda k=int(k): self.engine.transition_top_k(k))
                    for k in log.transition_top_k
                ],
            )
        if log.length_histogram_bins.shape[0]:
            answers["length_histogram"] = timed(
                "length_histogram",
                [
                    (1, lambda b=int(bins): self.engine.length_histogram(b))
                    for bins in log.length_histogram_bins
                ],
            )

        total_ops = sum(stats["count"] for stats in per_kind.values())
        total_seconds = sum(stats["seconds"] for stats in per_kind.values())
        report = ReplayReport(
            n_operations=total_ops,
            elapsed_seconds=total_seconds,
            operations_per_second=(
                total_ops / total_seconds if total_seconds > 0 else float("inf")
            ),
            per_kind=per_kind,
        )
        return report, answers
