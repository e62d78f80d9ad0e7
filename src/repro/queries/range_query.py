"""Private spatial range queries on top of the distribution estimators.

The paper's related-work section points out that DAM "can combine with the methods of
HIO, HDG and AHEAD to further improve the accuracy in private range query".  This
module implements that combination:

* :class:`FlatRangeQueryEngine` — answer rectangular range queries directly from any
  mechanism's estimated grid distribution (the obvious baseline: sum the estimated cell
  masses inside the rectangle).
* :class:`HierarchicalRangeQueryEngine` — an HIO/AHEAD-style hierarchy: user groups
  report at different granularities (coarse to fine) through DAM, the analyst keeps one
  estimate per level and answers a query from the coarsest cells that fit inside it,
  refining only along the query border.  This reduces the number of noisy cells a
  long-range query has to sum — exactly the error/length trade-off the hierarchical
  range-query literature exploits.
* :class:`RangeQueryWorkload` — random rectangular workloads plus the error metrics
  used by that literature (mean absolute error, relative error at a threshold).

Summation is delegated to the summed-area-table engine
(:class:`repro.queries.engine.SummedAreaTable`): instead of an O(d^2) dense overlap
pass per query, each answer costs four O(1) corner lookups, and ``answer_batch``
answers a whole workload with a handful of vectorised operations.  The dense path is
kept as :func:`dense_range_answer` — it is the reference implementation the property
tests compare the SAT path against.

Boundary convention
-------------------
``RangeQuery.true_answer`` counts raw points on the *closed* rectangle
``[x_lo, x_hi] x [y_lo, y_hi]`` by default, matching the inclusive cell bucketisation
of :meth:`repro.core.domain.GridSpec.point_to_cell`.  Estimated answers
(:func:`_cell_overlap_fractions` and the SAT path) use continuous area overlap, for
which boundaries are measure-zero — so a *single* query agrees with the closed
convention, but two queries sharing an edge both count the points sitting exactly on
it.  Workloads that tile the domain should pass ``closed="left"`` to
``true_answer`` (half-open ``[lo, hi)`` intervals, upper domain boundary included) so
every point is counted exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.queries.engine import SummedAreaTable, queries_to_array
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_epsilon, check_grid_side


@dataclass(frozen=True)
class RangeQuery:
    """A rectangular query in domain coordinates: ``[x_lo, x_hi] x [y_lo, y_hi]``."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate range query {self!r}")

    def area_fraction(self, domain: SpatialDomain) -> float:
        """Fraction of the domain the query covers.

        The query is clipped against the domain on *all four* sides, so a rectangle
        overhanging any boundary (below ``x_min``/``y_min`` just as much as beyond
        ``x_max``/``y_max``) only counts the part it actually covers, and a query
        entirely outside the domain covers nothing.
        """
        width = max(min(self.x_hi, domain.x_max) - max(self.x_lo, domain.x_min), 0.0)
        height = max(min(self.y_hi, domain.y_max) - max(self.y_lo, domain.y_min), 0.0)
        return width * height / domain.area

    def true_answer(
        self,
        points: np.ndarray,
        *,
        closed: str = "both",
        domain: SpatialDomain | None = None,
    ) -> float:
        """Fraction of the raw points inside the query rectangle.

        ``closed`` makes the boundary convention explicit (see the module docstring):

        * ``"both"`` (default) — the closed rectangle ``[lo, hi]`` on both axes, the
          paper's convention for a single query.  Points exactly on a shared edge of
          two adjacent queries are counted by *both*.
        * ``"left"`` — half-open ``[lo, hi)`` intervals, so edge-sharing queries that
          tile the domain count every point exactly once.  When ``domain`` is given,
          a query edge lying exactly on the domain's upper boundary stays inclusive
          there (mirroring how :meth:`~repro.core.domain.GridSpec.point_to_cell`
          clamps the last cell), so a tiling of the full domain still sums to 1.
        """
        if closed not in ("both", "left"):
            raise ValueError(f"closed must be 'both' or 'left', got {closed!r}")
        pts = np.asarray(points, dtype=float)
        if pts.shape[0] == 0:
            return 0.0
        inside = (pts[:, 0] >= self.x_lo) & (pts[:, 1] >= self.y_lo)
        if closed == "both":
            inside &= (pts[:, 0] <= self.x_hi) & (pts[:, 1] <= self.y_hi)
        else:
            x_inclusive = domain is not None and self.x_hi >= domain.x_max
            y_inclusive = domain is not None and self.y_hi >= domain.y_max
            inside &= pts[:, 0] <= self.x_hi if x_inclusive else pts[:, 0] < self.x_hi
            inside &= pts[:, 1] <= self.y_hi if y_inclusive else pts[:, 1] < self.y_hi
        return float(inside.mean())


def _cell_overlap_fractions(grid: GridSpec, query: RangeQuery) -> np.ndarray:
    """Fraction of each grid cell's area covered by the query rectangle, shape (d, d).

    Continuous area-overlap convention (the clip handles overhanging and outside
    rectangles on every side).  This is the seed O(d^2) reference path; the serving
    engines answer through :class:`repro.queries.engine.SummedAreaTable`, which must
    reproduce ``(probabilities * _cell_overlap_fractions(...)).sum()`` to ~1e-12 —
    the hypothesis equivalence property in ``tests/queries/test_engine.py`` pins the
    two paths together.
    """
    d = grid.d
    x_edges = np.linspace(grid.domain.x_min, grid.domain.x_max, d + 1)
    y_edges = np.linspace(grid.domain.y_min, grid.domain.y_max, d + 1)
    x_overlap = np.clip(
        np.minimum(x_edges[1:], query.x_hi) - np.maximum(x_edges[:-1], query.x_lo),
        0.0,
        None,
    ) / np.diff(x_edges)
    y_overlap = np.clip(
        np.minimum(y_edges[1:], query.y_hi) - np.maximum(y_edges[:-1], query.y_lo),
        0.0,
        None,
    ) / np.diff(y_edges)
    return np.outer(y_overlap, x_overlap)


def dense_range_answer(estimate: GridDistribution, query: RangeQuery) -> float:
    """Reference answer via the dense per-cell overlap pass (O(d^2) per query)."""
    return float(
        (estimate.probabilities * _cell_overlap_fractions(estimate.grid, query)).sum()
    )


class FlatRangeQueryEngine:
    """Answer range queries by summing one estimated grid distribution.

    Works with any estimate (DAM, MDSW, ...); border cells are included proportionally
    to their geometric overlap with the query (uniformity assumption within a cell).
    Summation runs on the cached summed-area table — O(1) per query instead of the
    dense O(d^2) pass — and :meth:`answer_batch` takes a structured ``(n, 4)`` array
    without ever looping in Python.
    """

    def __init__(self, estimate: GridDistribution) -> None:
        self.estimate = estimate
        self._sat = SummedAreaTable(estimate)

    def answer(self, query: RangeQuery) -> float:
        return self._sat.answer(query)

    def answer_batch(self, queries) -> np.ndarray:
        """Batched answers for an ``(n, 4)`` array of ``[x_lo, x_hi, y_lo, y_hi]``."""
        return self._sat.answer_batch(queries)


@dataclass
class _HierarchyLevel:
    grid: GridSpec
    estimate: GridDistribution
    n_users: int
    #: Summed-area table over this level's estimate, built once in ``fit``.
    sat: SummedAreaTable | None = None


class HierarchicalRangeQueryEngine:
    """HIO/AHEAD-style hierarchy of DAM estimates for range queries.

    The user population is split evenly across ``levels`` granularities
    ``d_0 < d_1 < ... `` (each a factor ``branching`` finer than the previous).  Each
    group reports through DAM on its own grid; a query is answered greedily from the
    coarsest level whose cells fit entirely inside the rectangle, with the uncovered
    border delegated to finer levels (and the finest level handling the remainder
    proportionally).

    This is a deliberately simplified hierarchy — enough to demonstrate the combination
    the paper proposes and to measure when it beats the flat engine (long-range queries
    on fine grids), without reproducing the full AHEAD adaptivity machinery.
    """

    def __init__(
        self,
        domain: SpatialDomain,
        epsilon: float,
        *,
        levels: int = 3,
        base_d: int = 2,
        branching: int = 2,
        seed=None,
    ) -> None:
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        check_grid_side(base_d)
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        self.domain = domain
        self.epsilon = check_epsilon(epsilon)
        self.levels_spec = [base_d * branching**i for i in range(levels)]
        self.branching = branching
        self._seed = seed
        self.levels: list[_HierarchyLevel] = []

    def fit(self, points: np.ndarray, seed=None) -> "HierarchicalRangeQueryEngine":
        """Split users across levels and run DAM on each level's group."""
        rng = ensure_rng(seed if seed is not None else self._seed)
        pts = np.asarray(points, dtype=float)
        pts = pts[self.domain.contains(pts)]
        assignments = rng.integers(0, len(self.levels_spec), pts.shape[0])
        level_rngs = spawn_rngs(rng, len(self.levels_spec))
        self.levels = []
        for index, (d, level_rng) in enumerate(zip(self.levels_spec, level_rngs)):
            group = pts[assignments == index]
            grid = GridSpec(self.domain, d)
            mechanism = DiscreteDAM(grid, self.epsilon)
            if group.shape[0] == 0:
                estimate = GridDistribution.uniform(grid)
            else:
                estimate = mechanism.run(group, seed=level_rng).estimate
            self.levels.append(
                _HierarchyLevel(
                    grid=grid,
                    estimate=estimate,
                    n_users=int(group.shape[0]),
                    sat=SummedAreaTable(estimate),
                )
            )
        return self

    def _require_fitted(self) -> None:
        if not self.levels:
            raise RuntimeError("call fit() before answering queries")

    def answer(self, query: RangeQuery) -> float:
        """Answer one query by combining levels from coarse to fine."""
        self._require_fitted()
        total = 0.0
        remaining = query
        # Greedy decomposition: take the fully covered cells of each level in turn,
        # shrink the remaining rectangle to the uncovered border strip, and let the
        # finest level absorb whatever is left with proportional overlap.
        for level in self.levels[:-1]:
            covered, remaining = self._consume_level(level, remaining)
            total += covered
            if remaining is None:
                return float(np.clip(total, 0.0, 1.0))
        total += self.levels[-1].sat.answer(remaining)
        return float(np.clip(total, 0.0, 1.0))

    def _consume_level(
        self, level: _HierarchyLevel, query: RangeQuery
    ) -> tuple[float, RangeQuery | None]:
        """Sum the level's cells fully inside the query; return the uncovered remainder.

        To keep the decomposition rectangular (and therefore cheap), the covered region
        is the largest axis-aligned block of whole cells inside the query; the
        remainder is the query minus that block, re-approximated as the smallest
        rectangle containing it (which the next, finer, level then handles).  When no
        whole cell fits, everything is delegated to the finer levels.
        """
        grid = level.grid
        x_edges = np.linspace(grid.domain.x_min, grid.domain.x_max, grid.d + 1)
        y_edges = np.linspace(grid.domain.y_min, grid.domain.y_max, grid.d + 1)
        col_lo = int(np.searchsorted(x_edges, query.x_lo, side="left"))
        col_hi = int(np.searchsorted(x_edges, query.x_hi, side="right") - 1)
        row_lo = int(np.searchsorted(y_edges, query.y_lo, side="left"))
        row_hi = int(np.searchsorted(y_edges, query.y_hi, side="right") - 1)
        if col_hi <= col_lo or row_hi <= row_lo:
            return 0.0, query
        block = level.estimate.probabilities[row_lo:row_hi, col_lo:col_hi]
        covered = float(block.sum())
        inner = RangeQuery(
            x_lo=float(x_edges[col_lo]),
            x_hi=float(x_edges[col_hi]),
            y_lo=float(y_edges[row_lo]),
            y_hi=float(y_edges[row_hi]),
        )
        if (
            inner.x_lo <= query.x_lo
            and inner.x_hi >= query.x_hi
            and inner.y_lo <= query.y_lo
            and inner.y_hi >= query.y_hi
        ):
            return covered, None
        # Remainder: the border strip between the query and the consumed inner block.
        # Representing it exactly needs up to four rectangles; we keep the widest strip
        # and fold the rest back into it so finer levels see a single rectangle.
        strips = []
        if query.x_lo < inner.x_lo:
            strips.append(RangeQuery(query.x_lo, inner.x_lo, query.y_lo, query.y_hi))
        if inner.x_hi < query.x_hi:
            strips.append(RangeQuery(inner.x_hi, query.x_hi, query.y_lo, query.y_hi))
        if query.y_lo < inner.y_lo:
            strips.append(RangeQuery(inner.x_lo, inner.x_hi, query.y_lo, inner.y_lo))
        if inner.y_hi < query.y_hi:
            strips.append(RangeQuery(inner.x_lo, inner.x_hi, inner.y_hi, query.y_hi))
        if not strips:
            return covered, None
        remainder = RangeQuery(
            x_lo=min(s.x_lo for s in strips),
            x_hi=max(s.x_hi for s in strips),
            y_lo=min(s.y_lo for s in strips),
            y_hi=max(s.y_hi for s in strips),
        )
        # Avoid double counting: subtract the inner block's overlap with the remainder
        # rectangle when the finer level integrates it.  The overlap of two rectangles
        # is a rectangle, so the correction is one O(1) summed-area-table evaluation.
        ox_lo, ox_hi = max(remainder.x_lo, inner.x_lo), min(remainder.x_hi, inner.x_hi)
        oy_lo, oy_hi = max(remainder.y_lo, inner.y_lo), min(remainder.y_hi, inner.y_hi)
        if ox_lo < ox_hi and oy_lo < oy_hi:
            covered -= float(level.sat.rectangle_mass(ox_lo, ox_hi, oy_lo, oy_hi))
        return covered, remainder

    def answer_batch(self, queries) -> np.ndarray:
        """Batched answers; accepts ``(n, 4)`` rows or a sequence of queries.

        The hierarchy's greedy decomposition is inherently per-query, so the
        batch is a Python loop — the method exists for surface uniformity
        (:class:`repro.queries.QuerySurface`), not vectorisation.
        """
        arr = queries_to_array(queries)
        return np.array([self.answer(RangeQuery(*row)) for row in arr])


@dataclass
class RangeQueryWorkload:
    """A random workload of rectangular queries plus its evaluation metrics."""

    queries: list[RangeQuery] = field(default_factory=list)

    @staticmethod
    def random(
        domain: SpatialDomain,
        n_queries: int,
        *,
        min_fraction: float = 0.05,
        max_fraction: float = 0.5,
        seed=None,
    ) -> "RangeQueryWorkload":
        """Random queries whose side lengths cover the given fraction range."""
        if n_queries < 0:
            raise ValueError(f"n_queries must be non-negative, got {n_queries}")
        if not 0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError("require 0 < min_fraction <= max_fraction <= 1")
        rng = ensure_rng(seed)
        queries = []
        for _ in range(n_queries):
            width = domain.width * rng.uniform(min_fraction, max_fraction)
            height = domain.height * rng.uniform(min_fraction, max_fraction)
            x_lo = rng.uniform(domain.x_min, domain.x_max - width)
            y_lo = rng.uniform(domain.y_min, domain.y_max - height)
            queries.append(RangeQuery(x_lo, x_lo + width, y_lo, y_lo + height))
        return RangeQueryWorkload(queries=queries)

    def as_array(self) -> np.ndarray:
        """The workload as an ``(n, 4)`` ``[x_lo, x_hi, y_lo, y_hi]`` array.

        This is the structured serving format :meth:`FlatRangeQueryEngine.answer_batch`
        and :class:`repro.queries.engine.QueryEngine` consume without per-query
        Python overhead.
        """
        return queries_to_array(self.queries)

    def true_answers(self, points: np.ndarray) -> np.ndarray:
        return np.array([query.true_answer(points) for query in self.queries])

    def mean_absolute_error(self, answers: np.ndarray, points: np.ndarray) -> float:
        truth = self.true_answers(points)
        answers = np.asarray(answers, dtype=float)
        if answers.shape != truth.shape:
            raise ValueError("answers must match the workload size")
        return float(np.abs(answers - truth).mean())

    def mean_relative_error(
        self, answers: np.ndarray, points: np.ndarray, *, floor: float = 0.01
    ) -> float:
        """Relative error with the usual small-answer floor used in the range-query papers."""
        truth = self.true_answers(points)
        answers = np.asarray(answers, dtype=float)
        return float((np.abs(answers - truth) / np.maximum(truth, floor)).mean())
