"""Private spatial range queries built on the distribution estimators.

The paper's stated extension: combining DAM with hierarchical range-query methods
(HIO / HDG / AHEAD).  :class:`FlatRangeQueryEngine` answers queries from a single
estimate; :class:`HierarchicalRangeQueryEngine` spreads users over a coarse-to-fine
hierarchy of DAM estimates; :class:`RangeQueryWorkload` generates workloads and scores
answers.

The serving path lives in :mod:`repro.queries.engine`: a
:class:`SummedAreaTable` gives every engine O(1) rectangle sums, the
:class:`QueryEngine` façade serves the mixed analyst workload (range mass, point
density, top-k hotspots, marginals, quantile contours),
:class:`StreamingQueryEngine` and :class:`StreamingTrajectoryQueryEngine` swap in
each epoch's fresh estimate atomically for mid-stream serving, and
:class:`WorkloadReplay` replays persisted :class:`QueryLog` traffic while
measuring latency and throughput.

Every range engine speaks one query surface — :class:`QuerySurface`
(``answer`` / ``answer_batch``) — so a range workload is scored against any of
them through one call.  The serving code is written
against the kind table of :mod:`repro.queries.kinds` instead: for each
:class:`~repro.queries.kinds.QueryKind` it names the engine method that answers
it, and the replay harness, the wire expansion of a log and the HTTP front's
seqlock reads all look that method up on the engine they serve from.  The
worker pool answers ``range_mass`` rows with :meth:`QueryEngine.range_mass`.
"""

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.queries.engine import (
    HotspotCells,
    QuantileContour,
    QueryEngine,
    QueryLog,
    ReplayReport,
    StreamingQueryEngine,
    StreamingTrajectoryQueryEngine,
    SummedAreaTable,
    TrajectoryQueryEngine,
    TrajectoryTopK,
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


@runtime_checkable
class QuerySurface(Protocol):
    """The unified query surface every engine in the library exposes.

    ``answer`` takes one query (a :class:`RangeQuery` or an ``[x_lo, x_hi,
    y_lo, y_hi]`` row) and returns its scalar answer; ``answer_batch`` takes a
    workload — anything :func:`queries_to_array` accepts — and returns the
    ``(n,)`` answer vector.
    """

    def answer(self, query) -> float: ...

    def answer_batch(self, queries: Sequence | np.ndarray) -> np.ndarray: ...


__all__ = [
    "FlatRangeQueryEngine",
    "HierarchicalRangeQueryEngine",
    "HotspotCells",
    "QuantileContour",
    "QueryEngine",
    "QueryLog",
    "QuerySurface",
    "RangeQuery",
    "RangeQueryWorkload",
    "ReplayReport",
    "StreamingQueryEngine",
    "StreamingTrajectoryQueryEngine",
    "SummedAreaTable",
    "TrajectoryQueryEngine",
    "TrajectoryTopK",
    "WorkloadReplay",
    "dense_range_answer",
    "queries_to_array",
]
