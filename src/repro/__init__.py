"""repro — a reproduction of "Numerical Estimation of Spatial Distributions under
Differential Privacy" (ICDE 2025).

The library implements the paper's Disk Area Mechanism (DAM) for private spatial
distribution estimation under Local Differential Privacy, together with every substrate
and baseline its evaluation depends on:

* ``repro.core`` — SAM / HUEM / DAM (continuous and grid-discretised), radius selection,
  shrinkage geometry, GridAreaResponse, the structured disk operator (whole-batch
  sampling; sparse or FFT EM matvecs, chosen by size), EM post-processing and the
  one end-to-end pipeline, ``ParallelPipeline`` (Algorithm 1 on one worker or a
  process pool, bit-identical either way);
* ``repro.mechanisms`` — the baselines: categorical frequency oracles, Square Wave /
  MDSW, Geo-I, SEM-Geo-I, SR/PM and HDG;
* ``repro.metrics`` — exact and Sinkhorn Wasserstein distances, sliced Wasserstein /
  Radon transforms, divergences and the Local Privacy calibration;
* ``repro.datasets`` — the synthetic datasets and surrogates for Chicago Crime / NYC
  Taxi, plus the Appendix-D trajectory generator;
* ``repro.queries`` — the range-query engines and the summed-area-table serving
  subsystem (``QueryEngine``, ``TrajectoryQueryEngine``, ``WorkloadReplay``);
* ``repro.trajectory`` — LDPTrace, PivotTrace, the vectorized batch engine
  (``TrajectoryEngine``) and the trajectory-to-point adapter;
* ``repro.streaming`` — the generic sliding window over the mergeable-aggregate
  protocol (``SlidingAggregateWindow``) and the long-lived sessions built on it:
  ``StreamingEstimationService`` (point estimates, warm-started EM) and
  ``StreamingTrajectoryService`` (LDPTrace under movement drift), both publishing
  through atomic serving swaps;
* ``repro.serving`` — the concurrent serving tier: window snapshots published
  zero-copy through shared memory behind a seqlock generation counter
  (``SnapshotWriter``/``SnapshotReader``) and a multi-process worker pool with a
  bounded admission/batching front-end (``ServingServer``);
* ``repro.experiments`` — the parameter grids, the sweep runner and one entry point per
  table/figure of the evaluation.

Quickstart::

    from repro import estimate_spatial_distribution
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(0)                        # one threaded Generator, end to end
    locations = rng.normal(0.5, 0.1, size=(10_000, 2))
    result = estimate_spatial_distribution(locations, epsilon=2.0, d=10, seed=rng)
    print(result.estimate.probabilities)       # the privately estimated density map
"""

from repro.core import (
    DiscreteDAM,
    DiscreteDAMNoShrink,
    DiscreteHUEM,
    GridDistribution,
    GridSpec,
    ParallelPipeline,
    PipelineResult,
    SpatialDomain,
    estimate_spatial_distribution,
    grid_radius,
    optimal_radius,
)
from repro.metrics import sliced_wasserstein, wasserstein2_auto, wasserstein2_grid
from repro.queries import (
    QueryEngine,
    QueryLog,
    RangeQuery,
    RangeQueryWorkload,
    StreamingQueryEngine,
    StreamingTrajectoryQueryEngine,
    SummedAreaTable,
    TrajectoryQueryEngine,
    WorkloadReplay,
)
from repro.serving import (
    HttpQueryClient,
    HttpServingFront,
    ServingServer,
    SnapshotReader,
    SnapshotWriter,
)
from repro.streaming import (
    SlidingAggregateWindow,
    StreamingEstimationService,
    StreamingTrajectoryService,
    WindowedAggregator,
)
from repro.trajectory import TrajectoryEngine

__version__ = "1.9.0"

__all__ = [
    "ParallelPipeline",
    "DiscreteDAM",
    "DiscreteDAMNoShrink",
    "DiscreteHUEM",
    "GridDistribution",
    "GridSpec",
    "PipelineResult",
    "SpatialDomain",
    "estimate_spatial_distribution",
    "grid_radius",
    "optimal_radius",
    "QueryEngine",
    "HttpQueryClient",
    "HttpServingFront",
    "QueryLog",
    "RangeQuery",
    "RangeQueryWorkload",
    "ServingServer",
    "SlidingAggregateWindow",
    "SnapshotReader",
    "SnapshotWriter",
    "StreamingEstimationService",
    "StreamingQueryEngine",
    "StreamingTrajectoryQueryEngine",
    "StreamingTrajectoryService",
    "SummedAreaTable",
    "TrajectoryEngine",
    "TrajectoryQueryEngine",
    "WindowedAggregator",
    "WorkloadReplay",
    "sliced_wasserstein",
    "wasserstein2_auto",
    "wasserstein2_grid",
    "__version__",
]
