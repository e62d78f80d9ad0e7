"""End-to-end DAM processing — the paper's Algorithm 1 as a user-facing pipeline.

Algorithm 1 takes a raw point set, a square range of side ``L``, a cell side ``g`` and
a privacy budget ``eps``; it bucketises the range into a grid, randomises each point's
cell with ``GridAreaResponse``, accumulates the noisy map and post-processes it into a
distribution estimate.  :class:`DAMPipeline` packages those steps behind a small API so
applications (the examples in ``examples/``) never have to touch transition matrices,
while :func:`estimate_spatial_distribution` is the one-call convenience entry point.

For datasets too large to hold in memory, :meth:`DAMPipeline.run_stream` ingests the
points in shards through a :class:`~repro.core.estimator.StreamingAggregator`; with a
fixed seed the result is identical to the batch :meth:`DAMPipeline.run`.  To spread
the privatization over a process pool — still bit-identical to the serial run — use
:class:`repro.core.parallel.ParallelPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.core.huem import DiscreteHUEM
from repro.core.radius import grid_radius
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_epsilon, check_grid_side

MechanismName = Literal["dam", "dam-ns", "huem"]


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


class DAMPipeline:
    """The DAM Processing Framework (Algorithm 1) wrapped as a reusable object.

    Parameters
    ----------
    domain:
        The square (or rectangular) region covered by the analysis.
    d:
        Number of grid cells per side (the paper's discrete side length).
    epsilon:
        Privacy budget per user report.
    mechanism:
        ``"dam"`` (default), ``"dam-ns"`` (no shrinkage) or ``"huem"``.
    b_hat:
        Optional override of the integer high-probability radius; defaults to the
        mutual-information-optimal choice of Section V-C.

    The mechanism post-processes with EMS, the paper's choice.
    """

    def __init__(
        self,
        domain: SpatialDomain,
        d: int,
        epsilon: float,
        *,
        mechanism: MechanismName = "dam",
        b_hat: int | None = None,
    ) -> None:
        self.domain = domain
        self.d = check_grid_side(d)
        self.epsilon = check_epsilon(epsilon)
        self.grid = GridSpec(domain, self.d)
        if b_hat is None:
            b_hat = grid_radius(self.epsilon, self.d, domain.side_length)
        self.b_hat = int(b_hat)
        if mechanism == "dam":
            self.mechanism = DiscreteDAM(self.grid, self.epsilon, b_hat=self.b_hat)
        elif mechanism == "dam-ns":
            self.mechanism = DiscreteDAM(
                self.grid, self.epsilon, b_hat=self.b_hat, use_shrinkage=False
            )
        elif mechanism == "huem":
            self.mechanism = DiscreteHUEM(self.grid, self.epsilon, b_hat=self.b_hat)
        else:
            raise ValueError(
                f"unknown mechanism {mechanism!r}; expected 'dam', 'dam-ns' or 'huem'"
            )

    def run(self, points: np.ndarray, seed=None) -> PipelineResult:
        """Execute Algorithm 1 on a raw point set and return the distribution map."""
        rng = ensure_rng(seed)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        inside = self.domain.contains(pts)
        pts = pts[inside]
        report = self.mechanism.run(pts, seed=rng)
        return PipelineResult(
            estimate=report.estimate,
            true_distribution=self.grid.distribution(pts),
            noisy_counts=report.noisy_counts,
            n_users=report.n_users,
            b_hat=self.b_hat,
            mechanism=self.mechanism.name,
            info={
                "epsilon": self.epsilon,
                "d": self.d,
                "dropped_points": int((~inside).sum()),
            },
        )

    def run_stream(self, chunks, seed=None) -> PipelineResult:
        """Execute Algorithm 1 over an iterable of point-array shards.

        Memory stays bounded by the shard size plus two histograms, so millions of
        users can be processed without ever holding all points at once.  With a fixed
        seed the result is identical to :meth:`run` on the concatenated shards.
        """
        rng = ensure_rng(seed)
        aggregator = self.mechanism.streaming_aggregator(seed=rng)
        dropped = 0
        for chunk in chunks:
            pts = np.asarray(chunk, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
            inside = self.domain.contains(pts)
            dropped += int((~inside).sum())
            aggregator.add_points(pts[inside])
        if aggregator.n_users == 0:
            raise ValueError("no points inside the domain were ingested")
        report = aggregator.finalize()
        return PipelineResult(
            estimate=report.estimate,
            true_distribution=GridDistribution.from_flat(
                self.grid, aggregator.true_cell_counts / aggregator.true_cell_counts.sum()
            ),
            noisy_counts=report.noisy_counts,
            n_users=report.n_users,
            b_hat=self.b_hat,
            mechanism=self.mechanism.name,
            info={
                "epsilon": self.epsilon,
                "d": self.d,
                "dropped_points": dropped,
                "streamed": True,
            },
        )


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
    does not leak information).
    """
    pts = np.asarray(points, dtype=float)
    if domain is None:
        # Relative pad: an absolute epsilon underflows for projected coordinates
        # (~1e6 m), leaving boundary points on the box edge.
        domain = SpatialDomain.from_points(pts, relative_pad=1e-9)
    pipeline = DAMPipeline(domain, d, epsilon, mechanism=mechanism)
    return pipeline.run(pts, seed=seed)
