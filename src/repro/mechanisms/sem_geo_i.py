"""SEM-Geo-I — the Subset Exponential Mechanism under ε-Geo-I (Wang et al., INFOCOM 2017).

SEM-Geo-I is the paper's strongest categorical baseline.  Each user reports a *subset*
of ``k`` grid cells rather than a single cell:

1. an "anchor" cell is drawn from the Geo-I exponential kernel centred on the true cell
   (``Pr proportional to exp(-eps' * dis / 2)``), and
2. ``k - 1`` further distinct cells are added uniformly at random as padding,

with ``k ~= n / e^{eps'}`` following the subset-mechanism analysis (this is also why the
paper notes SEM-Geo-I's output domain blows up as ``n^{n / e^eps}`` for small budgets).
The analyst observes, for every cell, how often it was included in a reported subset;
the inclusion probabilities have a closed form, so the input distribution is recovered
with the same EM machinery used elsewhere in the library.

The ε′ used here is a Geo-I budget; the experiment runner calibrates it against DAM's
ε through the Local Privacy metric (:mod:`repro.metrics.local_privacy`), exactly as in
Section VII-B.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.domain import GridDistribution, GridSpec
from repro.core.estimator import SpatialMechanism
from repro.core.postprocess import (
    EM_ITERATIONS,
    adaptive_smoothing_strength,
    expectation_maximization,
    make_grid_smoother,
)
from repro.utils.histogram import pairwise_cell_distances
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_epsilon


class SEMGeoI(SpatialMechanism):
    """Subset Exponential Mechanism with a Geo-I reporting kernel.

    Parameters
    ----------
    grid, epsilon:
        Input grid and the Geo-I budget ε′ (privacy loss per unit distance, measured in
        cell units).
    subset_size:
        Size ``k`` of the reported subset; defaults to ``max(1, round(n / e^eps'))``.

    The inclusion histogram is post-processed with EMS.
    """

    name = "SEM-Geo-I"

    def __init__(
        self,
        grid: GridSpec,
        epsilon: float,
        *,
        subset_size: int | None = None,
    ) -> None:
        super().__init__(grid, epsilon)
        n_cells = grid.n_cells
        if subset_size is None:
            subset_size = max(1, int(round(n_cells / math.exp(check_epsilon(epsilon)))))
        if not 1 <= subset_size <= n_cells:
            raise ValueError(f"subset_size must lie in [1, {n_cells}], got {subset_size}")
        self.subset_size = int(subset_size)

        distances = pairwise_cell_distances(grid.d, grid.domain.bounds) / grid.cell_side
        self.cell_distances = distances
        kernel = np.exp(-self.epsilon * distances / 2.0)
        #: anchor-selection probabilities, row-stochastic over cells
        self.anchor_probabilities = kernel / kernel.sum(axis=1, keepdims=True)
        #: closed-form inclusion probabilities Pr(cell j in subset | true cell i)
        self.inclusion_probabilities = self._inclusion_matrix()

    def _inclusion_matrix(self) -> np.ndarray:
        """``Pr(j in S | i) = anchor_ij + (1 - anchor_ij) * (k - 1) / (n - 1)``."""
        n = self.grid.n_cells
        if n == 1:
            return np.ones((1, 1))
        anchor = self.anchor_probabilities
        padding = (self.subset_size - 1) / (n - 1)
        return anchor + (1.0 - anchor) * padding

    def output_domain_size(self) -> int:
        # Reports are aggregated as per-cell inclusion counts.
        return self.grid.n_cells

    def privatize_cells(self, cells: np.ndarray, seed=None) -> np.ndarray:
        """Report the anchor cell of each user's subset (used for the report stream).

        The full subset is produced by :meth:`privatize_subsets`; the anchor alone is
        returned here so the mechanism still fits the single-index report interface
        used by the shared privacy audits.
        """
        rng = ensure_rng(seed)
        cells = np.asarray(cells, dtype=np.int64)
        reports = np.empty(cells.shape[0], dtype=np.int64)
        for cell in np.unique(cells):
            mask = cells == cell
            reports[mask] = rng.choice(
                self.grid.n_cells, size=int(mask.sum()), p=self.anchor_probabilities[cell]
            )
        return reports

    @property
    def transition(self) -> np.ndarray:
        """Single-report (anchor) obfuscation matrix, used by the Local Privacy metric.

        The Local Privacy calibration of Section VII-B traverses the mechanism's output
        domain; for the subset mechanism we use the anchor-report kernel, which carries
        all of the location-dependent signal (the padding cells are uniform and
        distribution-free).
        """
        return self.anchor_probabilities

    def privatize_subsets(self, cells: np.ndarray, seed=None) -> np.ndarray:
        """Full subset reports: a boolean ``(n_users, n_cells)`` inclusion matrix.

        The anchor cell is always included; the ``k - 1`` padding cells are a uniform
        random draw without replacement from the remaining cells, realised by ranking
        one uniform key per (user, cell) pair so the whole batch is vectorised.
        """
        rng = ensure_rng(seed)
        cells = np.asarray(cells, dtype=np.int64)
        n_users = cells.shape[0]
        n_cells = self.grid.n_cells
        inclusion = np.zeros((n_users, n_cells), dtype=bool)
        if n_users == 0:
            return inclusion
        anchors = self.privatize_cells(cells, seed=rng)
        inclusion[np.arange(n_users), anchors] = True
        extra = self.subset_size - 1
        if extra > 0:
            keys = rng.random((n_users, n_cells))
            keys[np.arange(n_users), anchors] = np.inf  # anchor already in the subset
            chosen = np.argpartition(keys, extra - 1, axis=1)[:, :extra]
            inclusion[np.repeat(np.arange(n_users), extra), chosen.reshape(-1)] = True
        return inclusion

    def aggregate_subsets(self, inclusion: np.ndarray) -> np.ndarray:
        """Per-cell inclusion counts from a boolean subset-report matrix."""
        inclusion = np.asarray(inclusion, dtype=bool)
        if inclusion.ndim != 2 or inclusion.shape[1] != self.grid.n_cells:
            raise ValueError(
                f"inclusion matrix must have {self.grid.n_cells} columns, got {inclusion.shape}"
            )
        return inclusion.sum(axis=0).astype(float)

    def estimate(self, noisy_counts: np.ndarray, n_users: int) -> GridDistribution:
        """Recover the input distribution from per-cell inclusion (or anchor) counts."""
        counts = np.asarray(noisy_counts, dtype=float)
        strength = adaptive_smoothing_strength(self.grid.n_cells, counts.sum())
        smoother = (
            make_grid_smoother(self.grid.d, strength=strength)
            if self.grid.d > 1 and strength > 0
            else None
        )
        # The inclusion matrix is not row-stochastic (rows sum to k); normalising the
        # rows rescales the likelihood uniformly and leaves the EM fixed points intact.
        matrix = self.inclusion_probabilities / self.inclusion_probabilities.sum(
            axis=1, keepdims=True
        )
        result = expectation_maximization(
            matrix, counts, max_iterations=EM_ITERATIONS, smoothing=smoother
        )
        return GridDistribution.from_flat(self.grid, result.estimate)

    def run(self, points: np.ndarray, seed=None):
        """End-to-end run using full subset reports (overrides the anchor-only default)."""
        from repro.core.estimator import MechanismReport

        rng = ensure_rng(seed)
        pts = np.asarray(points, dtype=float)
        cells = self.grid.point_to_cell(pts)
        inclusion = self.privatize_subsets(cells, seed=rng)
        counts = self.aggregate_subsets(inclusion)
        estimate = self.estimate(counts, n_users=pts.shape[0])
        return MechanismReport(estimate=estimate, noisy_counts=counts, n_users=pts.shape[0])
