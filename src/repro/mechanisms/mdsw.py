"""MDSW — the Multi-dimensional Square Wave baseline (Yang et al., VLDB 2020).

MDSW extends the 1-D Square Wave mechanism to spatial data by privatising each
coordinate independently: every user splits the privacy budget across the two
dimensions, reports the x bucket through one SW oracle and the y bucket through
another, and the analyst multiplies the two estimated marginals back into a joint
distribution.  The construction keeps the ordinal structure *within* each axis but
discards the correlation *between* axes — which is exactly the weakness the paper's
DAM addresses and the experiments expose.
"""

from __future__ import annotations

import numpy as np

from repro.core.domain import GridDistribution, GridSpec, outer_product_distribution
from repro.core.estimator import SpatialMechanism
from repro.mechanisms.sw import DiscreteSquareWave
from repro.utils.rng import ensure_rng


class MDSW(SpatialMechanism):
    """Multi-dimensional Square Wave over a ``d x d`` grid.

    Parameters
    ----------
    grid, epsilon:
        Input grid and total per-user budget.  The budget is split across the two
        dimensions (``eps / 2`` each by default), the standard composition used when
        every user reports both coordinates.
    budget_split:
        Share of the budget spent on the x coordinate; y gets the rest.

    Each axis is estimated with SW-EMS (EM plus smoothing).
    """

    name = "MDSW"

    def __init__(
        self,
        grid: GridSpec,
        epsilon: float,
        *,
        budget_split: float = 0.5,
    ) -> None:
        super().__init__(grid, epsilon)
        if not 0.0 < budget_split < 1.0:
            raise ValueError(f"budget_split must be in (0, 1), got {budget_split}")
        self.budget_split = budget_split
        self.oracle_x = DiscreteSquareWave(grid.d, epsilon * budget_split)
        self.oracle_y = DiscreteSquareWave(grid.d, epsilon * (1.0 - budget_split))

    def output_domain_size(self) -> int:
        return self.oracle_x.d_out * self.oracle_y.d_out

    def privatize_cells(self, cells: np.ndarray, seed=None) -> np.ndarray:
        rng = ensure_rng(seed)
        cells = np.asarray(cells, dtype=np.int64)
        rows, cols = self.grid.cell_to_rowcol(cells)
        noisy_x = self.oracle_x.privatize(cols, seed=rng)
        noisy_y = self.oracle_y.privatize(rows, seed=rng)
        return noisy_y * self.oracle_x.d_out + noisy_x

    def estimate(self, noisy_counts: np.ndarray, n_users: int) -> GridDistribution:
        counts = np.asarray(noisy_counts, dtype=float).reshape(
            self.oracle_y.d_out, self.oracle_x.d_out
        )
        # Recover the per-axis report histograms, estimate each marginal, recombine.
        x_marginal = self.oracle_x.estimate_counts(counts.sum(axis=0))
        y_marginal = self.oracle_y.estimate_counts(counts.sum(axis=1))
        return outer_product_distribution(self.grid, x_marginal, y_marginal)
