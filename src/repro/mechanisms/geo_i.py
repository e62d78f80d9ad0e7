"""Geo-Indistinguishability (Andrés et al., CCS 2013) — the substrate for SEM-Geo-I.

ε-Geo-I bounds the probability ratio of any two inputs ``v1, v2`` producing the same
output by ``exp(eps * dis(v1, v2))``: nearby locations are almost indistinguishable,
far-apart locations much less so.  Two implementations are provided:

* :class:`PlanarLaplaceMechanism` — the classical continuous mechanism that adds noise
  drawn from the planar (polar) Laplace distribution; and
* :class:`DiscreteGeoIMechanism` — the exponential-kernel analogue over grid cells,
  ``Pr(report j | true i)  proportional to  exp(-eps * dis(c_i, c_j) / 2)``,
  which satisfies ε-Geo-I by the triangle inequality and is the reporting kernel the
  SEM-Geo-I baseline builds on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.domain import GridDistribution, GridSpec
from repro.core.estimator import TransitionMatrixMechanism
from repro.core.postprocess import (
    EM_ITERATIONS,
    adaptive_smoothing_strength,
    expectation_maximization,
    make_grid_smoother,
)
from repro.utils.histogram import pairwise_cell_distances
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_epsilon, check_points


class PlanarLaplaceMechanism:
    """Continuous Geo-I via planar Laplace noise.

    The noise magnitude follows a Gamma(2, 1/eps) radial distribution with a uniform
    angle, which is the exact polar decomposition of the planar Laplace density
    ``f(z) proportional to exp(-eps ||z||)``.
    """

    def __init__(self, epsilon: float) -> None:
        #: ε here is the Geo-I parameter (privacy loss per unit of distance).
        self.epsilon = check_epsilon(epsilon)

    def privatize(self, points: np.ndarray, seed=None) -> np.ndarray:
        """Add planar Laplace noise to each ``(x, y)`` point."""
        rng = ensure_rng(seed)
        pts = check_points(points)
        n = pts.shape[0]
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        radii = rng.gamma(shape=2.0, scale=1.0 / self.epsilon, size=n)
        noise = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        return pts + noise

    def privacy_loss(self, distance: float) -> float:
        """The Geo-I privacy loss of distinguishing two points at a given distance."""
        return self.epsilon * float(distance)


class DiscreteGeoIMechanism(TransitionMatrixMechanism):
    """Exponential-kernel Geo-I reporting over grid cells.

    ``Pr(report j | true i) = exp(-eps * d(c_i, c_j) / 2) / Z_i``; because the row
    normalisers ``Z_i`` differ by at most ``exp(eps * d(i, i') / 2)`` between rows, the
    mechanism satisfies ε-Geo-I (the standard exponential-mechanism argument with the
    distance as a 1-sensitive score).  Distances are measured between cell centres in
    *cell units* by default so that one ε value behaves comparably across grid
    resolutions, matching how the paper normalises SEM-Geo-I's domain.
    """

    name = "Geo-I"

    def __init__(
        self,
        grid: GridSpec,
        epsilon: float,
        *,
        distance_unit: str = "cells",
    ) -> None:
        super().__init__(grid, epsilon)
        if distance_unit not in ("cells", "domain"):
            raise ValueError(f"distance_unit must be 'cells' or 'domain', got {distance_unit!r}")
        self.distance_unit = distance_unit
        distances = pairwise_cell_distances(grid.d, grid.domain.bounds)
        if distance_unit == "cells":
            distances = distances / grid.cell_side
        self.cell_distances = distances
        kernel = np.exp(-check_epsilon(epsilon) * distances / 2.0)
        self._set_transition(kernel / kernel.sum(axis=1, keepdims=True))

    def estimate(self, noisy_counts: np.ndarray, n_users: int) -> GridDistribution:
        counts = np.asarray(noisy_counts, dtype=float)
        strength = adaptive_smoothing_strength(self.grid.n_cells, counts.sum())
        smoother = (
            make_grid_smoother(self.grid.d, strength=strength)
            if self.grid.d > 1 and strength > 0
            else None
        )
        result = expectation_maximization(
            self.transition, counts, max_iterations=EM_ITERATIONS, smoothing=smoother
        )
        return GridDistribution.from_flat(self.grid, result.estimate)

    def geo_indistinguishability_audit(self) -> float:
        """Largest measured ``log ratio / distance`` over input pairs and outputs.

        For a correct ε-Geo-I mechanism this is at most ε (up to floating point); the
        privacy tests assert it.
        """
        matrix = self.transition
        worst = 0.0
        n = matrix.shape[0]
        for i in range(n):
            ratios = np.log(np.clip(matrix[i], 1e-300, None)) - np.log(
                np.clip(matrix, 1e-300, None)
            )
            max_log_ratio = ratios.max(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                normalised = np.where(
                    self.cell_distances[i] > 0, max_log_ratio / self.cell_distances[i], 0.0
                )
            worst = max(worst, float(normalised.max()))
        return worst
