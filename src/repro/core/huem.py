"""The Hybrid Uniform-Exponential Mechanism (HUEM) — Definition 5 and Appendix A.

HUEM is the paper's "direct" SAM: inside the high-probability disk the reporting
density decays exponentially with the distance to the true point,
``W(z) = q * exp((1 - ||z|| / b) * eps)``, and outside it is flat at ``q``.  The
continuous sampler lives in :mod:`repro.core.sam` (:class:`~repro.core.sam.ExponentialWave`);
this module provides the grid-discretised mechanism used in the experiments.

Appendix A discretises HUEM by splitting the disk into ``b_hat`` fan rings, assigning
each ring the wave value at its inner radius, and weighting cells crossed by a ring
boundary by the areas of their two parts.  We implement that as a cell-wise numeric
integration of the continuous wave (a regular sub-sample per cell), which converges to
the same assignment and avoids ring-boundary special cases; the relative cell masses
stay within ``[1, e^eps]`` so ε-LDP is preserved exactly as in the fan-ring scheme.
"""

from __future__ import annotations

import numpy as np

from repro.core.dam import DiskOutputDomain, PostProcess
from repro.core.domain import GridDistribution, GridSpec
from repro.core.estimator import TransitionMatrixMechanism
from repro.core.geometry import (
    enumerate_disk_cells,
    farthest_corner_distance,
    nearest_corner_distance,
    shrunken_rectangle_area,
)
from repro.core.operator import build_disk_operator
from repro.core.postprocess import (
    EM_ITERATIONS,
    adaptive_smoothing_strength,
    expectation_maximization,
    make_grid_smoother,
    matrix_inversion_estimate,
)
from repro.core.radius import grid_radius


def huem_cell_masses(b_hat: int, epsilon: float, *, subsamples: int = 7) -> np.ndarray:
    """Relative reporting mass of every disk-neighbourhood cell under discrete HUEM.

    For each cell of the disk neighbourhood the continuous HUEM wave (relative to the
    baseline ``q``) is averaged over a ``subsamples x subsamples`` midpoint lattice
    inside the cell.  Points farther than ``b_hat`` from the centre contribute the
    baseline value 1, so mixed border cells are weighted by their inside/outside parts
    exactly as in the Appendix-A fan-ring construction.

    Returns an ``(k, 3)`` array of ``(dx, dy, mass)`` with ``mass`` in ``[1, e^eps]``.
    """
    if b_hat < 1:
        raise ValueError(f"b_hat must be >= 1, got {b_hat}")
    if subsamples < 1:
        raise ValueError(f"subsamples must be >= 1, got {subsamples}")
    cells = enumerate_disk_cells(b_hat, use_shrinkage=True)
    # Midpoint lattice offsets inside a unit cell, centred on the cell centre.
    ticks = (np.arange(subsamples) + 0.5) / subsamples - 0.5
    sub_x, sub_y = np.meshgrid(ticks, ticks)
    sub_x = sub_x.reshape(-1)
    sub_y = sub_y.reshape(-1)
    rows = []
    for cell in cells:
        radii = np.hypot(cell.dx + sub_x, cell.dy + sub_y)
        relative = np.where(radii <= b_hat, np.exp((1.0 - radii / b_hat) * epsilon), 1.0)
        rows.append([cell.dx, cell.dy, float(relative.mean())])
    return np.array(rows, dtype=float)


def huem_cell_masses_fan_rings(b_hat: int, epsilon: float) -> np.ndarray:
    """Appendix-A fan-ring discretisation of HUEM.

    The disk is split into ``b_hat`` fan rings by the concentric circles of integer
    radius ``1 .. b_hat``.  A cell lying entirely inside ring ``j`` (between circles
    ``j - 1`` and ``j``) is reported with the relative mass
    ``exp((1 - (j - 1) / b_hat) * eps)``; a cell split by circle ``j`` is weighted by
    the areas of its two parts, with the inner part approximated by the same shrunken
    rectangle as in Theorem VI.1.  Cells split by the outermost circle blend with the
    baseline mass 1.

    Returns an ``(k, 3)`` array of ``(dx, dy, mass)`` compatible with
    :func:`repro.core.dam.build_disk_transition`.
    """
    if b_hat < 1:
        raise ValueError(f"b_hat must be >= 1, got {b_hat}")
    epsilon = float(epsilon)

    def ring_mass(ring_index: int) -> float:
        """Relative reporting mass of ring ``ring_index`` (1-based); beyond the disk -> 1."""
        if ring_index > b_hat:
            return 1.0
        return float(np.exp((1.0 - (ring_index - 1) / b_hat) * epsilon))

    rows = []
    for cell in enumerate_disk_cells(b_hat, use_shrinkage=True):
        near = nearest_corner_distance(cell.dx, cell.dy)
        far = farthest_corner_distance(cell.dx, cell.dy)
        inner_ring = int(np.floor(near)) + 1
        outer_ring = int(np.floor(min(far, b_hat + 0.999))) + 1
        if cell.dx == 0 and cell.dy == 0:
            mass = ring_mass(1)
        elif outer_ring == inner_ring:
            mass = ring_mass(inner_ring)
        else:
            # Split by the circle of radius `inner_ring`: the inner part keeps the
            # inner ring's mass, the remainder the next ring's (or the baseline).
            boundary = float(inner_ring)
            inner_area = shrunken_rectangle_area(cell.dx, cell.dy, boundary)
            mass = inner_area * ring_mass(inner_ring) + (1.0 - inner_area) * ring_mass(
                inner_ring + 1
            )
        rows.append([cell.dx, cell.dy, mass])
    return np.array(rows, dtype=float)


class DiscreteHUEM(TransitionMatrixMechanism):
    """The grid-discretised Hybrid Uniform-Exponential Mechanism.

    Construction mirrors :class:`~repro.core.dam.DiscreteDAM`: a structured transition
    operator over the extended output domain is built from per-offset masses, users
    are randomised by one categorical draw from their row, and estimation runs EM
    (optionally with the 2-D smoothing step).
    """

    name = "HUEM"

    def __init__(
        self,
        grid: GridSpec,
        epsilon: float,
        *,
        b_hat: int | None = None,
        postprocess: PostProcess = "ems",
        subsamples: int = 7,
        discretisation: str = "integral",
    ) -> None:
        super().__init__(grid, epsilon)
        if postprocess not in ("ems", "em", "ls"):
            raise ValueError(f"unknown postprocess mode {postprocess!r}")
        if discretisation not in ("integral", "fan-rings"):
            raise ValueError(
                f"discretisation must be 'integral' or 'fan-rings', got {discretisation!r}"
            )
        self.postprocess = postprocess
        self.discretisation = discretisation
        if b_hat is None:
            b_hat = grid_radius(epsilon, grid.d, grid.domain.side_length)
        if b_hat < 1:
            raise ValueError(f"b_hat must be >= 1, got {b_hat}")
        self.b_hat = int(b_hat)

        if discretisation == "fan-rings":
            masses = huem_cell_masses_fan_rings(self.b_hat, self.epsilon)
        else:
            masses = huem_cell_masses(self.b_hat, self.epsilon, subsamples=subsamples)
        operator = build_disk_operator(grid, self.b_hat, masses)
        self._set_operator(operator)
        self.output_domain = DiskOutputDomain(
            d=grid.d, b_hat=self.b_hat, cells=operator.output_cells
        )
        self.q_hat = float(1.0 / operator.normaliser)
        self.max_probability = float(masses[:, 2].max() / operator.normaliser)

    def estimate(self, noisy_counts: np.ndarray, n_users: int) -> GridDistribution:
        counts = np.asarray(noisy_counts, dtype=float)
        if self.postprocess == "ls":
            theta = matrix_inversion_estimate(self.transition, counts)
        else:
            strength = adaptive_smoothing_strength(self.grid.n_cells, counts.sum())
            smoother = (
                make_grid_smoother(self.grid.d, strength=strength)
                if self.postprocess == "ems" and self.grid.d > 1 and strength > 0
                else None
            )
            result = expectation_maximization(
                self._estimation_transition(),
                counts,
                max_iterations=EM_ITERATIONS,
                smoothing=smoother,
            )
            theta = result.estimate
        return GridDistribution.from_flat(self.grid, theta)
