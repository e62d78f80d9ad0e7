"""The Disk Area Mechanism (DAM) — Definitions 8 and Eq. (13), plus DAM-NS.

The continuous DAM reports a point inside the disk of radius ``b`` around the true
location with constant density ``p`` and any other point of the output domain with
density ``q`` (Definition 8); it is the SAM that maximises the sliced Wasserstein
distance between the output distributions of any two inputs (Theorem V.2) and hence
the paper's headline mechanism.

The discrete DAM of Section VI works on a ``d x d`` grid with an integer radius
``b_hat``: cells whose centre falls inside the disk are reported with probability
``p_hat``, border ("mixed") cells are split into a high-probability *shrunken
rectangle* and a low-probability remainder (Theorem VI.1), and every other cell of the
extended output domain is reported with probability ``q_hat``.  Disabling shrinkage
gives the paper's DAM-NS ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.domain import GridDistribution, GridSpec
from repro.core.estimator import TransitionMatrixMechanism
from repro.core.geometry import disk_offset_array, output_domain_cells
from repro.core.operator import build_disk_operator
from repro.core.postprocess import (
    EM_ITERATIONS,
    adaptive_smoothing_strength,
    expectation_maximization,
    make_grid_smoother,
    matrix_inversion_estimate,
)
from repro.core.radius import grid_radius
from repro.utils.validation import check_epsilon

PostProcess = Literal["ems", "em", "ls"]


@dataclass(frozen=True)
class DiskOutputDomain:
    """The extended ("rounded square") output grid of a disk mechanism.

    The output domain is the union of disk neighbourhoods of every input cell, so its
    cells may have negative indices or indices ``>= d`` (the ``b_hat``-wide extension
    ring around the input grid).
    """

    d: int
    b_hat: int
    cells: np.ndarray  # (m, 2) integer (col, row) pairs

    @staticmethod
    def build(d: int, b_hat: int) -> "DiskOutputDomain":
        cells = output_domain_cells(d, b_hat)
        return DiskOutputDomain(d=d, b_hat=b_hat, cells=cells)

    @property
    def size(self) -> int:
        return int(self.cells.shape[0])

    def index_lookup(self) -> dict[tuple[int, int], int]:
        """Mapping from ``(col, row)`` to the flat output index."""
        return {(int(c), int(r)): i for i, (c, r) in enumerate(self.cells)}

    def contains_input_grid(self) -> bool:
        """Sanity check: every input cell must be part of the output domain."""
        lookup = self.index_lookup()
        return all(
            (col, row) in lookup for col in range(self.d) for row in range(self.d)
        )


def build_disk_transition(
    grid: GridSpec,
    b_hat: int,
    offset_masses: np.ndarray,
    *,
    low_mass: float = 1.0,
) -> tuple[np.ndarray, DiskOutputDomain, float]:
    """Build the row-stochastic transition matrix of a disk-shaped mechanism.

    Parameters
    ----------
    grid:
        Input grid specification.
    b_hat:
        Integer high-probability radius in cell units.
    offset_masses:
        ``(k, 3)`` array of ``(dx, dy, mass)`` where ``mass`` is the *relative*
        probability mass (in units of the baseline ``q``) placed on the cell at that
        offset from the true cell.  Cells of the output domain not listed here receive
        ``low_mass``.
    low_mass:
        Relative mass of a pure-low-probability cell (1.0 for DAM and HUEM).

    Returns
    -------
    (transition, output_domain, normaliser)
        ``transition`` has shape ``(d*d, m)``; ``normaliser`` is the common row
        normalisation constant (so ``q_hat = low_mass / normaliser``).

    Notes
    -----
    Because the offset masses and the output-domain size are identical for every input
    cell, all rows share one normalisation constant; this is exactly why the discrete
    mechanism keeps the ``e^eps`` probability ratio of the continuous one and therefore
    satisfies ε-LDP.

    This is the dense materialisation of the structured
    :class:`~repro.core.operator.DiskTransitionOperator`, kept for callers (ablation
    code, tests) that genuinely want the matrix; the mechanisms themselves keep the
    operator and never build it on the hot path.
    """
    operator = build_disk_operator(grid, b_hat, offset_masses, low_mass=low_mass)
    domain = DiskOutputDomain(d=grid.d, b_hat=b_hat, cells=operator.output_cells)
    return operator.to_dense(), domain, operator.normaliser


class DiscreteDAM(TransitionMatrixMechanism):
    """The grid-discretised Disk Area Mechanism (Algorithm 1 + Eq. 13).

    Parameters
    ----------
    grid:
        The ``d x d`` input grid.
    epsilon:
        Privacy budget.
    b_hat:
        Integer high-probability radius in cells.  Defaults to the paper's
        mutual-information-optimal radius converted to grid units
        (:func:`repro.core.radius.grid_radius`).
    use_shrinkage:
        ``True`` for the full DAM of Section VI, ``False`` for the DAM-NS ablation in
        which border cells are treated as entirely low-probability.
    postprocess:
        ``"ems"`` (EM with 2-D smoothing, the default and the paper's choice),
        ``"em"`` (plain EM) or ``"ls"`` (least squares + simplex projection).  The
        EMS smoothing strength is picked from the report density
        (:func:`repro.core.postprocess.adaptive_smoothing_strength`).

    The randomisation is kept as a structured
    :class:`~repro.core.operator.DiskTransitionOperator` — whole-batch sampling and
    sparse or FFT EM matvecs (chosen by grid and disk size); the dense ``(d^2, m)``
    matrix is only built on demand (``transition``, for the ``"ls"`` mode and the
    Local Privacy calibration).
    """

    name = "DAM"

    def __init__(
        self,
        grid: GridSpec,
        epsilon: float,
        *,
        b_hat: int | None = None,
        use_shrinkage: bool = True,
        postprocess: PostProcess = "ems",
    ) -> None:
        super().__init__(grid, epsilon)
        if postprocess not in ("ems", "em", "ls"):
            raise ValueError(f"unknown postprocess mode {postprocess!r}")
        self.use_shrinkage = use_shrinkage
        self.postprocess = postprocess
        if not use_shrinkage:
            self.name = "DAM-NS"
        if b_hat is None:
            b_hat = grid_radius(epsilon, grid.d, grid.domain.side_length)
        if b_hat < 1:
            raise ValueError(f"b_hat must be >= 1, got {b_hat}")
        self.b_hat = int(b_hat)

        offsets = disk_offset_array(self.b_hat, use_shrinkage=use_shrinkage)
        e_eps = np.exp(check_epsilon(epsilon))
        # Relative mass of each disk cell: high fraction at e^eps, remainder at 1.
        masses = offsets.copy()
        masses[:, 2] = offsets[:, 2] * e_eps + (1.0 - offsets[:, 2])
        operator = build_disk_operator(grid, self.b_hat, masses)
        domain = DiskOutputDomain(d=grid.d, b_hat=self.b_hat, cells=operator.output_cells)
        normaliser = operator.normaliser
        self._set_operator(operator)
        self.output_domain = domain
        #: high/low report probabilities of Eq. (13)
        self.p_hat = float(e_eps / normaliser)
        self.q_hat = float(1.0 / normaliser)
        #: total high- and low-probability areas S_H and S_L (Section VI-A)
        self.s_high = float(offsets[:, 2].sum())
        self.s_low = float(domain.size - offsets.shape[0] + (1.0 - offsets[:, 2]).sum())

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


class DiscreteDAMNoShrink(DiscreteDAM):
    """Convenience subclass for the DAM-NS ablation (no border-cell shrinkage)."""

    name = "DAM-NS"

    def __init__(self, grid: GridSpec, epsilon: float, **kwargs) -> None:
        kwargs.pop("use_shrinkage", None)
        super().__init__(grid, epsilon, use_shrinkage=False, **kwargs)
