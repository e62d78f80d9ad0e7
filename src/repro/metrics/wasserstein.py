"""Exact Wasserstein distances: 1-D closed form and 2-D linear programming (Eq. 17).

The paper evaluates every mechanism by the 2-norm Wasserstein distance
``W2 = sqrt(W_2^2)`` between the true and the recovered grid distribution.  For finite
grid distributions the optimal-transport problem is the linear program of Eq. (17):
minimise ``<M, R>`` over joint distributions ``R`` with the two distributions as
marginals, where ``M`` holds the pairwise ``p``-norm costs to the ``p``-th power.

Small grids are solved exactly with ``scipy.optimize.linprog`` (HiGHS); for larger
grids the paper (and this library, see :mod:`repro.metrics.sinkhorn`) switches to the
Sinkhorn approximation.  The 1-D case has the classic quantile-coupling closed form and
is used heavily by the sliced Wasserstein distance.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.domain import GridDistribution
from repro.utils.histogram import pairwise_cell_distances
from repro.utils.validation import check_positive, check_probability_vector


def wasserstein_1d(
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    positions: np.ndarray | None = None,
    *,
    p: float = 2.0,
) -> float:
    """``p``-Wasserstein distance between two 1-D discrete distributions.

    Uses the quantile-function coupling, which is optimal in one dimension for any
    convex cost.  ``positions`` are the support points (defaults to ``0..n-1``); the
    two weight vectors must share that support.  Returns ``W_p`` (the ``p``-th root),
    not ``W_p^p``.
    """
    check_positive(p, "p")
    a = check_probability_vector(np.asarray(weights_a, dtype=float), name="weights_a")
    b = check_probability_vector(np.asarray(weights_b, dtype=float), name="weights_b")
    if a.shape != b.shape:
        raise ValueError(f"weight vectors must share a support, got {a.shape} vs {b.shape}")
    if positions is None:
        positions = np.arange(a.shape[0], dtype=float)
    positions = np.asarray(positions, dtype=float).reshape(-1)
    if positions.shape != a.shape:
        raise ValueError("positions must have the same length as the weights")
    order = np.argsort(positions)
    positions = positions[order]
    a = a[order]
    b = b[order]
    return _wasserstein_1d_sorted(a, b, positions, p)


def _wasserstein_1d_sorted(a: np.ndarray, b: np.ndarray, positions: np.ndarray, p: float) -> float:
    """Quantile-coupling W_p for weights already sorted by position."""
    cdf_a = np.cumsum(a)
    cdf_b = np.cumsum(b)
    # Merge both quantile levels, then integrate |F_a^{-1}(u) - F_b^{-1}(u)|^p du.
    levels = np.concatenate([[0.0], np.sort(np.concatenate([cdf_a, cdf_b]))])
    levels = np.clip(levels, 0.0, 1.0)
    deltas = np.diff(levels)
    mids = (levels[:-1] + levels[1:]) / 2.0
    inv_a = positions[np.searchsorted(cdf_a, mids, side="left").clip(0, len(positions) - 1)]
    inv_b = positions[np.searchsorted(cdf_b, mids, side="left").clip(0, len(positions) - 1)]
    cost = float(np.sum(deltas * np.abs(inv_a - inv_b) ** p))
    return cost ** (1.0 / p)


def wasserstein_1d_general(
    positions_a: np.ndarray,
    weights_a: np.ndarray,
    positions_b: np.ndarray,
    weights_b: np.ndarray,
    *,
    p: float = 1.0,
) -> float:
    """W_p between two 1-D distributions on *different* supports.

    Needed by the sliced Wasserstein distance, whose Radon projections generally do not
    share support points.
    """
    check_positive(p, "p")
    pa = np.asarray(positions_a, dtype=float).reshape(-1)
    pb = np.asarray(positions_b, dtype=float).reshape(-1)
    wa = check_probability_vector(np.asarray(weights_a, dtype=float), name="weights_a")
    wb = check_probability_vector(np.asarray(weights_b, dtype=float), name="weights_b")
    if pa.shape != wa.shape or pb.shape != wb.shape:
        raise ValueError("positions and weights must have matching lengths")
    order_a = np.argsort(pa)
    order_b = np.argsort(pb)
    pa, wa = pa[order_a], wa[order_a]
    pb, wb = pb[order_b], wb[order_b]
    cdf_a = np.cumsum(wa)
    cdf_b = np.cumsum(wb)
    levels = np.concatenate([[0.0], np.sort(np.concatenate([cdf_a, cdf_b]))])
    levels = np.clip(levels, 0.0, 1.0)
    deltas = np.diff(levels)
    mids = (levels[:-1] + levels[1:]) / 2.0
    inv_a = pa[np.searchsorted(cdf_a, mids, side="left").clip(0, len(pa) - 1)]
    inv_b = pb[np.searchsorted(cdf_b, mids, side="left").clip(0, len(pb) - 1)]
    cost = float(np.sum(deltas * np.abs(inv_a - inv_b) ** p))
    return cost ** (1.0 / p)


def wasserstein_exact(
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    cost_matrix: np.ndarray,
) -> float:
    """Exact optimal-transport cost ``min <M, R>`` by linear programming (Eq. 17).

    Returns the optimal objective value (i.e. ``W_p^p`` if ``cost_matrix`` holds
    ``p``-th powers of distances).  The LP has ``m * n`` variables and ``m + n``
    equality constraints and is handed to the HiGHS solver in sparse form.
    """
    a = check_probability_vector(np.asarray(weights_a, dtype=float), name="weights_a")
    b = check_probability_vector(np.asarray(weights_b, dtype=float), name="weights_b")
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            f"cost matrix shape {cost.shape} does not match weights "
            f"({a.shape[0]}, {b.shape[0]})"
        )
    m, n = cost.shape
    # Re-normalise exactly so the two marginals carry identical total mass (tiny
    # floating-point drift otherwise makes the equality system infeasible).
    a = a / a.sum()
    b = b / b.sum()
    # Row-marginal constraints then column-marginal constraints.  The final column
    # constraint is redundant (total mass is fixed by the others) and dropping it keeps
    # the equality system full-rank, which HiGHS prefers.
    row_indices = np.repeat(np.arange(m), n)
    col_indices = np.tile(np.arange(n), m) + m
    variable_indices = np.arange(m * n)
    data = np.ones(2 * m * n)
    rows = np.concatenate([row_indices, col_indices])
    cols = np.concatenate([variable_indices, variable_indices])
    keep = rows < m + n - 1
    constraints = sparse.coo_matrix(
        (data[keep], (rows[keep], cols[keep])), shape=(m + n - 1, m * n)
    )
    rhs = np.concatenate([a, b])[: m + n - 1]
    result = linprog(
        cost.reshape(-1),
        A_eq=constraints.tocsr(),
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:  # pragma: no cover - linprog failure is exceptional
        raise RuntimeError(f"optimal transport LP failed: {result.message}")
    return float(result.fun)


def check_same_grid(dist_a: GridDistribution, dist_b: GridDistribution) -> None:
    """Reject two grid distributions that differ in grid side or domain bounds.

    The ground cost is built from one grid's cell centres, so it only describes both
    distributions when they share it.  Bounds are compared rather than the grid
    specs because a domain also carries a ``name``, which moves no cell centre.
    """
    if dist_a.grid.d != dist_b.grid.d:
        raise ValueError("grid distributions must live on grids of equal side")
    if dist_a.grid.domain.bounds != dist_b.grid.domain.bounds:
        raise ValueError(
            "grid distributions must live on the same domain, got bounds "
            f"{dist_a.grid.domain.bounds} and {dist_b.grid.domain.bounds}"
        )


def wasserstein2_grid(
    dist_a: GridDistribution,
    dist_b: GridDistribution,
    *,
    p: float = 2.0,
) -> float:
    """``W_p`` between two grid distributions using the exact LP solver.

    Distances between cells are Euclidean distances between cell centres in domain
    coordinates; the returned value is ``W_p`` (the ``p``-th root of the optimal cost),
    matching the ``W2`` reported in the paper's figures.  The two distributions must
    share the grid side and the domain bounds.
    """
    check_same_grid(dist_a, dist_b)
    check_positive(p, "p")
    distances = pairwise_cell_distances(dist_a.grid.d, dist_a.grid.domain.bounds)
    cost = distances**p
    value = wasserstein_exact(dist_a.flat(), dist_b.flat(), cost)
    return value ** (1.0 / p)


#: Largest grid, in cells, that :func:`wasserstein2_auto` solves with the exact LP by
#: default (144 cells, i.e. ``d = 12``); finer grids switch to Sinkhorn.  The
#: experiment runner's sweep cache key reads it, so changing it here re-scores every
#: cached sweep cell.
EXACT_CELL_LIMIT: int = 144


def wasserstein2_auto(
    dist_a: GridDistribution,
    dist_b: GridDistribution,
    *,
    p: float = 2.0,
    exact_cell_limit: int = EXACT_CELL_LIMIT,
    sinkhorn_reg: float = 0.01,
) -> float:
    """``W_p`` with the paper's solver switch: exact LP for small grids, Sinkhorn above.

    The paper solves Eq. (17) exactly for ``d <= 5`` and switches to Sinkhorn's
    algorithm for the ``d`` up to 20 sweeps; ``exact_cell_limit`` (default
    :data:`EXACT_CELL_LIMIT`) reproduces that behaviour while keeping runtimes
    laptop-friendly.
    """
    if dist_a.grid.n_cells <= exact_cell_limit:
        return wasserstein2_grid(dist_a, dist_b, p=p)
    from repro.metrics.sinkhorn import sinkhorn_wasserstein  # local import, no cycle

    return sinkhorn_wasserstein(dist_a, dist_b, p=p, reg=sinkhorn_reg)
