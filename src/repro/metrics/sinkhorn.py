"""Entropic optimal transport (Sinkhorn's algorithm, Cuturi 2013).

The paper uses Sinkhorn's algorithm to approximate the 2-D Wasserstein distance when
the grid is too fine for the exact linear program (Section VII-C2).  Two iterations
live here:

* :func:`sinkhorn_plan` is the general solver: the log-domain (stabilised) iteration
  over any ``(m, n)`` cost matrix, numerically sound for the small regularisation
  values needed to track the exact distance closely.  :func:`sinkhorn_distance` and
  ``W_p`` for ``p != 2`` run it, and it is the oracle the separable path is tested
  against.
* :func:`sinkhorn_wasserstein` at ``p = 2`` runs the same iterates in scaling form on
  a separable kernel.  On a ``d x d`` grid the squared Euclidean cost between cell
  centres is an x part plus a y part, so the Gibbs kernel ``exp(-cost / reg)`` of the
  ``d^2 x d^2`` problem is the Kronecker product ``Ky (x) Kx`` of two ``d x d``
  kernels (Solomon et al., "Convolutional Wasserstein Distances", SIGGRAPH 2015).
  Each half-step ``U = A / (Ky V Kx)`` is then two ``d x d`` matrix products instead
  of a log-sum-exp over the full cost, and the transport cost is summed without
  building the plan.

The scaling form multiplies kernel entries instead of adding their logarithms, so it
needs them representable.  :func:`sinkhorn_wasserstein` scales ``reg`` by the largest
ground cost, so every entry ``exp(-cost / (reg * max cost))`` is at least
``exp(-1 / reg)``: about ``3.7e-44`` at the default ``reg = 0.01``, far above the
double-precision underflow near ``exp(-745)``.  For ``reg`` below about ``1/745`` the
far entries underflow to zero, an iterate can divide by zero, and the solve is
repeated with the log-domain loop, whose value it then returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.domain import GridDistribution
from repro.metrics.wasserstein import check_same_grid
from repro.utils.histogram import grid_cell_centers, pairwise_cell_distances
from repro.utils.validation import check_positive, check_probability_vector


@dataclass(frozen=True)
class SinkhornResult:
    """Transport cost plus convergence diagnostics of a Sinkhorn run."""

    cost: float
    iterations: int
    marginal_error: float
    converged: bool


def sinkhorn_plan(
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    cost_matrix: np.ndarray,
    *,
    reg: float = 0.01,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, SinkhornResult]:
    """Entropy-regularised optimal transport plan via log-domain Sinkhorn iterations.

    Parameters
    ----------
    weights_a, weights_b:
        Source and target distributions (must sum to one).
    cost_matrix:
        ``(m, n)`` ground-cost matrix (typically squared Euclidean distances).
    reg:
        Entropic regularisation strength; smaller values approximate the unregularised
        optimum more closely at the price of more iterations.
    max_iterations, tolerance:
        Convergence controls on the marginal violation.

    Returns
    -------
    (plan, result)
        The transport plan and a :class:`SinkhornResult` with the entropic transport
        cost ``<plan, cost>`` (excluding the entropy term, which is what the paper
        reports).
    """
    a = check_probability_vector(np.asarray(weights_a, dtype=float), name="weights_a")
    b = check_probability_vector(np.asarray(weights_b, dtype=float), name="weights_b")
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            f"cost matrix shape {cost.shape} does not match weights "
            f"({a.shape[0]}, {b.shape[0]})"
        )
    check_positive(reg, "reg")

    # Zero-mass bins would produce -inf potentials; drop them and reinsert at the end.
    support_a = a > 0
    support_b = b > 0
    a_pos = a[support_a]
    b_pos = b[support_b]
    kernel = -cost[np.ix_(support_a, support_b)] / reg
    log_a = np.log(a_pos)
    log_b = np.log(b_pos)
    f = np.zeros_like(a_pos)
    g = np.zeros_like(b_pos)

    def _logsumexp(matrix: np.ndarray, axis: int) -> np.ndarray:
        peak = matrix.max(axis=axis, keepdims=True)
        return (peak + np.log(np.exp(matrix - peak).sum(axis=axis, keepdims=True))).squeeze(axis)

    converged = False
    iterations = 0
    marginal_error = np.inf
    for iterations in range(1, max_iterations + 1):
        f = reg * (log_a - _logsumexp((kernel + g[None, :] / reg), axis=1))
        g = reg * (log_b - _logsumexp((kernel + f[:, None] / reg).T, axis=1))
        if iterations % 10 == 0 or iterations == max_iterations:
            log_plan = kernel + f[:, None] / reg + g[None, :] / reg
            plan_pos = np.exp(log_plan)
            marginal_error = float(
                np.abs(plan_pos.sum(axis=1) - a_pos).sum()
                + np.abs(plan_pos.sum(axis=0) - b_pos).sum()
            )
            if marginal_error < tolerance:
                converged = True
                break

    log_plan = kernel + f[:, None] / reg + g[None, :] / reg
    plan_pos = np.exp(log_plan)
    plan = np.zeros_like(cost)
    plan[np.ix_(support_a, support_b)] = plan_pos
    transport_cost = float((plan * cost).sum())
    return plan, SinkhornResult(
        cost=transport_cost,
        iterations=iterations,
        marginal_error=marginal_error,
        converged=converged,
    )


def sinkhorn_distance(
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    cost_matrix: np.ndarray,
    *,
    reg: float = 0.01,
    max_iterations: int = 2000,
) -> float:
    """Entropic transport cost ``<plan, cost>`` (no root applied)."""
    _, result = sinkhorn_plan(
        weights_a, weights_b, cost_matrix, reg=reg, max_iterations=max_iterations
    )
    return result.cost


def _separable_sinkhorn(
    dist_a: GridDistribution,
    dist_b: GridDistribution,
    *,
    reg: float,
    max_iterations: int,
) -> SinkhornResult | None:
    """Scaling-form Sinkhorn on ``Ky (x) Kx`` under the squared Euclidean cell cost.

    ``reg`` is scaled by the largest ground cost, as in :func:`sinkhorn_wasserstein`.
    Runs :func:`sinkhorn_plan`'s iterate sequence on the flattened grids with
    ``U = exp(f / reg)`` and ``V = exp(g / reg)``, and checks the marginal error on the
    same iterations against the same tolerance.  Both start at one on their
    distribution's support.  The weights are zero off the supports, so ``U`` and ``V``
    stay zero there as long as the kernel products are positive; a product that
    underflows to zero turns an iterate non-finite.  Returns ``None`` when an iterate
    (seen through the marginal error) or the cost is not finite.
    """
    check_positive(reg, "reg")
    d = dist_a.grid.d
    weights_a = check_probability_vector(dist_a.flat(), name="weights_a").reshape(d, d)
    weights_b = check_probability_vector(dist_b.flat(), name="weights_b").reshape(d, d)
    # The cost between cells (i, j) and (k, l) is cost_y[i, k] + cost_x[j, l].  Taking
    # the axes from the cell centres pairwise_cell_distances uses keeps offset domains'
    # coordinate differences identical to the dense cost's.
    centers = grid_cell_centers(d, dist_a.grid.domain.bounds)
    xs, ys = centers[:d, 0], centers[::d, 1]
    cost_x = (xs[:, None] - xs[None, :]) ** 2
    cost_y = (ys[:, None] - ys[None, :]) ** 2
    max_cost = float(cost_x.max() + cost_y.max())
    reg = reg * (max_cost if max_cost > 0 else 1.0)
    kernel_x = np.exp(-cost_x / reg)
    kernel_y = np.exp(-cost_y / reg)
    u = (weights_a > 0).astype(float)
    v = (weights_b > 0).astype(float)
    converged = False
    iterations = 0
    marginal_error = np.inf
    # np.dot rather than @: less per-call overhead on these small matrices.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, max_iterations + 1):
            u = weights_a / np.dot(np.dot(kernel_y, v), kernel_x)
            column_sums = np.dot(np.dot(kernel_y, u), kernel_x)
            v = weights_b / column_sums
            if iterations % 10 == 0 or iterations == max_iterations:
                marginal_error = float(
                    np.abs(u * np.dot(np.dot(kernel_y, v), kernel_x) - weights_a).sum()
                    + np.abs(v * column_sums - weights_b).sum()
                )
                if not math.isfinite(marginal_error):
                    return None
                if marginal_error < 1e-9:  # sinkhorn_plan's default tolerance
                    converged = True
                    break
        # <plan, cost> with plan = diag(U) (Ky (x) Kx) diag(V), split into its x and y parts.
        cost = float(
            (u * np.dot(np.dot(kernel_y, v), kernel_x * cost_x)).sum()
            + (u * np.dot(np.dot(kernel_y * cost_y, v), kernel_x)).sum()
        )
    if not math.isfinite(cost):
        return None
    return SinkhornResult(
        cost=cost,
        iterations=iterations,
        marginal_error=marginal_error,
        converged=converged,
    )


def sinkhorn_wasserstein(
    dist_a: GridDistribution,
    dist_b: GridDistribution,
    *,
    p: float = 2.0,
    reg: float = 0.01,
    max_iterations: int = 2000,
) -> float:
    """Approximate ``W_p`` between grid distributions using Sinkhorn's algorithm.

    The ground cost is the ``p``-th power of the Euclidean distance between cell
    centres; the returned value is the ``p``-th root of the entropic transport cost, so
    it is directly comparable to :func:`repro.metrics.wasserstein.wasserstein2_grid`.
    The regularisation is scaled by the maximum ground cost so one ``reg`` value
    behaves consistently across domains of different physical size.  The two
    distributions must share the grid side and the domain bounds.

    For ``p = 2`` the solve runs in scaling form on the separable kernel
    ``Ky (x) Kx`` (see the module docstring), with the iterates, stopping rule and
    iteration cap of :func:`sinkhorn_plan`.  If its iterates or its cost turn
    non-finite (kernel underflow at very small ``reg``), and for every other ``p``,
    the log-domain :func:`sinkhorn_plan` solves over the dense ``d^2 x d^2`` cost.
    """
    check_same_grid(dist_a, dist_b)
    check_positive(p, "p")
    if p == 2:
        result = _separable_sinkhorn(dist_a, dist_b, reg=reg, max_iterations=max_iterations)
        if result is not None:
            return result.cost ** (1.0 / p)
    distances = pairwise_cell_distances(dist_a.grid.d, dist_a.grid.domain.bounds)
    cost = distances**p
    scale = float(cost.max()) if cost.max() > 0 else 1.0
    _, result = sinkhorn_plan(
        dist_a.flat(),
        dist_b.flat(),
        cost,
        reg=reg * scale,
        max_iterations=max_iterations,
    )
    return result.cost ** (1.0 / p)
