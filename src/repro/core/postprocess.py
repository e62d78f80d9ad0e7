"""Post-processing of noisy report histograms — Algorithm 1's ``PostProcess`` step.

The analyst observes a histogram of noisy reports over the mechanism's output domain
and must invert the known randomisation to recover the input distribution.  The paper
uses the Expectation-Maximisation (EM) estimator of Li et al. (SW-EMS), optionally with
a smoothing step between iterations that regularises the reconstruction on fine grids.
Both variants are provided here, together with the simpler matrix-inversion estimator
with simplex projection ("norm-sub") that is common in the LDP literature and is used
as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, check_probability_matrix

#: Iteration cap of every mechanism's EM solve and of the streaming re-solve.
EM_ITERATIONS = 200


@dataclass(frozen=True)
class EMResult:
    """Outcome of an EM run: the estimate, iterations used and final log-likelihood."""

    estimate: np.ndarray
    iterations: int
    log_likelihood: float
    converged: bool


def expectation_maximization(
    transition,
    noisy_counts: np.ndarray,
    *,
    max_iterations: int = 1000,
    tolerance: float = 1e-9,
    initial: np.ndarray | None = None,
    smoothing=None,
) -> EMResult:
    """Maximum-likelihood estimate of the input distribution via EM.

    Parameters
    ----------
    transition:
        Either a dense ``(n_in, n_out)`` row-stochastic matrix with
        ``transition[i, j]`` the probability that input cell ``i`` is reported as
        output ``j``, or any structured operator implementing the
        ``shape``/``forward``/``backward`` protocol of
        :class:`repro.core.operator.DiskTransitionOperator`.  The structured form
        runs each iteration as sparse or FFT matvecs instead of ``O(d^2 * m)``
        dense matmuls.
    noisy_counts:
        Length ``n_out`` histogram of observed reports.
    max_iterations, tolerance:
        Convergence controls; iteration stops when the L1 change of the estimate drops
        below ``tolerance``.
    initial:
        Optional starting distribution over input cells (defaults to uniform).
    smoothing:
        Optional callable applied to the estimate after each M-step (the "S" in EMS);
        see :func:`make_grid_smoother`.

    Returns
    -------
    EMResult
        The estimated input distribution (length ``n_in``, sums to one) plus metadata.
    """
    if hasattr(transition, "forward") and hasattr(transition, "backward"):
        operator = transition
    else:
        from repro.core.operator import DenseTransitionOperator

        operator = DenseTransitionOperator(
            check_probability_matrix(transition, name="transition")
        )
    n_in, n_out = operator.shape
    counts = np.asarray(noisy_counts, dtype=float).reshape(-1)
    if counts.shape[0] != n_out:
        raise ValueError(
            f"noisy_counts has length {counts.shape[0]} but transition has "
            f"{n_out} output columns"
        )
    if np.any(counts < 0):
        raise ValueError("noisy_counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        uniform = np.full(n_in, 1.0 / n_in)
        return EMResult(estimate=uniform, iterations=0, log_likelihood=0.0, converged=True)

    theta = np.full(n_in, 1.0 / n_in) if initial is None else np.asarray(initial, dtype=float)
    theta = np.clip(theta, 1e-15, None)
    theta = theta / theta.sum()

    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # E-step: predicted probability of each output under the current estimate.
        predicted = np.clip(operator.forward(theta), 1e-300, None)
        # A count on an output the current estimate gives (clipped) zero mass
        # overflows `counts / predicted` to inf, which the backward matvec turns
        # into NaN (0 * inf) and the normalisation spreads everywhere.  Rescaling
        # the numerator by its max keeps the ratio finite and cancels in the final
        # normalisation; the well-conditioned path is untouched (bit-preserved —
        # asserted in the tests).
        with np.errstate(over="ignore"):
            ratio = counts / predicted
        if not np.isfinite(ratio).all():
            ratio = (counts / counts.max()) / predicted
        # M-step: redistribute observed counts back over input cells.  The
        # classical responsibility form `(T * theta / predicted) @ counts`
        # factorises into a single backward matvec, which is what lets the
        # structured operator skip the dense matrix.
        new_theta = theta * operator.backward(ratio)
        new_theta = np.clip(new_theta, 0.0, None)
        new_theta = new_theta / new_theta.sum()
        if smoothing is not None:
            new_theta = smoothing(new_theta)
            new_theta = np.clip(new_theta, 0.0, None)
            new_theta = new_theta / new_theta.sum()
        change = float(np.abs(new_theta - theta).sum())
        theta = new_theta
        if change < tolerance:
            converged = True
            break
    # The log-likelihood is only reported, never used for convergence, so computing
    # it once on the final estimate (one extra forward matvec) instead of every
    # iteration halves the per-iteration cost of the loop above.
    log_likelihood = float(counts @ np.log(np.clip(operator.forward(theta), 1e-300, None)))
    return EMResult(
        estimate=theta,
        iterations=iterations,
        log_likelihood=log_likelihood,
        converged=converged,
    )


def adaptive_smoothing_strength(
    n_cells: int, n_reports: float, *, cap: float = 0.5
) -> float:
    """Pick an EMS smoothing strength from the report density.

    Smoothing trades variance for bias: it helps when the per-cell report counts are
    sparse (fine grids, few users) and hurts when they are abundant.  The rule
    ``min(cap, n_cells / n_reports)`` makes the smoothing vanish as data accumulates —
    the estimator stays asymptotically unbiased — while regularising heavily-noised
    sparse histograms, which is the regime SW-EMS introduced the smoothing step for.
    """
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    if n_reports <= 0:
        return cap
    return float(min(cap, n_cells / n_reports))


def _edge_neighbours(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's previous and next neighbour along ``axis``, the ends repeating.

    The same values as the two outer slices of ``np.pad(values, 1, mode="edge")``
    along ``axis``, copied into fresh arrays without building the padded one.
    """
    lead = (slice(None),) * axis
    head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
    first, last = lead + (0,), lead + (-1,)
    before = np.empty_like(values)
    before[tail] = values[head]
    before[first] = values[first]
    after = np.empty_like(values)
    after[head] = values[tail]
    after[last] = values[last]
    return before, after


def make_grid_smoother(d: int, *, strength: float = 1.0):
    """Build the 2-D smoothing operator used by the EMS variant.

    The smoother convolves the ``d x d`` estimate with a 3x3 binomial kernel
    (``[1, 2, 1]`` outer ``[1, 2, 1]``, normalised) blended with the identity according
    to ``strength`` in ``[0, 1]``.  ``strength=0`` disables smoothing; ``strength=1``
    applies the full kernel — the 2-D analogue of the averaging step in SW-EMS.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    kernel_1d = np.array([1.0, 2.0, 1.0]) / 4.0

    def smooth(theta: np.ndarray) -> np.ndarray:
        grid = np.asarray(theta, dtype=float).reshape(d, d)
        # Separable convolution with edge replication so mass is not pushed outward.
        left, right = _edge_neighbours(grid, axis=1)
        horizontal = kernel_1d[0] * left + kernel_1d[1] * grid + kernel_1d[2] * right
        below, above = _edge_neighbours(horizontal, axis=0)
        smoothed = kernel_1d[0] * below + kernel_1d[1] * horizontal + kernel_1d[2] * above
        blended = (1.0 - strength) * grid + strength * smoothed
        return blended.reshape(-1)

    return smooth


def make_line_smoother(size: int, *, strength: float = 1.0):
    """1-D analogue of :func:`make_grid_smoother`, used by the Square Wave baseline."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0

    def smooth(theta: np.ndarray) -> np.ndarray:
        vec = np.asarray(theta, dtype=float).reshape(-1)
        if vec.shape[0] != size:
            raise ValueError(f"expected a vector of length {size}, got {vec.shape[0]}")
        before, after = _edge_neighbours(vec, axis=0)
        smoothed = kernel[0] * before + kernel[1] * vec + kernel[2] * after
        return (1.0 - strength) * vec + strength * smoothed

    return smooth


def matrix_inversion_estimate(
    transition: np.ndarray,
    noisy_counts: np.ndarray,
    *,
    ridge: float = 1e-8,
) -> np.ndarray:
    """Least-squares inversion of the randomisation followed by simplex projection.

    The classical unbiased LDP estimator: solve ``theta @ transition ~= observed`` in
    the least-squares sense (with a small ridge term for rank-deficient matrices) and
    project the result onto the probability simplex.  Used as an ablation against EM.
    """
    matrix = check_probability_matrix(transition, name="transition")
    counts = np.asarray(noisy_counts, dtype=float).reshape(-1)
    if counts.shape[0] != matrix.shape[1]:
        raise ValueError("noisy_counts length must match the transition's output size")
    total = counts.sum()
    if total <= 0:
        return np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    observed = counts / total
    check_positive(ridge, "ridge", allow_zero=True)
    gram = matrix @ matrix.T + ridge * np.eye(matrix.shape[0])
    rhs = matrix @ observed
    raw = np.linalg.solve(gram, rhs)
    return project_to_simplex(raw)


def sanitize_probability_vector(vector: np.ndarray) -> np.ndarray:
    """Coerce an estimated frequency vector into a safe sampling distribution.

    Unbiased LDP frequency estimates can dip below zero (small ``n``, large domains)
    and, in the extreme, clip to nothing at all; feeding such a vector to
    ``rng.choice(p=...)`` or ``searchsorted`` sampling crashes or mis-samples.  This
    helper clips negatives (and non-finite entries) to zero and renormalises, falling
    back to the uniform distribution when no positive mass survives — the standard
    consistency repair applied right before sampling from an estimate.
    """
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot sanitize an empty probability vector")
    v = np.where(np.isfinite(v), v, 0.0)
    v = np.clip(v, 0.0, None)
    total = v.sum()
    if total <= 0:
        return np.full(v.size, 1.0 / v.size)
    return v / total


def project_to_simplex(vector: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Standard sorting-based algorithm (Duchi et al. 2008); the go-to "norm-sub" style
    consistency step for LDP frequency estimates.
    """
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    sorted_v = np.sort(v)[::-1]
    cumulative = np.cumsum(sorted_v) - 1.0
    indices = np.arange(1, v.size + 1)
    candidates = sorted_v - cumulative / indices
    rho = np.nonzero(candidates > 0)[0][-1]
    tau = cumulative[rho] / (rho + 1.0)
    return np.clip(v - tau, 0.0, None)
