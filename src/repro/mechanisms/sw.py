"""The Square Wave mechanism with EM smoothing (SW-EMS, Li et al. SIGMOD 2020).

SW is the 1-D numerical frequency oracle the paper's MDSW baseline is built on.  A
value ``v`` in ``[0, 1]`` is reported in the extended interval ``[-b, 1 + b]``; points
within distance ``b`` of ``v`` receive the high density ``p`` and everything else the
low density ``q``, with

``b = (eps * e^eps - e^eps + 1) / (2 e^eps (e^eps - 1 - eps))``,
``p = e^eps / (2 b e^eps + 1)`` and ``q = 1 / (2 b e^eps + 1)``.

The analyst buckets the reports and runs expectation maximisation with the smoothing
step ("EMS") against the known bucket-to-bucket transition probabilities.
This module provides both the continuous sampler and the discretised oracle used by
:class:`~repro.mechanisms.mdsw.MDSW`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.postprocess import (
    EM_ITERATIONS,
    adaptive_smoothing_strength,
    expectation_maximization,
    make_line_smoother,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_epsilon, check_grid_side


def square_wave_radius(epsilon: float) -> float:
    """The SW mechanism's optimal half-width ``b`` for the unit interval."""
    epsilon = check_epsilon(epsilon)
    e_eps = math.exp(epsilon)
    return (epsilon * e_eps - e_eps + 1.0) / (2.0 * e_eps * (e_eps - 1.0 - epsilon))


def square_wave_probabilities(epsilon: float) -> tuple[float, float, float]:
    """Return ``(b, p, q)`` for the unit-interval Square Wave mechanism."""
    epsilon = check_epsilon(epsilon)
    b = square_wave_radius(epsilon)
    e_eps = math.exp(epsilon)
    p = e_eps / (2.0 * b * e_eps + 1.0)
    q = 1.0 / (2.0 * b * e_eps + 1.0)
    return b, p, q


class SquareWaveMechanism:
    """Continuous Square Wave reporting over the unit interval."""

    def __init__(self, epsilon: float) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.b, self.p, self.q = square_wave_probabilities(epsilon)

    def privatize(self, values: np.ndarray, seed=None) -> np.ndarray:
        """Perturb values in ``[0, 1]`` into reports in ``[-b, 1 + b]``."""
        rng = ensure_rng(seed)
        v = np.asarray(values, dtype=float).reshape(-1)
        if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9):
            raise ValueError("Square Wave inputs must lie in [0, 1]")
        v = np.clip(v, 0.0, 1.0)
        n = v.shape[0]
        # Probability that the report falls inside the high band [v - b, v + b].
        high_mass = 2.0 * self.b * self.p
        in_band = rng.random(n) < high_mass
        high_reports = rng.uniform(v - self.b, v + self.b)
        # Outside the band: uniform over [-b, 1 + b] minus the band, sampled by
        # stitching the two flanking segments ([-b, v - b) of length v and
        # (v + b, 1 + b] of length 1 - v) together.
        left_len = v
        right_len = 1.0 - v
        u = rng.random(n) * (left_len + right_len)
        low_reports = np.where(u < left_len, -self.b + u, v + self.b + (u - left_len))
        return np.where(in_band, high_reports, low_reports)


class DiscreteSquareWave:
    """Bucketised Square Wave frequency oracle over ``d`` input buckets.

    The input domain ``[0, 1]`` is split into ``d`` equal buckets and the output domain
    ``[-b, 1 + b]`` into ``d_out`` buckets of the same width.  The bucket-to-bucket
    transition probabilities are the integrals of the SW density, computed exactly from
    the piecewise-constant structure.  Estimation runs EM with the 1-D smoothing step
    of SW-EMS.
    """

    def __init__(self, d: int, epsilon: float) -> None:
        self.d = check_grid_side(d)
        self.epsilon = check_epsilon(epsilon)
        self.b, self.p, self.q = square_wave_probabilities(epsilon)
        cell = 1.0 / self.d
        self.pad_cells = int(math.ceil(self.b / cell))
        self.d_out = self.d + 2 * self.pad_cells
        self._transition = self._build_transition()

    @property
    def transition(self) -> np.ndarray:
        return self._transition

    def _build_transition(self) -> np.ndarray:
        cell = 1.0 / self.d
        centers_in = (np.arange(self.d) + 0.5) * cell
        edges_out = -self.pad_cells * cell + np.arange(self.d_out + 1) * cell
        transition = np.zeros((self.d, self.d_out), dtype=float)
        for i, center in enumerate(centers_in):
            lo_band, hi_band = center - self.b, center + self.b
            for j in range(self.d_out):
                lo, hi = edges_out[j], edges_out[j + 1]
                overlap_high = max(0.0, min(hi, hi_band) - max(lo, lo_band))
                overlap_low = (hi - lo) - overlap_high
                transition[i, j] = overlap_high * self.p + overlap_low * self.q
        # Normalise away the tiny truncation error from padding to whole cells.
        return transition / transition.sum(axis=1, keepdims=True)

    def privatize(self, buckets: np.ndarray, seed=None) -> np.ndarray:
        """Perturb input bucket indices into output bucket indices."""
        rng = ensure_rng(seed)
        buckets = np.asarray(buckets, dtype=np.int64)
        if buckets.size and (buckets.min() < 0 or buckets.max() >= self.d):
            raise ValueError(f"bucket indices must lie in [0, {self.d})")
        reports = np.empty(buckets.shape[0], dtype=np.int64)
        for bucket in np.unique(buckets):
            mask = buckets == bucket
            reports[mask] = rng.choice(self.d_out, size=int(mask.sum()), p=self._transition[bucket])
        return reports

    def estimate(self, reports: np.ndarray, n_users: int) -> np.ndarray:
        """Estimate the input bucket distribution from noisy output bucket reports."""
        reports = np.asarray(reports, dtype=np.int64)
        return self.estimate_counts(np.bincount(reports, minlength=self.d_out))

    def estimate_counts(self, counts: np.ndarray) -> np.ndarray:
        """SW-EMS estimate of the input bucket distribution from output bucket counts."""
        counts = np.asarray(counts, dtype=float)
        strength = adaptive_smoothing_strength(self.d, counts.sum())
        smoother = (
            make_line_smoother(self.d, strength=strength) if self.d > 1 and strength > 0 else None
        )
        result = expectation_maximization(
            self._transition, counts, max_iterations=EM_ITERATIONS, smoothing=smoother
        )
        return result.estimate

    def ldp_ratio(self) -> float:
        """Worst-case per-column probability ratio (should not exceed ``e^eps``)."""
        matrix = self._transition
        return float((matrix.max(axis=0) / np.clip(matrix.min(axis=0), 1e-300, None)).max())
