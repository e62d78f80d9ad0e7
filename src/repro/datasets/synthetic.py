"""Synthetic spatial datasets — Normal, SZipf and MNormal (Section VII-A).

The paper evaluates on three synthetic point clouds:

* **Normal** — 300,000 points from a correlated 2-D Gaussian
  ``Normal(0, 0, 1, 1, 0.5)`` clipped to ``(-5, 5)^2``;
* **SZipf** — 100,000 points whose coordinates are i.i.d. skew-Zipf distributed on
  ``[0, 1)`` (CDF ``log2(x + 1)``, density ``1 / ((x + 1) ln 2)``);
* **MNormal** — 300,000 points from three Gaussian clusters with correlations
  ``0.5, 0.0, -0.2``.

The generators below are deterministic given a seed and allow the point counts to be
scaled down for laptop-sized experiment runs (the distributions — and therefore the
relative mechanism orderings — are unchanged by the subsampling).

The module also hosts the *drifting epoch streams* consumed by
:mod:`repro.streaming` — :func:`shifting_hotspot_stream`,
:func:`appearing_cluster_stream` and :func:`diurnal_mixture_stream` each produce a
:class:`DriftingStream` whose per-epoch populations drift in a controlled,
reproducible way (the three canonical drift shapes: smooth migration, structural
appearance/vanishing, and cyclo-stationary oscillation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.domain import SpatialDomain
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


@dataclass
class SyntheticDataset:
    """A generated point cloud together with its analysis domain."""

    name: str
    points: np.ndarray
    domain: SpatialDomain
    parameters: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def normal_dataset(
    n: int = 300_000,
    *,
    mean: tuple[float, float] = (0.0, 0.0),
    std: tuple[float, float] = (1.0, 1.0),
    rho: float = 0.5,
    clip: float = 5.0,
    seed=None,
) -> SyntheticDataset:
    """The paper's **Normal(0, 0, 1, 1, 0.5)** dataset.

    Points are drawn from a bivariate Gaussian with the given means, standard
    deviations and correlation ``rho``, then points outside ``(-clip, clip)^2`` are
    redrawn (the paper reports all points fall inside ``(-5, 5)^2``).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    check_positive(clip, "clip")
    rng = ensure_rng(seed)
    cov = np.array(
        [
            [std[0] ** 2, rho * std[0] * std[1]],
            [rho * std[0] * std[1], std[1] ** 2],
        ]
    )
    points = _sample_truncated_gaussian(rng, np.asarray(mean, float), cov, clip, n)
    domain = SpatialDomain(-clip, clip, -clip, clip, name="normal")
    return SyntheticDataset(
        name="Normal",
        points=points,
        domain=domain,
        parameters={"mean": mean, "std": std, "rho": rho, "clip": clip, "n": n},
    )


def _sample_truncated_gaussian(
    rng: np.random.Generator,
    mean: np.ndarray,
    cov: np.ndarray,
    clip: float,
    n: int,
) -> np.ndarray:
    """Rejection-sample a bivariate Gaussian truncated to the ``(-clip, clip)`` square."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    collected: list[np.ndarray] = []
    remaining = n
    while remaining > 0:
        batch = rng.multivariate_normal(mean, cov, size=max(remaining, 1024))
        inside = batch[(np.abs(batch[:, 0]) < clip) & (np.abs(batch[:, 1]) < clip)]
        collected.append(inside[:remaining])
        remaining -= min(remaining, inside.shape[0])
    return np.vstack(collected) if collected else np.empty((0, 2))


def szipf_dataset(n: int = 100_000, *, seed=None) -> SyntheticDataset:
    """The paper's **SZipf** dataset: coordinates i.i.d. skew-Zipf on ``[0, 1)``.

    The skew-Zipf law has CDF ``F(x) = log2(x + 1)`` on ``[0, 1)`` (density
    ``1 / ((x + 1) ln 2)``), so inverse-transform sampling gives ``x = 2^u - 1`` for
    uniform ``u`` — heavily skewed towards the origin corner, exactly the hot-corner
    shape visible in the paper's Figure 7(d).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = ensure_rng(seed)
    u = rng.random((n, 2))
    points = np.exp2(u) - 1.0
    domain = SpatialDomain(0.0, 1.0, 0.0, 1.0, name="szipf")
    return SyntheticDataset(name="SZipf", points=points, domain=domain, parameters={"n": n})


def mnormal_dataset(
    n: int = 300_000,
    *,
    centers: tuple[tuple[float, float], ...] = ((-2.0, -2.0), (0.5, 0.5), (2.5, 2.0)),
    rhos: tuple[float, ...] = (0.5, 0.0, -0.2),
    std: float = 1.0,
    clip: float = 6.5,
    seed=None,
) -> SyntheticDataset:
    """The paper's **MNormal** (multi-centre normal) dataset.

    Three equal-sized Gaussian clusters with correlations ``0.5, 0, -0.2``.  The paper
    lists all three components with mean ``(0, 0)`` yet calls the dataset
    "multi-center" and reports a wider range than a single standard Gaussian, so the
    reproduction substitutes separated cluster centres (``centers``) for the common
    mean the paper lists.
    """
    if len(centers) != len(rhos):
        raise ValueError("centers and rhos must have the same length")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = ensure_rng(seed)
    per_cluster = [n // len(centers)] * len(centers)
    per_cluster[0] += n - sum(per_cluster)
    clusters = []
    for (cx, cy), rho, count in zip(centers, rhos, per_cluster):
        cov = np.array([[std**2, rho * std**2], [rho * std**2, std**2]])
        clusters.append(
            _sample_truncated_gaussian(rng, np.array([cx, cy]), cov, clip, count)
        )
    points = np.vstack(clusters) if clusters else np.empty((0, 2))
    rng.shuffle(points, axis=0)
    domain = SpatialDomain(-clip, clip, -clip, clip, name="mnormal")
    return SyntheticDataset(
        name="MNormal",
        points=points,
        domain=domain,
        parameters={"centers": centers, "rhos": rhos, "std": std, "clip": clip, "n": n},
    )


# --------------------------------------------------------------------- streams
@dataclass
class DriftingStream:
    """A sequence of per-epoch point clouds whose population drifts over time.

    The input of the streaming subsystem (:mod:`repro.streaming`): ``epochs[e]``
    holds the ``(n_e, 2)`` reports that arrive during epoch ``e``.  Generators are
    deterministic given a seed, so a stream can be regenerated exactly from its
    ``parameters`` — which is what makes the ``repro stream`` session logs
    replayable.
    """

    name: str
    domain: SpatialDomain
    epochs: list[np.ndarray]
    parameters: dict = field(default_factory=dict)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    def window_points(self, end: int, window_epochs: int) -> np.ndarray:
        """All points of the hard window ending at epoch ``end`` (inclusive)."""
        if not 0 <= end < self.n_epochs:
            raise ValueError(f"end must lie in [0, {self.n_epochs}), got {end}")
        start = max(0, end - window_epochs + 1)
        return np.vstack(self.epochs[start : end + 1])


def _mixture_epoch(
    rng: np.random.Generator,
    n: int,
    domain: SpatialDomain,
    centers: np.ndarray,
    stds: np.ndarray,
    weights: np.ndarray,
    uniform_weight: float,
) -> np.ndarray:
    """One epoch from a Gaussian mixture plus a uniform background, clipped."""
    weights = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    total = weights.sum() + uniform_weight
    component = rng.choice(
        weights.shape[0] + 1,
        size=n,
        p=np.append(weights, uniform_weight) / total,
    )
    points = np.empty((n, 2))
    background = component == weights.shape[0]
    points[background, 0] = rng.uniform(domain.x_min, domain.x_max, int(background.sum()))
    points[background, 1] = rng.uniform(domain.y_min, domain.y_max, int(background.sum()))
    for index in range(weights.shape[0]):
        mask = component == index
        points[mask] = centers[index] + stds[index] * rng.standard_normal((int(mask.sum()), 2))
    return domain.clip(points)


def shifting_hotspot_stream(
    n_epochs: int = 20,
    users_per_epoch: int = 2000,
    *,
    start: tuple[float, float] = (0.25, 0.25),
    end: tuple[float, float] = (0.75, 0.75),
    std: float = 0.08,
    background: float = 0.25,
    seed=None,
) -> DriftingStream:
    """A single Gaussian hotspot that migrates linearly across the unit square.

    The canonical smooth-drift scenario: each epoch the hotspot centre moves one
    ``(end - start) / (n_epochs - 1)`` step, so consecutive windows overlap heavily —
    exactly the regime where warm-started re-solves shine.  ``background`` is the
    fraction of users drawn uniformly (keeps every cell's count away from zero).
    """
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    if users_per_epoch < 0:
        raise ValueError(f"users_per_epoch must be non-negative, got {users_per_epoch}")
    if not 0.0 <= background <= 1.0:
        raise ValueError(f"background must lie in [0, 1], got {background}")
    check_positive(std, "std")
    rng = ensure_rng(seed)
    domain = SpatialDomain.unit("shifting-hotspot")
    start_arr, end_arr = np.asarray(start, float), np.asarray(end, float)
    epochs = []
    for epoch in range(n_epochs):
        t = epoch / (n_epochs - 1) if n_epochs > 1 else 0.0
        center = ((1.0 - t) * start_arr + t * end_arr)[None, :]
        epochs.append(
            _mixture_epoch(
                rng,
                users_per_epoch,
                domain,
                center,
                np.array([std]),
                np.array([1.0 - background]),
                background,
            )
        )
    return DriftingStream(
        name="shifting-hotspot",
        domain=domain,
        epochs=epochs,
        parameters={
            "n_epochs": n_epochs,
            "users_per_epoch": users_per_epoch,
            "start": tuple(start),
            "end": tuple(end),
            "std": std,
            "background": background,
        },
    )


def appearing_cluster_stream(
    n_epochs: int = 20,
    users_per_epoch: int = 2000,
    *,
    base_center: tuple[float, float] = (0.3, 0.65),
    cluster_center: tuple[float, float] = (0.75, 0.25),
    std: float = 0.08,
    appear_at: float = 0.25,
    vanish_at: float = 0.75,
    background: float = 0.15,
    seed=None,
) -> DriftingStream:
    """A stable base population plus a secondary cluster that appears and vanishes.

    The cluster's mixture weight ramps linearly from zero starting at fraction
    ``appear_at`` of the stream, peaks at equal weight with the base population,
    then ramps back to zero by ``vanish_at`` — the abrupt-structural-change
    scenario (a venue opening and closing) that stresses a window's forgetting.
    """
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    if not 0.0 <= appear_at < vanish_at <= 1.0:
        raise ValueError(
            f"need 0 <= appear_at < vanish_at <= 1, got {appear_at}, {vanish_at}"
        )
    check_positive(std, "std")
    rng = ensure_rng(seed)
    domain = SpatialDomain.unit("appearing-cluster")
    centers = np.array([base_center, cluster_center], dtype=float)
    stds = np.array([std, std])
    peak = (appear_at + vanish_at) / 2.0
    epochs = []
    for epoch in range(n_epochs):
        t = epoch / (n_epochs - 1) if n_epochs > 1 else 0.0
        if t <= appear_at or t >= vanish_at:
            cluster_weight = 0.0
        elif t <= peak:
            cluster_weight = (t - appear_at) / (peak - appear_at)
        else:
            cluster_weight = (vanish_at - t) / (vanish_at - peak)
        weights = np.array([1.0, cluster_weight]) * (1.0 - background)
        epochs.append(
            _mixture_epoch(rng, users_per_epoch, domain, centers, stds, weights, background)
        )
    return DriftingStream(
        name="appearing-cluster",
        domain=domain,
        epochs=epochs,
        parameters={
            "n_epochs": n_epochs,
            "users_per_epoch": users_per_epoch,
            "base_center": tuple(base_center),
            "cluster_center": tuple(cluster_center),
            "std": std,
            "appear_at": appear_at,
            "vanish_at": vanish_at,
            "background": background,
        },
    )


def diurnal_mixture_stream(
    n_epochs: int = 24,
    users_per_epoch: int = 2000,
    *,
    day_center: tuple[float, float] = (0.7, 0.7),
    night_center: tuple[float, float] = (0.3, 0.3),
    std: float = 0.1,
    period: int = 24,
    background: float = 0.1,
    seed=None,
) -> DriftingStream:
    """Population oscillating between a day district and a night district.

    The mixture weight of the day component follows ``(1 + sin) / 2`` with the
    given period (in epochs), so the stream is cyclo-stationary — the recurring
    daily commute pattern that exponential-decay windows are tuned against.
    """
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    if period < 2:
        raise ValueError(f"period must be >= 2 epochs, got {period}")
    check_positive(std, "std")
    rng = ensure_rng(seed)
    domain = SpatialDomain.unit("diurnal-mixture")
    centers = np.array([day_center, night_center], dtype=float)
    stds = np.array([std, std])
    epochs = []
    for epoch in range(n_epochs):
        day_weight = 0.5 * (1.0 + np.sin(2.0 * np.pi * epoch / period))
        weights = np.array([day_weight, 1.0 - day_weight]) * (1.0 - background)
        epochs.append(
            _mixture_epoch(rng, users_per_epoch, domain, centers, stds, weights, background)
        )
    return DriftingStream(
        name="diurnal-mixture",
        domain=domain,
        epochs=epochs,
        parameters={
            "n_epochs": n_epochs,
            "users_per_epoch": users_per_epoch,
            "day_center": tuple(day_center),
            "night_center": tuple(night_center),
            "std": std,
            "period": period,
            "background": background,
        },
    )


#: Scenario registry used by ``repro stream`` and the drift benchmarks.
DRIFT_SCENARIOS = {
    "shifting-hotspot": shifting_hotspot_stream,
    "appearing-cluster": appearing_cluster_stream,
    "diurnal-mixture": diurnal_mixture_stream,
}


def uniform_dataset(
    n: int = 100_000, *, domain: SpatialDomain | None = None, seed=None
) -> SyntheticDataset:
    """A uniform point cloud — the no-structure control used by tests and ablations."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = ensure_rng(seed)
    domain = domain if domain is not None else SpatialDomain.unit("uniform")
    xs = rng.uniform(domain.x_min, domain.x_max, n)
    ys = rng.uniform(domain.y_min, domain.y_max, n)
    return SyntheticDataset(
        name="Uniform",
        points=np.column_stack([xs, ys]),
        domain=domain,
        parameters={"n": n},
    )
