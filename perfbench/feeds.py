"""Seeded input generators for the three workloads.

Every input is a pure function of the workload seed plus a position in the
stream (epoch or cycle index), drawn from its own ``SeedSequence`` branch:
the same seed always gives the same inputs, and the live stream is generated
one epoch at a time instead of being held whole in memory.  The shapes of the
distributions are fixed; only the samples depend on the seed, so quality
metrics compare like with like across seeds.

numpy only: set-up time is measured from before ``import repro``, so inputs
are generated without importing it.  Requests are ``(kind, payload)`` pairs
with kinds spelled as wire strings.
"""

from __future__ import annotations

import numpy as np

#: Stream tags, so each kind of input draws from an independent branch.
_POINTS, _REQUESTS, _BULK, _STATIC = 0, 1, 2, 3


def _rng(seed: int, *branch: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *branch])


# ---------------------------------------------------------------- live feed
#: Shifting-hotspot drift (the ``repro stream`` default scenario): one
#: Gaussian hotspot on a uniform background, moving along the diagonal.
HOTSPOT_START, HOTSPOT_END = 0.25, 0.75
HOTSPOT_STD = 0.08
HOTSPOT_BACKGROUND = 0.25
#: Epochs for the hotspot to cross the square; it then turns back, so the
#: stream drifts forever at a constant speed.
HOTSPOT_CROSSING_EPOCHS = 40


def hotspot_center(epoch: int) -> float:
    """Diagonal coordinate of the hotspot centre at ``epoch`` (a triangle wave)."""
    phase = epoch % (2 * HOTSPOT_CROSSING_EPOCHS)
    if phase > HOTSPOT_CROSSING_EPOCHS:
        phase = 2 * HOTSPOT_CROSSING_EPOCHS - phase
    t = phase / HOTSPOT_CROSSING_EPOCHS
    return HOTSPOT_START + t * (HOTSPOT_END - HOTSPOT_START)


def hotspot_epoch(seed: int, epoch: int, users: int) -> np.ndarray:
    """The ``(users, 2)`` locations reported during one epoch, in the unit square."""
    rng = _rng(seed, _POINTS, epoch)
    background = rng.random(users) < HOTSPOT_BACKGROUND
    points = hotspot_center(epoch) + HOTSPOT_STD * rng.standard_normal((users, 2))
    points[background] = rng.random((int(background.sum()), 2))
    return np.clip(points, 0.0, 1.0)


def random_rectangles(rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, 4)`` ``[x_lo, x_hi, y_lo, y_hi]`` rows inside the unit square."""
    xs = np.sort(rng.random((n, 2)), axis=1)
    ys = np.sort(rng.random((n, 2)), axis=1)
    return np.column_stack([xs[:, 0], xs[:, 1], ys[:, 0], ys[:, 1]])


def interactive_payload(rng: np.random.Generator, kind: str) -> dict:
    """Payload of one small analyst request (16 rows or points, k <= 20, two levels)."""
    if kind == "range_mass":
        return {"queries": random_rectangles(rng, 16).tolist()}
    if kind == "point_density":
        return {"points": rng.random((16, 2)).tolist()}
    if kind == "quantiles":
        return {"levels": [float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.7, 0.95))]}
    if kind == "marginals":
        return {}
    if kind == "length_histogram":
        return {"bins": int(rng.integers(8, 17))}
    return {"k": int(rng.integers(5, 21))}


def interactive_requests(seed: int, position: int, kinds, per_kind: int) -> list:
    """``per_kind`` ``(kind, payload)`` requests of every kind, interleaved round-robin."""
    rng = _rng(seed, _REQUESTS, position)
    return [(kind, interactive_payload(rng, kind)) for _ in range(per_kind) for kind in kinds]


# --------------------------------------------------------------- query feed
#: Fixed three-cluster population the static estimate is the histogram of.
STATIC_CENTERS = np.array([[0.3, 0.3], [0.7, 0.4], [0.45, 0.75]])
STATIC_STDS = np.array([0.06, 0.1, 0.08])
STATIC_WEIGHTS = np.array([0.35, 0.3, 0.2])
STATIC_BACKGROUND = 0.15


def static_population(seed: int, users: int) -> np.ndarray:
    """The raw locations the query workload's static estimate is built from."""
    rng = _rng(seed, _STATIC)
    weights = np.append(STATIC_WEIGHTS, STATIC_BACKGROUND)
    component = rng.choice(weights.shape[0], size=users, p=weights / weights.sum())
    points = rng.random((users, 2))
    for index in range(STATIC_CENTERS.shape[0]):
        mask = component == index
        points[mask] = STATIC_CENTERS[index] + STATIC_STDS[index] * rng.standard_normal(
            (int(mask.sum()), 2)
        )
    return np.clip(points, 0.0, 1.0)


def bulk_rows(seed: int, cycle: int, rows: int) -> np.ndarray:
    """The rectangles of one bulk range request."""
    return random_rectangles(_rng(seed, _BULK, cycle), rows)
