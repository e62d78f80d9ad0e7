"""Surrogates for the paper's real-world datasets: Chicago Crimes and NYC Green Taxis.

The paper downloads two public CSVs (Chicago crime events 2022 and NYC green-taxi
pickups 2016).  This offline reproduction cannot fetch them, so each dataset is
replaced by a *seeded synthetic surrogate* that reproduces the properties the
mechanisms actually react to:

* the published bounding boxes and the per-part bounding boxes of Table III;
* the per-part point counts of Table III (scalable for laptop runs);
* the qualitative density structure — street-grid-aligned anisotropic hot spots over a
  sparse background for Chicago, and a few dense pickup corridors plus airport-style
  hot spots for NYC.

Every mechanism consumes nothing but a point cloud inside a bounding box, so a
surrogate with the same multi-cluster, strongly skewed shape preserves the relative
ordering of the mechanisms' Wasserstein errors, which is what the evaluation reproduces
(absolute values are not expected to match: the points are surrogates, not the
published data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.domain import SpatialDomain
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class RegionSpec:
    """One rectangular analysis part of a real dataset (a row of Table III)."""

    name: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    paper_point_count: int

    def domain(self) -> SpatialDomain:
        """The part's domain with longitude as x and latitude as y."""
        return SpatialDomain(self.lon_min, self.lon_max, self.lat_min, self.lat_max, name=self.name)


#: Table III — Chicago Crimes parts A/B/C (latitude x longitude boxes and sizes).
CHICAGO_PARTS: tuple[RegionSpec, ...] = (
    RegionSpec("chicago-part-a", 41.72, 41.81, -87.68, -87.59, 216_595),
    RegionSpec("chicago-part-b", 41.82, 41.91, -87.73, -87.64, 173_552),
    RegionSpec("chicago-part-c", 41.92, 41.99, -87.77, -87.70, 69_068),
)

#: Table III — NYC Green Taxi parts A/B/C.
NYC_PARTS: tuple[RegionSpec, ...] = (
    RegionSpec("nyc-part-a", 40.65, 40.75, -73.84, -73.74, 10_561),
    RegionSpec("nyc-part-b", 40.65, 40.74, -73.95, -73.86, 42_195),
    RegionSpec("nyc-part-c", 40.82, 40.89, -73.90, -73.83, 9_186),
)

#: Full-domain extraction boxes used in Section VII-A (Crime) and Appendix C.  The NYC
#: upper latitude is extended from the paper's 40.88 to 40.89 so that part C of
#: Table III (latitude up to 40.89) stays inside the full domain — the paper's two
#: numbers are mutually inconsistent by 0.01 degrees.
CHICAGO_FULL_DOMAIN = SpatialDomain(-87.9, -87.54, 41.6, 42.0, name="chicago-full")
NYC_FULL_DOMAIN = SpatialDomain(-74.05, -73.73, 40.55, 40.89, name="nyc-full")

#: Full-dataset sizes reported in Section VII-A.
CHICAGO_FULL_COUNT = 101_146
NYC_FULL_COUNT = 446_110


@dataclass
class GeoDataset:
    """A surrogate real-world dataset: full point cloud plus its Table III parts."""

    name: str
    points: np.ndarray
    domain: SpatialDomain
    parts: dict[str, "GeoDatasetPart"] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


@dataclass
class GeoDatasetPart:
    """One rectangular part (A, B or C) of a surrogate dataset."""

    spec: RegionSpec
    points: np.ndarray

    @property
    def domain(self) -> SpatialDomain:
        return self.spec.domain()

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def _street_grid_clusters(
    rng: np.random.Generator,
    domain: SpatialDomain,
    n: int,
    *,
    n_clusters: int,
    street_alignment: float,
    background_fraction: float,
    cluster_spread: float,
) -> np.ndarray:
    """Generate a street-grid-like point cloud inside a domain.

    ``n_clusters`` anisotropic Gaussian hot spots (elongated alternately along x and y
    to mimic arterial roads, controlled by ``street_alignment``), a light uniform
    background, and light snapping of a subset of points onto a regular street lattice.
    """
    if n <= 0:
        return np.empty((0, 2))
    n_background = int(n * background_fraction)
    n_clustered = n - n_background
    # Cluster centres biased towards the middle of the domain.
    centers_x = rng.normal(
        (domain.x_min + domain.x_max) / 2.0,
        domain.width / 4.0,
        n_clusters,
    ).clip(domain.x_min, domain.x_max)
    centers_y = rng.normal(
        (domain.y_min + domain.y_max) / 2.0,
        domain.height / 4.0,
        n_clusters,
    ).clip(domain.y_min, domain.y_max)
    weights = rng.dirichlet(np.full(n_clusters, 0.6))
    assignments = rng.choice(n_clusters, size=n_clustered, p=weights)
    scale_x = domain.width * cluster_spread
    scale_y = domain.height * cluster_spread
    points = np.empty((n_clustered, 2))
    for cluster in range(n_clusters):
        mask = assignments == cluster
        count = int(mask.sum())
        if count == 0:
            continue
        # Alternate elongation axis to mimic a road grid.
        if cluster % 2 == 0:
            sx, sy = scale_x * street_alignment, scale_y / street_alignment
        else:
            sx, sy = scale_x / street_alignment, scale_y * street_alignment
        points[mask, 0] = rng.normal(centers_x[cluster], sx, count)
        points[mask, 1] = rng.normal(centers_y[cluster], sy, count)
    background = np.column_stack(
        [
            rng.uniform(domain.x_min, domain.x_max, n_background),
            rng.uniform(domain.y_min, domain.y_max, n_background),
        ]
    )
    all_points = np.vstack([points, background])
    # Snap a third of the points onto a street lattice (every ~1/40 of the domain).
    snap_mask = rng.random(all_points.shape[0]) < 0.33
    lattice_x = domain.width / 40.0
    lattice_y = domain.height / 40.0
    snapped = all_points[snap_mask].copy()
    snap_axis = rng.random(snapped.shape[0]) < 0.5
    snapped[snap_axis, 0] = (
        np.round((snapped[snap_axis, 0] - domain.x_min) / lattice_x) * lattice_x + domain.x_min
    )
    snapped[~snap_axis, 1] = (
        np.round((snapped[~snap_axis, 1] - domain.y_min) / lattice_y) * lattice_y + domain.y_min
    )
    all_points[snap_mask] = snapped
    all_points[:, 0] = all_points[:, 0].clip(domain.x_min, domain.x_max)
    all_points[:, 1] = all_points[:, 1].clip(domain.y_min, domain.y_max)
    rng.shuffle(all_points, axis=0)
    return all_points


def _build_geo_dataset(
    name: str,
    full_domain: SpatialDomain,
    full_count: int,
    parts: tuple[RegionSpec, ...],
    *,
    scale: float,
    seed,
    n_clusters: int,
    street_alignment: float,
    background_fraction: float,
    cluster_spread: float,
) -> GeoDataset:
    rng = ensure_rng(seed)
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    built_parts: dict[str, GeoDatasetPart] = {}
    all_points = []
    for spec in parts:
        count = max(int(spec.paper_point_count * scale), 50)
        pts = _street_grid_clusters(
            rng,
            spec.domain(),
            count,
            n_clusters=n_clusters,
            street_alignment=street_alignment,
            background_fraction=background_fraction,
            cluster_spread=cluster_spread,
        )
        built_parts[spec.name] = GeoDatasetPart(spec=spec, points=pts)
        all_points.append(pts)
    # Points outside the three parts fill the remainder of the full-domain count.
    part_total = sum(p.size for p in built_parts.values())
    remainder = max(int(full_count * scale) - part_total, 0)
    filler = _street_grid_clusters(
        rng,
        full_domain,
        remainder,
        n_clusters=n_clusters * 2,
        street_alignment=street_alignment,
        background_fraction=background_fraction * 1.5,
        cluster_spread=cluster_spread,
    )
    points = (
        np.vstack([*(p.points for p in built_parts.values()), filler]) if all_points else filler
    )
    rng.shuffle(points, axis=0)
    return GeoDataset(name=name, points=points, domain=full_domain, parts=built_parts)


def chicago_crime_surrogate(*, scale: float = 1.0, seed=0) -> GeoDataset:
    """Seeded surrogate for the Chicago Crimes 2022 extraction of Section VII-A.

    ``scale`` multiplies every part's point count (``scale=0.05`` gives a fast
    laptop-sized dataset with an identical density shape).
    """
    return _build_geo_dataset(
        "Crime",
        CHICAGO_FULL_DOMAIN,
        CHICAGO_FULL_COUNT,
        CHICAGO_PARTS,
        scale=scale,
        seed=seed,
        n_clusters=12,
        street_alignment=2.2,
        background_fraction=0.18,
        cluster_spread=0.09,
    )


def nyc_taxi_surrogate(*, scale: float = 1.0, seed=1) -> GeoDataset:
    """Seeded surrogate for the NYC Green Taxi 2016 pickup extraction of Section VII-A."""
    return _build_geo_dataset(
        "NYC",
        NYC_FULL_DOMAIN,
        NYC_FULL_COUNT,
        NYC_PARTS,
        scale=scale,
        seed=seed,
        n_clusters=8,
        street_alignment=2.8,
        background_fraction=0.10,
        cluster_spread=0.07,
    )
