"""One entry point per table and figure of the paper's evaluation section.

Each ``figure_*`` function runs the corresponding sweep with a given
:class:`~repro.experiments.config.ExperimentConfig` and returns a
:class:`~repro.experiments.runner.SweepResult` (or a plain structure for the tables).
The benchmark suite calls these with the laptop config and prints the resulting series;
``benchmarks/results/`` records a reference run (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.geodata import CHICAGO_PARTS, NYC_PARTS, RegionSpec
from repro.datasets.loader import load_dataset
from repro.experiments.config import (
    B_SCALE_VALUES,
    D_VALUES_LARGE,
    D_VALUES_SMALL,
    EPSILON_VALUES_LARGE,
    EPSILON_VALUES_SMALL,
    FINE_MECHANISMS,
    MAIN_MECHANISMS,
    TRAJECTORY_D_VALUES,
    TRAJECTORY_EPSILON_VALUES,
    ExperimentConfig,
    TrajectoryConfig,
    laptop_config,
    laptop_trajectory_config,
)
from repro.experiments.runner import MeasurementPoint, SweepResult, sweep_parameter
from repro.trajectory.adapter import compare_trajectory_mechanism
from repro.utils.rng import spawn_rngs


# ---------------------------------------------------------------------------
# Table III — dataset statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetPartStatistics:
    """One row of Table III: part name, bounding box, paper count and surrogate count."""

    dataset: str
    part: str
    lat_range: tuple[float, float]
    lon_range: tuple[float, float]
    paper_points: int
    surrogate_points: int


def table3_dataset_statistics(
    config: ExperimentConfig | None = None,
) -> list[DatasetPartStatistics]:
    """Regenerate Table III from the surrogate datasets."""
    config = config or laptop_config()
    rows: list[DatasetPartStatistics] = []
    for dataset_name, specs in (("Crime", CHICAGO_PARTS), ("NYC", NYC_PARTS)):
        dataset = load_dataset(dataset_name, scale=config.dataset_scale, seed=config.seed)
        by_name = {name: points for name, points, _ in dataset.parts}
        for spec in specs:
            rows.append(_part_row(dataset_name, spec, by_name[spec.name].shape[0]))
    return rows


def _part_row(dataset: str, spec: RegionSpec, surrogate_points: int) -> DatasetPartStatistics:
    return DatasetPartStatistics(
        dataset=dataset,
        part=spec.name,
        lat_range=(spec.lat_min, spec.lat_max),
        lon_range=(spec.lon_min, spec.lon_max),
        paper_points=spec.paper_point_count,
        surrogate_points=surrogate_points,
    )


# ---------------------------------------------------------------------------
# Figure 8 — W2 versus the norm distance b
# ---------------------------------------------------------------------------


def figure8_radius_sweep(config: ExperimentConfig | None = None) -> SweepResult:
    """Figure 8: DAM's W2 as the radius multiplier sweeps 0.33 b_check .. 1.67 b_check."""
    config = config or laptop_config()
    return sweep_parameter(
        "figure8-radius-sweep",
        "b_scale",
        B_SCALE_VALUES,
        ("DAM",),
        config,
    )


# ---------------------------------------------------------------------------
# Figure 9 — W2 versus d and epsilon
# ---------------------------------------------------------------------------


def figure9_small_d(config: ExperimentConfig | None = None) -> SweepResult:
    """Figure 9(a-e): all five mechanisms, d in 1..5, default epsilon."""
    config = config or laptop_config()
    return sweep_parameter("figure9-small-d", "d", D_VALUES_SMALL, MAIN_MECHANISMS, config)


def figure9_large_d(config: ExperimentConfig | None = None) -> SweepResult:
    """Figure 9(f-j): DAM vs SEM-Geo-I, d up to 20, epsilon = 5 (Sinkhorn regime)."""
    config = (config or laptop_config()).with_overrides(default_epsilon=5.0)
    return sweep_parameter("figure9-large-d", "d", D_VALUES_LARGE, FINE_MECHANISMS, config)


def figure9_small_epsilon(config: ExperimentConfig | None = None) -> SweepResult:
    """Figure 9(k-o): all five mechanisms, epsilon in 0.7..3.5, default d.

    The paper keeps d small enough for SEM-Geo-I to stay feasible at small budgets; we
    keep the configured default d and rely on the closed-form inclusion matrix, which
    has no blow-up, so the full grid is used throughout.
    """
    config = config or laptop_config()
    return sweep_parameter(
        "figure9-small-epsilon", "epsilon", EPSILON_VALUES_SMALL, MAIN_MECHANISMS, config
    )


def figure9_large_epsilon(config: ExperimentConfig | None = None) -> SweepResult:
    """Figure 9(p-t): DAM vs SEM-Geo-I, epsilon in 5..9, d = 15 (Sinkhorn regime)."""
    config = config or laptop_config()
    return sweep_parameter(
        "figure9-large-epsilon", "epsilon", EPSILON_VALUES_LARGE, FINE_MECHANISMS, config
    )


# ---------------------------------------------------------------------------
# Figure 13 — Crime with the full domain (Appendix C)
# ---------------------------------------------------------------------------


def figure13_full_domain(config: ExperimentConfig | None = None) -> dict[str, SweepResult]:
    """Figure 13(a-d): the d and epsilon sweeps repeated on the full Chicago domain."""
    config = config or laptop_config()
    crime_only = ("Crime",)
    return {
        "small_d": sweep_parameter(
            "figure13-small-d",
            "d",
            D_VALUES_SMALL,
            MAIN_MECHANISMS,
            config,
            full_domain=True,
            datasets=crime_only,
        ),
        "large_d": sweep_parameter(
            "figure13-large-d",
            "d",
            D_VALUES_LARGE,
            FINE_MECHANISMS,
            config.with_overrides(default_epsilon=5.0),
            full_domain=True,
            datasets=crime_only,
        ),
        "small_epsilon": sweep_parameter(
            "figure13-small-epsilon",
            "epsilon",
            EPSILON_VALUES_SMALL,
            MAIN_MECHANISMS,
            config,
            full_domain=True,
            datasets=crime_only,
        ),
        "large_epsilon": sweep_parameter(
            "figure13-large-epsilon",
            "epsilon",
            EPSILON_VALUES_LARGE,
            FINE_MECHANISMS,
            config,
            full_domain=True,
            datasets=crime_only,
        ),
    }


# ---------------------------------------------------------------------------
# Figure 14 — trajectory comparison (Appendix D)
# ---------------------------------------------------------------------------


@dataclass
class TrajectorySweepResult:
    """Figure 14 results: W2 per (mechanism, swept value)."""

    name: str
    points: list[MeasurementPoint] = field(default_factory=list)

    def series(self, mechanism: str) -> list[tuple[float, float]]:
        return sorted(
            (p.parameter_value, p.w2_mean) for p in self.points if p.mechanism == mechanism
        )


def _trajectory_dataset(config: TrajectoryConfig):
    from repro.datasets.loader import load_dataset as _load
    from repro.datasets.trajectories import generate_trajectories

    nyc = _load("NYC", scale=config.dataset_scale, seed=config.seed, full_domain=True)
    _, points, domain = nyc.parts[0]
    return (
        generate_trajectories(
            points,
            domain,
            routing_d=config.routing_d,
            n_trajectories=config.n_trajectories,
            min_length=config.min_length,
            max_length=config.max_length,
            seed=config.seed,
        ),
        domain,
    )


def figure14_trajectory(
    config: TrajectoryConfig | None = None,
    *,
    sweep: str = "both",
) -> dict[str, TrajectorySweepResult]:
    """Figure 14(a-b): trajectory W2 versus d and versus epsilon on NYC trajectories."""
    config = config or laptop_trajectory_config()
    if sweep not in ("d", "epsilon", "both"):
        raise ValueError(f"sweep must be 'd', 'epsilon' or 'both', got {sweep!r}")
    dataset, domain = _trajectory_dataset(config)
    trajectories = dataset.trajectories
    results: dict[str, TrajectorySweepResult] = {}

    def run(parameter_name: str, values, fixed_d: int, fixed_eps: float) -> TrajectorySweepResult:
        result = TrajectorySweepResult(name=f"figure14-{parameter_name}")
        for value in values:
            d = int(value) if parameter_name == "d" else fixed_d
            epsilon = float(value) if parameter_name == "epsilon" else fixed_eps
            for mechanism in config.mechanisms:
                repeat_rngs = spawn_rngs(config.seed, config.n_repeats)
                errors = [
                    compare_trajectory_mechanism(
                        mechanism,
                        trajectories,
                        domain,
                        max(d, 1),
                        epsilon,
                        seed=rng,
                    ).w2
                    for rng in repeat_rngs
                ]
                result.points.append(
                    MeasurementPoint(
                        dataset="NYC-trajectories",
                        mechanism=mechanism,
                        parameter_name=parameter_name,
                        parameter_value=float(value),
                        w2_mean=float(np.mean(errors)),
                        w2_std=float(np.std(errors)),
                        n_repeats=config.n_repeats,
                        details={"d": d, "epsilon": epsilon},
                    )
                )
        return result

    if sweep in ("d", "both"):
        results["d"] = run("d", TRAJECTORY_D_VALUES, config.default_d, config.default_epsilon)
    if sweep in ("epsilon", "both"):
        results["epsilon"] = run(
            "epsilon", TRAJECTORY_EPSILON_VALUES, config.default_d, config.default_epsilon
        )
    return results
