"""Experiment configuration — the parameter grids of Tables IV and V.

Two presets are provided:

* :func:`paper_config` — the paper's exact settings (full dataset sizes, 10 repetitions,
  the complete parameter grids).  Running everything at this scale takes hours on a
  laptop, exactly as the original Java experiments did on a Xeon server.
* :func:`laptop_config` — the default used by the benchmark suite: the same grids but
  with down-scaled datasets and fewer repetitions, chosen so every figure regenerates
  in minutes while preserving the qualitative trends (who wins, where the crossovers
  are).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Table IV — the norm-distance multipliers applied to the optimal grid radius.
B_SCALE_VALUES: tuple[float, ...] = (0.33, 0.67, 1.0, 1.33, 1.67)
#: Table IV — the discrete side lengths (small sweep and extended sweep).
D_VALUES_SMALL: tuple[int, ...] = (1, 2, 3, 4, 5)
D_VALUES_LARGE: tuple[int, ...] = (1, 5, 10, 15, 20)
D_VALUES_ALL: tuple[int, ...] = (1, 2, 3, 4, 5, 10, 15, 20)
#: Table IV — the privacy budgets (small sweep and extended sweep).
EPSILON_VALUES_SMALL: tuple[float, ...] = (0.7, 1.4, 2.1, 2.8, 3.5)
EPSILON_VALUES_LARGE: tuple[float, ...] = (5.0, 6.0, 7.0, 8.0, 9.0)
EPSILON_VALUES_ALL: tuple[float, ...] = (0.7, 1.4, 2.1, 2.8, 3.5, 5.0, 6.0, 7.0, 8.0, 9.0)
#: Table IV defaults (bold/underlined in the paper).
DEFAULT_D: int = 15
DEFAULT_EPSILON: float = 3.5
DEFAULT_EPSILON_LARGE: float = 5.0

#: Table V — trajectory experiment grids and defaults.
TRAJECTORY_D_VALUES: tuple[int, ...] = (1, 5, 10, 15, 20)
TRAJECTORY_EPSILON_VALUES: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5)
TRAJECTORY_DEFAULT_D: int = 15
TRAJECTORY_DEFAULT_EPSILON: float = 1.5

#: Mechanisms compared in the main figures, in the paper's legend order.
MAIN_MECHANISMS: tuple[str, ...] = ("SEM-Geo-I", "MDSW", "HUEM", "DAM-NS", "DAM")
#: Mechanisms compared in the fine-granularity / large-budget figures.
FINE_MECHANISMS: tuple[str, ...] = ("SEM-Geo-I", "DAM")
#: Mechanisms compared in the trajectory figure.
TRAJECTORY_MECHANISMS: tuple[str, ...] = ("LDPTrace", "PivotTrace", "DAM")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment sweep needs to know besides the swept parameter.

    Two parts of the protocol are fixed, not configured: the exact-W2 solver limit
    is :data:`~repro.metrics.wasserstein.EXACT_CELL_LIMIT` (Sinkhorn above it), and
    SEM-Geo-I always runs at the ε′ calibrated to DAM's Local Privacy (Section VII-B).

    Attributes
    ----------
    dataset_scale:
        Multiplier on the paper's dataset sizes (1.0 = full size).
    n_repeats:
        Number of repetitions averaged per point (the paper uses 10).
    seed:
        Master seed; repetitions use independent child streams.
    default_d, default_epsilon:
        Values held fixed while the other parameter is swept.
    max_users_per_part:
        Hard cap on the number of reports per dataset part (keeps EM costs bounded on
        laptop runs); ``None`` disables the cap.
    workers:
        Process-pool size used by :func:`~repro.experiments.runner.sweep_parameter`
        to fan sweep cells out; ``1`` (default) runs serially.  Execution-only: the
        measured numbers are identical for every worker count.
    cache_dir:
        Directory of the content-addressed result cache
        (:class:`~repro.experiments.cache.ResultCache`); ``None`` disables caching.
        Execution-only, like ``workers``.
    """

    dataset_scale: float = 1.0
    n_repeats: int = 10
    seed: int = 2025
    default_d: int = DEFAULT_D
    default_epsilon: float = DEFAULT_EPSILON
    max_users_per_part: int | None = None
    workers: int = 1
    cache_dir: str | None = None
    datasets: tuple[str, ...] = ("Crime", "NYC", "Normal", "SZipf", "MNormal")
    mechanisms: tuple[str, ...] = MAIN_MECHANISMS

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def paper_config() -> ExperimentConfig:
    """The paper's full-scale settings (Table IV, 10 repetitions, full datasets)."""
    return ExperimentConfig()


def laptop_config() -> ExperimentConfig:
    """Down-scaled settings used by the benchmark suite.

    Datasets are subsampled to 2% of the paper's sizes and capped at 20,000 reports per
    part, with 2 repetitions.  These sizes keep each figure's regeneration in the
    minutes range while preserving the orderings the paper reports.
    """
    return ExperimentConfig(
        dataset_scale=0.02,
        n_repeats=2,
        max_users_per_part=20_000,
    )


def smoke_config() -> ExperimentConfig:
    """Tiny settings for unit/integration tests (seconds, not minutes)."""
    return ExperimentConfig(
        dataset_scale=0.005,
        n_repeats=1,
        default_d=5,
        default_epsilon=3.5,
        max_users_per_part=2_000,
    )


@dataclass(frozen=True)
class TrajectoryConfig:
    """Configuration of the Appendix-D trajectory experiment (Table V)."""

    n_trajectories: int = 1000
    min_length: int = 2
    max_length: int = 200
    routing_d: int = 300
    default_d: int = TRAJECTORY_DEFAULT_D
    default_epsilon: float = TRAJECTORY_DEFAULT_EPSILON
    n_repeats: int = 3
    seed: int = 2025
    dataset_scale: float = 1.0
    mechanisms: tuple[str, ...] = TRAJECTORY_MECHANISMS

    def with_overrides(self, **kwargs) -> "TrajectoryConfig":
        return replace(self, **kwargs)


def paper_trajectory_config() -> TrajectoryConfig:
    """Table V settings: 1000 trajectories of length 2-200 on a 300x300 routing grid."""
    return TrajectoryConfig()


def laptop_trajectory_config() -> TrajectoryConfig:
    """Scaled-down trajectory settings for the benchmark suite."""
    return TrajectoryConfig(
        n_trajectories=200,
        max_length=60,
        routing_d=80,
        n_repeats=1,
        dataset_scale=0.05,
    )
