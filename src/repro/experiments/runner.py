"""Experiment runner: build mechanisms by name, run them on datasets, average errors.

The runner reproduces the measurement protocol of Section VII-C:

* every mechanism is run on every *part* of a dataset (the real datasets have the three
  Table III parts, the synthetic ones a single part) and the per-part ``W2`` values are
  averaged;
* every configuration is repeated ``n_repeats`` times with independent randomness and
  the mean is reported;
* SEM-Geo-I's ε′ is calibrated so its Local Privacy matches DAM's at the same nominal
  budget (Section VII-B), unless calibration is disabled;
* the exact LP Wasserstein solver is used for coarse grids and Sinkhorn for fine ones.

Execution scales out without changing a single number: every (dataset, mechanism,
parameter value) cell of a sweep derives its randomness from its own stable seed, so
:func:`sweep_parameter` can fan cells out to a process pool (``config.workers``) and
memoise them in a content-addressed on-disk cache (``config.cache_dir``) while staying
bit-identical to the serial, uncached run.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec, SpatialDomain
from repro.core.huem import DiscreteHUEM
from repro.core.radius import grid_radius
from repro.datasets.loader import EvaluationDataset, load_dataset
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.config import ExperimentConfig
from repro.mechanisms.cfo import BucketCFOMechanism
from repro.mechanisms.geo_i import DiscreteGeoIMechanism
from repro.mechanisms.hdg import HDG
from repro.mechanisms.mdsw import MDSW
from repro.mechanisms.sem_geo_i import SEMGeoI
from repro.metrics.local_privacy import calibrate_epsilon, local_privacy_of_mechanism
from repro.metrics.wasserstein import wasserstein2_auto
from repro.queries.engine import QueryEngine
from repro.queries.range_query import RangeQueryWorkload
from repro.utils.rng import ensure_rng, spawn_seed_sequences

#: Mechanism names accepted by :func:`build_mechanism`.
MECHANISM_NAMES: tuple[str, ...] = (
    "DAM",
    "DAM-NS",
    "HUEM",
    "MDSW",
    "SEM-Geo-I",
    "Geo-I",
    "Bucket+CFO",
    "HDG",
)


@dataclass(frozen=True)
class MeasurementPoint:
    """One averaged measurement: a (dataset, mechanism, parameter) triple's error."""

    dataset: str
    mechanism: str
    parameter_name: str
    parameter_value: float
    w2_mean: float
    w2_std: float
    n_repeats: int
    details: dict = field(default_factory=dict, compare=False)


@dataclass
class SweepResult:
    """All measurement points of one parameter sweep (one paper figure panel row)."""

    name: str
    points: list[MeasurementPoint] = field(default_factory=list)

    def series(self, dataset: str, mechanism: str) -> list[tuple[float, float]]:
        """The (parameter, W2) series of one mechanism on one dataset, sorted."""
        selected = [
            (p.parameter_value, p.w2_mean)
            for p in self.points
            if p.dataset == dataset and p.mechanism == mechanism
        ]
        return sorted(selected)

    def datasets(self) -> list[str]:
        return sorted({p.dataset for p in self.points})

    def mechanisms(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.mechanism not in seen:
                seen.append(p.mechanism)
        return seen


def calibrated_sem_epsilon(grid: GridSpec, epsilon: float, b_hat: int | None = None) -> float:
    """ε′ for SEM-Geo-I whose Local Privacy matches DAM's at the given ε (Section VII-B)."""
    return _calibrated_sem_epsilon_cached(grid.d, grid.domain.bounds, float(epsilon), b_hat)


@lru_cache(maxsize=256)
def _calibrated_sem_epsilon_cached(
    d: int, bounds: tuple[float, float, float, float], epsilon: float, b_hat: int | None
) -> float:
    domain = SpatialDomain(*bounds)
    grid = GridSpec(domain, d)
    if d == 1:
        # A single cell carries no location signal; calibration is meaningless.
        return epsilon
    dam = DiscreteDAM(grid, epsilon, b_hat=b_hat or None)
    target = local_privacy_of_mechanism(dam)
    result = calibrate_epsilon(lambda e: SEMGeoI(grid, e), target)
    return float(result.epsilon)


def build_mechanism(
    name: str,
    grid: GridSpec,
    epsilon: float,
    *,
    b_hat: int | None = None,
    calibrate_sem: bool = True,
):
    """Instantiate a mechanism by its paper name on the given grid and budget.

    ``b_hat`` of ``None`` or ``0`` leaves the disk mechanisms at their default radius.
    """
    key = name.strip().lower()
    if key == "dam":
        return DiscreteDAM(grid, epsilon, b_hat=b_hat or None)
    if key in ("dam-ns", "damns"):
        return DiscreteDAM(grid, epsilon, b_hat=b_hat or None, use_shrinkage=False)
    if key == "huem":
        return DiscreteHUEM(grid, epsilon, b_hat=b_hat or None)
    if key == "mdsw":
        return MDSW(grid, epsilon)
    if key in ("sem-geo-i", "sem_geo_i", "semgeoi"):
        sem_epsilon = (
            calibrated_sem_epsilon(grid, epsilon, b_hat) if calibrate_sem else epsilon
        )
        return SEMGeoI(grid, sem_epsilon)
    if key == "geo-i":
        return DiscreteGeoIMechanism(grid, epsilon)
    if key in ("bucket+cfo", "cfo", "bucket"):
        return BucketCFOMechanism(grid, epsilon)
    if key == "hdg":
        return HDG(grid, epsilon)
    raise ValueError(f"unknown mechanism {name!r}; expected one of {MECHANISM_NAMES}")


def evaluate_on_part(
    mechanism_name: str,
    points: np.ndarray,
    domain: SpatialDomain,
    d: int,
    epsilon: float,
    *,
    b_hat: int | None = None,
    seed=None,
    exact_cell_limit: int = 144,
    calibrate_sem: bool = True,
    max_users: int | None = None,
    normalise_domain: bool = True,
) -> float:
    """Run one mechanism on one dataset part and return the ``W2`` error.

    Following the problem definition (Section IV: the input domain is the unit square),
    the part's coordinates are affinely mapped into ``[0, 1]^2`` before bucketisation by
    default, so W2 values are comparable across datasets of different physical extent —
    this matches the scale of the paper's figures.
    """
    rng = ensure_rng(seed)
    pts = np.asarray(points, dtype=float)
    pts = pts[domain.contains(pts)]
    if max_users is not None and pts.shape[0] > max_users:
        chosen = rng.choice(pts.shape[0], size=max_users, replace=False)
        pts = pts[chosen]
    if normalise_domain:
        pts = domain.normalise(pts)
        domain = SpatialDomain.unit(domain.name or "unit")
    grid = GridSpec(domain, d)
    true_distribution = grid.distribution(pts)
    mechanism = build_mechanism(
        mechanism_name,
        grid,
        epsilon,
        b_hat=b_hat,
        calibrate_sem=calibrate_sem,
    )
    report = mechanism.run(pts, seed=rng)
    return wasserstein2_auto(true_distribution, report.estimate, exact_cell_limit=exact_cell_limit)


#: Range-query workload used by the ``"range-mae"`` sweep metric: queries per part
#: and the side-length fractions (the short-to-mid range mix of the HIO/HDG papers).
RANGE_QUERY_WORKLOAD_SIZE: int = 64
RANGE_QUERY_FRACTIONS: tuple[float, float] = (0.05, 0.5)

#: Trajectory workload used by the ``"trajectory-w2"`` sweep metric: every part's
#: point cloud is turned into an Appendix-D random-walk trajectory set of this shape
#: before the trajectory mechanism runs (kept small so a sweep cell stays affordable).
TRAJECTORY_WORKLOAD_ROUTING_D: int = 60
TRAJECTORY_WORKLOAD_SIZE: int = 120
TRAJECTORY_WORKLOAD_MAX_LENGTH: int = 40

#: Streaming workload used by the ``"stream-mae"`` sweep metric: each part becomes a
#: drifting report stream (per-epoch resamples of the part translated by a moving
#: offset) served through the sliding-window service; the error is the mean per-cell
#: absolute error of the windowed estimate against the window's true distribution,
#: averaged over the epochs — error-vs-epoch under drift, collapsed to one number.
STREAM_WORKLOAD_EPOCHS: int = 10
STREAM_WORKLOAD_USERS_PER_EPOCH: int = 1200
STREAM_WORKLOAD_WINDOW_EPOCHS: int = 4
STREAM_WORKLOAD_DRIFT: float = 0.3


def evaluate_trajectories_on_part(
    mechanism_name: str,
    points: np.ndarray,
    domain: SpatialDomain,
    d: int,
    epsilon: float,
    *,
    seed=None,
    max_users: int | None = None,
    routing_d: int = TRAJECTORY_WORKLOAD_ROUTING_D,
    n_trajectories: int = TRAJECTORY_WORKLOAD_SIZE,
    max_length: int = TRAJECTORY_WORKLOAD_MAX_LENGTH,
) -> float:
    """Trajectory point-density ``W2`` of one mechanism on one dataset part.

    The part's points seed an Appendix-D popularity-weighted random-walk trajectory
    set, the trajectory mechanism (``"LDPTrace"``, ``"PivotTrace"`` or ``"DAM"``
    through the trajectory-to-point adapter) privatizes it, and the seven-step
    comparison returns the Wasserstein error — the trajectory counterpart of
    :func:`evaluate_on_part`'s point metric.
    """
    from repro.datasets.trajectories import generate_trajectories
    from repro.trajectory.adapter import compare_trajectory_mechanism

    rng = ensure_rng(seed)
    pts = np.asarray(points, dtype=float)
    pts = pts[domain.contains(pts)]
    if max_users is not None and pts.shape[0] > max_users:
        chosen = rng.choice(pts.shape[0], size=max_users, replace=False)
        pts = pts[chosen]
    dataset = generate_trajectories(
        pts,
        domain,
        routing_d=routing_d,
        n_trajectories=n_trajectories,
        max_length=max_length,
        seed=rng,
    )
    return compare_trajectory_mechanism(
        mechanism_name,
        dataset.trajectories,
        domain,
        d,
        epsilon,
        seed=rng,
    ).w2


def evaluate_stream_on_part(
    mechanism_name: str,
    points: np.ndarray,
    domain: SpatialDomain,
    d: int,
    epsilon: float,
    *,
    b_hat: int | None = None,
    seed=None,
    calibrate_sem: bool = True,
    max_users: int | None = None,
    normalise_domain: bool = True,
    n_epochs: int = STREAM_WORKLOAD_EPOCHS,
    users_per_epoch: int = STREAM_WORKLOAD_USERS_PER_EPOCH,
    window_epochs: int = STREAM_WORKLOAD_WINDOW_EPOCHS,
    drift: float = STREAM_WORKLOAD_DRIFT,
) -> float:
    """Drift-tracking error of one mechanism on one dataset part.

    The part's points become a drifting stream: every epoch resamples
    ``users_per_epoch`` reports from the part and translates them by a moving
    diagonal offset (total excursion ``drift`` of the domain side, clipped to the
    domain), so the population migrates smoothly while keeping the part's shape.
    The stream runs through the sliding-window
    :class:`~repro.streaming.StreamingEstimationService` and the returned error is
    the epoch-averaged mean absolute per-cell error of the windowed estimate
    against the window's true (non-private) distribution.

    Only transition-matrix mechanisms (DAM / DAM-NS / HUEM / Geo-I / ...) can be
    streamed — the warm-started re-solve needs the mechanism's transition model.
    """
    from repro.streaming import StreamingEstimationService

    rng = ensure_rng(seed)
    pts = np.asarray(points, dtype=float)
    pts = pts[domain.contains(pts)]
    if max_users is not None and pts.shape[0] > max_users:
        chosen = rng.choice(pts.shape[0], size=max_users, replace=False)
        pts = pts[chosen]
    if normalise_domain:
        pts = domain.normalise(pts)
        domain = SpatialDomain.unit(domain.name or "unit")
    grid = GridSpec(domain, d)
    mechanism = build_mechanism(
        mechanism_name,
        grid,
        epsilon,
        b_hat=b_hat,
        calibrate_sem=calibrate_sem,
    )
    service = StreamingEstimationService(mechanism, window_epochs=window_epochs, seed=rng)
    step = np.array([domain.width, domain.height])
    errors = []
    for epoch in range(n_epochs):
        t = epoch / (n_epochs - 1) if n_epochs > 1 else 0.0
        offset = drift * (t - 0.5) * step
        chosen = rng.integers(0, pts.shape[0], users_per_epoch)
        update = service.ingest_epoch(domain.clip(pts[chosen] + offset))
        truth = service.window.true_distribution()
        errors.append(float(np.abs(update.estimate.flat() - truth.flat()).mean()))
    return float(np.mean(errors))


def evaluate_range_queries_on_part(
    mechanism_name: str,
    points: np.ndarray,
    domain: SpatialDomain,
    d: int,
    epsilon: float,
    *,
    b_hat: int | None = None,
    seed=None,
    calibrate_sem: bool = True,
    max_users: int | None = None,
    normalise_domain: bool = True,
    n_queries: int = RANGE_QUERY_WORKLOAD_SIZE,
) -> float:
    """Range-query MAE of one mechanism on one dataset part.

    The mechanism's estimate is served through the summed-area-table
    :class:`~repro.queries.engine.QueryEngine` and scored against the raw points on a
    random rectangular workload — the range-query counterpart of
    :func:`evaluate_on_part`'s ``W2`` error.
    """
    rng = ensure_rng(seed)
    pts = np.asarray(points, dtype=float)
    pts = pts[domain.contains(pts)]
    if max_users is not None and pts.shape[0] > max_users:
        chosen = rng.choice(pts.shape[0], size=max_users, replace=False)
        pts = pts[chosen]
    if normalise_domain:
        pts = domain.normalise(pts)
        domain = SpatialDomain.unit(domain.name or "unit")
    grid = GridSpec(domain, d)
    mechanism = build_mechanism(
        mechanism_name,
        grid,
        epsilon,
        b_hat=b_hat,
        calibrate_sem=calibrate_sem,
    )
    report = mechanism.run(pts, seed=rng)
    low, high = RANGE_QUERY_FRACTIONS
    workload = RangeQueryWorkload.random(
        domain, n_queries, min_fraction=low, max_fraction=high, seed=rng
    )
    answers = QueryEngine(report.estimate).range_mass(workload.as_array())
    return workload.mean_absolute_error(answers, pts)


def _evaluate_repeat(
    repeat_seed,
    *,
    mechanism_name: str,
    dataset: EvaluationDataset,
    d: int,
    epsilon: float,
    b_hat: int | None,
    config: ExperimentConfig,
    metric: str = "w2",
) -> float:
    """One repetition: run the mechanism on every dataset part, average the errors.

    The parts deliberately share one generator (state carries across parts within a
    repetition, as in the original serial loop), so a repetition is the unit of
    parallelism — fanning out repetitions reproduces the serial numbers bit for bit.
    """
    rng = ensure_rng(repeat_seed)
    if metric == "w2":
        part_errors = [
            evaluate_on_part(
                mechanism_name,
                points,
                domain,
                d,
                epsilon,
                b_hat=b_hat,
                seed=rng,
                exact_cell_limit=config.exact_cell_limit,
                calibrate_sem=config.calibrate_sem,
                max_users=config.max_users_per_part,
            )
            for _, points, domain in dataset.parts
        ]
    elif metric == "range-mae":
        part_errors = [
            evaluate_range_queries_on_part(
                mechanism_name,
                points,
                domain,
                d,
                epsilon,
                b_hat=b_hat,
                seed=rng,
                calibrate_sem=config.calibrate_sem,
                max_users=config.max_users_per_part,
            )
            for _, points, domain in dataset.parts
        ]
    elif metric == "trajectory-w2":
        part_errors = [
            evaluate_trajectories_on_part(
                mechanism_name,
                points,
                domain,
                d,
                epsilon,
                seed=rng,
                max_users=config.max_users_per_part,
            )
            for _, points, domain in dataset.parts
        ]
    elif metric == "stream-mae":
        part_errors = [
            evaluate_stream_on_part(
                mechanism_name,
                points,
                domain,
                d,
                epsilon,
                b_hat=b_hat,
                seed=rng,
                calibrate_sem=config.calibrate_sem,
                max_users=config.max_users_per_part,
            )
            for _, points, domain in dataset.parts
        ]
    else:
        raise ValueError(
            f"unknown sweep metric {metric!r}; "
            "expected 'w2', 'range-mae', 'trajectory-w2' or 'stream-mae'"
        )
    return float(np.mean(part_errors))


# Worker-process global for the repetition pool: the (dataset-bearing) evaluation
# context is shipped once per worker through the pool initializer rather than being
# re-pickled into every repetition task.
_REPEAT_EVALUATE = None


def _repeat_worker_init(evaluate) -> None:
    global _REPEAT_EVALUATE
    _REPEAT_EVALUATE = evaluate


def _repeat_worker(repeat_seed) -> float:
    assert _REPEAT_EVALUATE is not None, "repetition pool initializer did not run"
    return _REPEAT_EVALUATE(repeat_seed)


def evaluate_on_dataset(
    mechanism_name: str,
    dataset: EvaluationDataset,
    d: int,
    epsilon: float,
    config: ExperimentConfig,
    *,
    b_hat: int | None = None,
    seed=None,
    workers: int = 1,
    metric: str = "w2",
) -> tuple[float, float]:
    """Mean and standard deviation of the error over repetitions and dataset parts.

    ``metric`` selects the error: ``"w2"`` (the paper's Wasserstein protocol) or
    ``"range-mae"`` (range-query mean absolute error through the serving engine).
    ``workers > 1`` fans the repetitions out to a process pool; each repetition owns
    an independent spawned child stream, so the returned statistics are identical to
    the serial run for every worker count.
    """
    repeat_seeds = spawn_seed_sequences(seed if seed is not None else config.seed, config.n_repeats)
    evaluate = partial(
        _evaluate_repeat,
        mechanism_name=mechanism_name,
        dataset=dataset,
        d=d,
        epsilon=epsilon,
        b_hat=b_hat,
        config=config,
        metric=metric,
    )
    if workers > 1 and len(repeat_seeds) > 1:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(repeat_seeds)),
            initializer=_repeat_worker_init,
            initargs=(evaluate,),
        ) as pool:
            repeat_means = list(pool.map(_repeat_worker, repeat_seeds))
    else:
        repeat_means = [evaluate(child) for child in repeat_seeds]
    return float(np.mean(repeat_means)), float(np.std(repeat_means))


@lru_cache(maxsize=16)
def _load_dataset_cached(
    name: str, scale: float, seed: int, full_domain: bool
) -> EvaluationDataset:
    """Per-process dataset cache so pool workers regenerate each dataset only once."""
    return load_dataset(name, scale=scale, seed=seed, full_domain=full_domain)


@dataclass(frozen=True)
class SweepCell:
    """One independently computable cell of a sweep, fully described by values.

    Carries everything a worker process needs to reproduce the measurement (the
    dataset travels by name, not by value — workers load and memoise it locally),
    and everything the result cache needs to address it.
    """

    dataset: str
    mechanism: str
    parameter_name: str
    parameter_value: float
    d: int
    epsilon: float
    b_hat: int | None
    seed: int
    full_domain: bool
    metric: str = "w2"


def _cell_seed(config: ExperimentConfig, dataset_name: str, mechanism_name: str) -> int:
    # Derive a per-(dataset, mechanism) seed with a *stable* hash so sweep results
    # are reproducible across processes (Python's built-in hash of strings is salted
    # per interpreter run).
    stable = zlib.crc32(f"{dataset_name}/{mechanism_name}".encode()) % 100_000
    return config.seed + stable


def _evaluate_sweep_cell(cell: SweepCell, *, config: ExperimentConfig) -> MeasurementPoint:
    """Compute one sweep cell — the unit of work shipped to pool workers."""
    dataset = _load_dataset_cached(
        cell.dataset, config.dataset_scale, config.seed, cell.full_domain
    )
    mean, std = evaluate_on_dataset(
        cell.mechanism,
        dataset,
        cell.d,
        cell.epsilon,
        config,
        b_hat=cell.b_hat,
        seed=cell.seed,
        metric=cell.metric,
    )
    return MeasurementPoint(
        dataset=cell.dataset,
        mechanism=cell.mechanism,
        parameter_name=cell.parameter_name,
        parameter_value=cell.parameter_value,
        w2_mean=mean,
        w2_std=std,
        n_repeats=config.n_repeats,
        details={
            "d": cell.d,
            "epsilon": cell.epsilon,
            "b_hat": cell.b_hat,
            "metric": cell.metric,
        },
    )


def _cell_cache_key(cell: SweepCell, config: ExperimentConfig) -> str:
    """Content address of one cell: every result-affecting parameter, nothing else.

    ``workers`` and ``cache_dir`` are deliberately excluded — they change how a
    number is computed, never which number comes out.
    """
    return cache_key(
        {
            "kind": "sweep-cell",
            "dataset": cell.dataset,
            "mechanism": cell.mechanism,
            "parameter_name": cell.parameter_name,
            "parameter_value": cell.parameter_value,
            "d": cell.d,
            "epsilon": cell.epsilon,
            "b_hat": cell.b_hat,
            "seed": cell.seed,
            "full_domain": cell.full_domain,
            "dataset_scale": config.dataset_scale,
            "n_repeats": config.n_repeats,
            "config_seed": config.seed,
            "exact_cell_limit": config.exact_cell_limit,
            "calibrate_sem": config.calibrate_sem,
            "max_users_per_part": config.max_users_per_part,
            "metric": cell.metric,
            "range_query_workload": (
                (RANGE_QUERY_WORKLOAD_SIZE, RANGE_QUERY_FRACTIONS)
                if cell.metric == "range-mae"
                else None
            ),
            "trajectory_workload": (
                (
                    TRAJECTORY_WORKLOAD_ROUTING_D,
                    TRAJECTORY_WORKLOAD_SIZE,
                    TRAJECTORY_WORKLOAD_MAX_LENGTH,
                )
                if cell.metric == "trajectory-w2"
                else None
            ),
            "stream_workload": (
                (
                    STREAM_WORKLOAD_EPOCHS,
                    STREAM_WORKLOAD_USERS_PER_EPOCH,
                    STREAM_WORKLOAD_WINDOW_EPOCHS,
                    STREAM_WORKLOAD_DRIFT,
                )
                if cell.metric == "stream-mae"
                else None
            ),
        }
    )


def _point_to_payload(point: MeasurementPoint) -> dict:
    return {
        "dataset": point.dataset,
        "mechanism": point.mechanism,
        "parameter_name": point.parameter_name,
        "parameter_value": point.parameter_value,
        "w2_mean": point.w2_mean,
        "w2_std": point.w2_std,
        "n_repeats": point.n_repeats,
        "details": point.details,
    }


def _point_from_payload(payload: dict) -> MeasurementPoint:
    return MeasurementPoint(
        dataset=payload["dataset"],
        mechanism=payload["mechanism"],
        parameter_name=payload["parameter_name"],
        parameter_value=float(payload["parameter_value"]),
        w2_mean=float(payload["w2_mean"]),
        w2_std=float(payload["w2_std"]),
        n_repeats=int(payload["n_repeats"]),
        details=dict(payload.get("details", {})),
    )


def plan_sweep(
    parameter_name: str,
    parameter_values: tuple,
    mechanisms: tuple[str, ...],
    config: ExperimentConfig,
    *,
    full_domain: bool = False,
    datasets: tuple[str, ...] | None = None,
    metric: str = "w2",
) -> list[SweepCell]:
    """Expand a sweep into its independent cells, in the canonical (serial) order."""
    if parameter_name not in ("d", "epsilon", "b_scale"):
        raise ValueError(f"unknown swept parameter {parameter_name!r}")
    dataset_names = datasets if datasets is not None else config.datasets
    cells: list[SweepCell] = []
    for dataset_name in dataset_names:
        if parameter_name == "b_scale":
            # Radius resolution needs the part geometry; every other sweep plans
            # without touching the data (workers load it themselves).
            dataset = _load_dataset_cached(
                dataset_name, config.dataset_scale, config.seed, full_domain
            )
            side = dataset.parts[0][2].side_length if dataset.parts else 1.0
        else:
            side = 1.0
        for value in parameter_values:
            d, epsilon, b_hat = _resolve_parameters(parameter_name, value, config, side)
            for mechanism_name in mechanisms:
                cells.append(
                    SweepCell(
                        dataset=dataset_name,
                        mechanism=mechanism_name,
                        parameter_name=parameter_name,
                        parameter_value=float(value),
                        d=d,
                        epsilon=epsilon,
                        b_hat=b_hat,
                        seed=_cell_seed(config, dataset_name, mechanism_name),
                        full_domain=full_domain,
                        metric=metric,
                    )
                )
    return cells


def sweep_parameter(
    sweep_name: str,
    parameter_name: str,
    parameter_values: tuple,
    mechanisms: tuple[str, ...],
    config: ExperimentConfig,
    *,
    full_domain: bool = False,
    datasets: tuple[str, ...] | None = None,
    workers: int | None = None,
    cache: ResultCache | None = None,
    metric: str = "w2",
) -> SweepResult:
    """Run a full sweep: every (dataset, mechanism, parameter value) combination.

    ``parameter_name`` is ``"d"``, ``"epsilon"`` or ``"b_scale"``; the non-swept
    parameters take the config defaults.  ``metric`` selects the per-cell error:

    * ``"w2"`` — ``W2`` of the estimate against the part's true histogram (the
      paper's figures);
    * ``"range-mae"`` — MAE of a random rectangular workload answered through the
      summed-area-table :class:`~repro.queries.engine.QueryEngine`, scored against
      the raw points (the serving-accuracy panel);
    * ``"trajectory-w2"`` — point-density ``W2`` of a trajectory mechanism
      (``LDPTrace`` / ``PivotTrace`` / ``DAM`` through the adapter) on an
      Appendix-D workload generated from the part (the Figure-14 panel at scale);
    * ``"stream-mae"`` — epoch-averaged per-cell MAE of the sliding-window
      :class:`~repro.streaming.StreamingEstimationService` over a drifting stream
      built from the part; the mechanism must carry a transition model.

    This is the workhorse every figure bench calls.

    Cells are independent, so with ``workers > 1`` (default: ``config.workers``)
    they are fanned out to a process pool, and with a cache (default: a
    :class:`~repro.experiments.cache.ResultCache` over ``config.cache_dir``) each
    cell is memoised on disk by the hash of its parameters — interrupted or
    repeated sweeps only pay for the cells they have not seen.  Neither knob
    changes a single measured value.
    """
    cells = plan_sweep(
        parameter_name,
        parameter_values,
        mechanisms,
        config,
        full_domain=full_domain,
        datasets=datasets,
        metric=metric,
    )
    if workers is None:
        workers = config.workers
    if cache is None:
        cache = ResultCache(config.cache_dir)

    points: list[MeasurementPoint | None] = [None] * len(cells)
    pending: list[tuple[int, str]] = []
    for index, cell in enumerate(cells):
        key = _cell_cache_key(cell, config)
        payload = cache.get(key)
        if payload is not None:
            points[index] = _point_from_payload(payload)
        else:
            pending.append((index, key))

    if pending:
        evaluate = partial(_evaluate_sweep_cell, config=config)
        todo = [cells[index] for index, _ in pending]
        if workers > 1 and len(todo) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
                results = pool.map(evaluate, todo)
                # Consume lazily and persist each cell as it lands, so an
                # interrupted sweep resumes from every completed cell.
                for (index, key), point in zip(pending, results):
                    points[index] = point
                    cache.put(key, _point_to_payload(point))
        else:
            for (index, key), cell in zip(pending, todo):
                point = evaluate(cell)
                points[index] = point
                cache.put(key, _point_to_payload(point))

    return SweepResult(name=sweep_name, points=list(points))


def _resolve_parameters(
    parameter_name: str, value, config: ExperimentConfig, side: float
) -> tuple[int, float, int | None]:
    """Map a swept value onto the concrete (d, epsilon, b_hat) triple."""
    if parameter_name == "d":
        return int(value), config.default_epsilon, None
    if parameter_name == "epsilon":
        return config.default_d, float(value), None
    # b_scale sweep: fix d and epsilon, scale the optimal radius (in units of the
    # dataset part's side length).
    optimal = grid_radius(config.default_epsilon, config.default_d, side)
    b_hat = max(int(np.floor(float(value) * optimal)), 1)
    return config.default_d, config.default_epsilon, b_hat
