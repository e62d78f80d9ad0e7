"""Command-line interface: quick private estimation and figure regeneration.

Two subcommands cover the common workflows without writing Python:

``python -m repro estimate``
    Read ``x,y`` locations from a CSV file (or generate a synthetic dataset), run the
    DAM pipeline at a chosen budget and grid size, and print the estimated density map
    (optionally as an ASCII heat map) together with the Wasserstein error against the
    non-private histogram.  The points are privatized in shards of ``--chunk-size``
    users on ``--workers`` processes; any shard size and worker count give the
    result of one serial pass.

``python -m repro figure``
    Regenerate one of the paper's figures (``fig8``, ``fig9-small-d``, ``fig9-large-d``,
    ``fig9-small-eps``, ``fig9-large-eps``, ``fig13``) at laptop or smoke scale and
    print/export the series.  ``--workers`` fans the sweep cells out to a process
    pool and ``--cache-dir`` memoises every cell on disk, so repeated or
    interrupted sweeps only compute what is missing.

``python -m repro query``
    Serve a query workload from a private estimate: run the chosen mechanism once,
    then answer a batched range-query workload (plus top-k hotspots and quantile
    contours) through the summed-area-table :class:`~repro.queries.engine.QueryEngine`
    and report accuracy against the raw points together with serving throughput.
    ``--save-log``/``--replay`` persist and replay workloads.  Multi-process
    serving is ``repro serve --serve-workers``.

``python -m repro trajectory``
    The trajectory workload at scale: generate an Appendix-D trajectory set from a
    point cloud, then ``--mode fit`` (sharded LDP report collection over a process
    pool, printing the estimated model), ``--mode synthesize`` (batched Markov-walk
    synthesis through :class:`~repro.trajectory.engine.TrajectoryEngine`, with
    point-density W2, OD/transition hotspots and optional CSV export) or
    ``--mode compare`` (the seven-step LDPTrace / PivotTrace / DAM comparison of
    Figure 14).  ``--workers`` shards the fit's report collection.

``python -m repro stream``
    The streaming session: generate a drifting scenario and run a sliding-window
    service over its epochs.  ``--workload point`` (default) streams point reports
    (shifting hotspot, appearing/vanishing cluster or diurnal mixture) through the
    :class:`~repro.streaming.StreamingEstimationService` — sharded per-epoch
    privatization (``--workers``), O(one epoch) window slides (``--window``,
    ``--decay``) and warm-started EM re-solves — reporting the per-epoch
    drift-tracking error, iteration counts and timings.  ``--workload trajectory``
    streams whole trajectories (commute shift, event surge or route closure)
    through the :class:`~repro.streaming.StreamingTrajectoryService`, refreshing
    the LDPTrace Markov model from the slid window's counts and publishing a fresh
    synthetic release each epoch, reporting the per-epoch point-density W2 against
    the surviving input window.  ``--save-log`` persists either session as a
    replayable JSON log; ``--replay`` re-runs a saved log's exact configuration
    and diffs the two sessions.

``python -m repro serve``
    Sustained concurrent ingest+serve: the streaming ingest loop publishes each
    epoch's window snapshot through shared memory
    (:class:`~repro.serving.shm.SnapshotWriter`) while a pool of
    ``--serve-workers`` processes answers a range-query workload against it
    (:class:`~repro.serving.ServingServer`) — reporting per-epoch throughput and
    p50/p99 batch latency, and verifying at the end that the workers' answers
    are bit-identical to the in-process serial engine.

``python -m repro lint``
    Run the :mod:`repro.analysis` static-analysis rules (privacy-flow taint, RNG
    determinism, aggregate-protocol conformance, benchmark conventions) over the
    given paths and print findings as text or JSON.  Exits non-zero when findings
    remain, which is how CI gates on it.

The CLI is intentionally thin: every subcommand delegates to the same public API the
examples and benchmarks use.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.domain import GridSpec, SpatialDomain
from repro.core.parallel import (
    DEFAULT_SHARD_SIZE,
    ParallelPipeline,
    estimate_spatial_distribution,
)
from repro.datasets.loader import DATASET_NAMES, load_dataset
from repro.datasets.synthetic import DRIFT_SCENARIOS
from repro.datasets.trajectories import TRAJECTORY_DRIFT_SCENARIOS, generate_trajectories
from repro.experiments.config import laptop_config, smoke_config
from repro.experiments.export import sweep_to_csv, sweep_to_json, sweep_to_markdown
from repro.experiments.figures import (
    figure8_radius_sweep,
    figure9_large_d,
    figure9_large_epsilon,
    figure9_small_d,
    figure9_small_epsilon,
    figure13_full_domain,
)
from repro.experiments.reporting import format_sweep
from repro.metrics.wasserstein import wasserstein2_auto
from repro.queries.engine import (
    QueryEngine,
    QueryLog,
    TrajectoryQueryEngine,
    WorkloadReplay,
)
from repro.queries.range_query import RangeQuery, RangeQueryWorkload
from repro.streaming import StreamingEstimationService, StreamingTrajectoryService
from repro.trajectory.adapter import (
    compare_trajectory_mechanism,
    trajectory_point_distribution,
)
from repro.trajectory.engine import TrajectoryEngine
from repro.utils.validation import check_epsilon
from repro.utils.visual import ascii_heatmap, side_by_side

_FIGURES = {
    "fig8": figure8_radius_sweep,
    "fig9-small-d": figure9_small_d,
    "fig9-large-d": figure9_large_d,
    "fig9-small-eps": figure9_small_epsilon,
    "fig9-large-eps": figure9_large_epsilon,
}


def _argument_type(requirement: str, parse, accept):
    """An argparse ``type=`` that parses a flag and keeps it only if ``accept`` holds.

    A value out of range is then a usage error (exit code 2) naming the flag, not a
    traceback from deep inside the library.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")
        return value

    return convert


_positive_int = _argument_type("a positive integer", int, lambda value: value >= 1)
_non_negative_int = _argument_type("a non-negative integer", int, lambda value: value >= 0)
_fraction = _argument_type("a fraction in (0, 1]", float, lambda value: 0.0 < value <= 1.0)


def _accepted_epsilon(value: float) -> bool:
    try:
        check_epsilon(value)
    except ValueError:
        return False
    return True


_epsilon = _argument_type("a privacy budget in (0, 100]", float, _accepted_epsilon)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Private spatial distribution estimation (Disk Area Mechanism reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    estimate = subparsers.add_parser("estimate", help="run the DAM pipeline on a point set")
    estimate.add_argument(
        "--input", type=Path, default=None, help="CSV file with one 'x,y' pair per line (no header)"
    )
    estimate.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default=None,
        help="use a built-in dataset surrogate instead of --input",
    )
    estimate.add_argument(
        "--scale",
        type=_fraction,
        default=0.02,
        help="dataset scale when --dataset is used (default 0.02)",
    )
    estimate.add_argument("--epsilon", type=_epsilon, default=3.5, help="privacy budget")
    estimate.add_argument("--d", type=_positive_int, default=12, help="grid side length")
    estimate.add_argument("--mechanism", choices=("dam", "dam-ns", "huem"), default="dam")
    estimate.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="shard size: users privatized per shard (default "
             f"{DEFAULT_SHARD_SIZE}; same result as one batch)",
    )
    estimate.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="privatize shards on this many worker processes "
             "(bit-identical to the serial run; default 1)",
    )
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--heatmap", action="store_true", help="print ASCII heat maps")

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=sorted([*_FIGURES, "fig13"]))
    figure.add_argument(
        "--profile",
        choices=("laptop", "smoke"),
        default="smoke",
        help="experiment scale (default: smoke, for quick runs)",
    )
    figure.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="fan sweep cells out to this many worker processes "
             "(same numbers as the serial run; default 1)",
    )
    figure.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-addressed result cache directory; re-runs and "
             "interrupted sweeps only compute missing cells",
    )
    figure.add_argument("--csv", type=Path, default=None, help="write the series to a CSV file")
    figure.add_argument("--json", type=Path, default=None, help="write the series to a JSON file")
    figure.add_argument("--markdown", action="store_true", help="print a markdown table")

    query = subparsers.add_parser(
        "query", help="serve a range/hotspot query workload from a private estimate"
    )
    query.add_argument(
        "--input", type=Path, default=None, help="CSV file with one 'x,y' pair per line (no header)"
    )
    query.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default=None,
        help="use a built-in dataset surrogate instead of --input",
    )
    query.add_argument(
        "--scale",
        type=_fraction,
        default=0.02,
        help="dataset scale when --dataset is used (default 0.02)",
    )
    query.add_argument("--epsilon", type=_epsilon, default=3.5, help="privacy budget")
    query.add_argument("--d", type=_positive_int, default=16, help="grid side length")
    query.add_argument("--mechanism", choices=("dam", "dam-ns", "huem"), default="dam")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--n-queries",
        type=_positive_int,
        default=2000,
        help="size of the generated range-query workload (default 2000)",
    )
    query.add_argument(
        "--min-fraction",
        type=float,
        default=0.05,
        help="smallest query side as a fraction of the domain",
    )
    query.add_argument(
        "--max-fraction",
        type=float,
        default=0.5,
        help="largest query side as a fraction of the domain",
    )
    query.add_argument(
        "--top-k",
        type=_non_negative_int,
        default=5,
        help="number of hotspot cells to report (0 disables)",
    )
    query.add_argument(
        "--quantiles",
        type=str,
        default="0.5,0.9",
        help="comma-separated quantile-contour levels ('' disables)",
    )
    query.add_argument(
        "--save-log",
        type=Path,
        default=None,
        help="persist the served workload as a .npz query log",
    )
    query.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="replay a previously saved query log instead of generating one",
    )

    trajectory = subparsers.add_parser(
        "trajectory", help="fit, synthesize or compare private trajectory mechanisms"
    )
    trajectory.add_argument(
        "--mode",
        choices=("compare", "fit", "synthesize"),
        default="compare",
        help="compare mechanisms (default), fit the LDPTrace model, "
             "or fit + batched synthesis",
    )
    trajectory.add_argument(
        "--input",
        type=Path,
        default=None,
        help="CSV file with one 'x,y' pair per line that seeds the "
             "trajectory workload",
    )
    trajectory.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        default=None,
        help="use a built-in dataset surrogate instead of --input",
    )
    trajectory.add_argument(
        "--scale",
        type=_fraction,
        default=0.02,
        help="dataset scale when --dataset is used (default 0.02)",
    )
    trajectory.add_argument(
        "--routing-d",
        type=_positive_int,
        default=60,
        help="side of the Appendix-D routing grid (default 60)",
    )
    trajectory.add_argument(
        "--n-trajectories",
        type=_positive_int,
        default=200,
        help="number of generated input trajectories (default 200)",
    )
    trajectory.add_argument(
        "--max-length",
        type=_positive_int,
        default=40,
        help="maximum trajectory length (default 40)",
    )
    trajectory.add_argument("--epsilon", type=_epsilon, default=1.5, help="privacy budget")
    trajectory.add_argument("--d", type=_positive_int, default=12, help="analysis grid side length")
    trajectory.add_argument(
        "--mechanism",
        choices=("ldptrace", "pivottrace", "dam", "all"),
        default="all",
        help="mechanism(s) for --mode compare (default all)",
    )
    trajectory.add_argument(
        "--n-output",
        type=_non_negative_int,
        default=None,
        help="number of synthesized trajectories "
             "(default: same as the input set)",
    )
    trajectory.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="shard LDP report collection over this many worker "
             "processes (default 1; numbers are worker-invariant)",
    )
    trajectory.add_argument(
        "--top-k",
        type=_non_negative_int,
        default=5,
        help="OD/transition hotspots printed after synthesis "
             "(0 disables)",
    )
    trajectory.add_argument(
        "--save-output",
        type=Path,
        default=None,
        help="write synthesized trajectories as CSV rows of "
             "'trajectory_id,x,y'",
    )
    trajectory.add_argument("--seed", type=int, default=0)

    stream = subparsers.add_parser(
        "stream", help="run the sliding-window streaming service on a drifting scenario"
    )
    stream.add_argument(
        "--workload",
        choices=("point", "trajectory"),
        default="point",
        help="stream point reports through the EM service or trajectory "
             "reports through the LDPTrace service (default point)",
    )
    stream.add_argument(
        "--scenario",
        choices=sorted(DRIFT_SCENARIOS) + sorted(TRAJECTORY_DRIFT_SCENARIOS),
        default=None,
        help="drift shape of the generated stream (default shifting-hotspot "
             "for --workload point, commute-shift for --workload trajectory)",
    )
    stream.add_argument(
        "--epochs",
        type=_positive_int,
        default=20,
        help="number of collection epochs in the stream (default 20)",
    )
    stream.add_argument(
        "--users-per-epoch",
        type=_positive_int,
        default=2000,
        help="reports arriving per epoch (point workload; default 2000)",
    )
    stream.add_argument(
        "--trajectories-per-epoch",
        type=_positive_int,
        default=500,
        help="trajectories arriving per epoch (trajectory workload; default 500)",
    )
    stream.add_argument(
        "--max-length",
        type=_positive_int,
        default=30,
        help="maximum trajectory length in the generated stream "
             "(trajectory workload; default 30)",
    )
    stream.add_argument(
        "--n-synthetic",
        type=_positive_int,
        default=500,
        help="synthetic trajectories published per epoch "
             "(trajectory workload; default 500)",
    )
    stream.add_argument(
        "--window",
        type=_positive_int,
        default=8,
        help="sliding-window length in epochs (default 8)",
    )
    stream.add_argument(
        "--decay",
        type=_fraction,
        default=None,
        help="optional exponential decay in (0, 1] applied per slide "
             "(default: hard window, no decay)",
    )
    stream.add_argument("--epsilon", type=_epsilon, default=3.5, help="privacy budget")
    stream.add_argument("--d", type=_positive_int, default=16, help="grid side length")
    stream.add_argument("--mechanism", choices=("dam", "dam-ns", "huem"), default="dam")
    stream.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="privatize each epoch's shards on this many worker "
             "processes (bit-identical to the serial run; default 1)",
    )
    stream.add_argument(
        "--cold-start", action="store_true", help="disable the warm-started re-solve (ablation)"
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--save-log",
        type=Path,
        default=None,
        help="persist the session (config + per-epoch records) as a "
             "replayable JSON log",
    )
    stream.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="re-run the exact configuration of a saved session log "
             "and diff the two sessions",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run sustained concurrent ingest+serve over a shared-memory snapshot",
    )
    serve.add_argument(
        "--scenario",
        choices=sorted(DRIFT_SCENARIOS),
        default="shifting-hotspot",
        help="drift shape of the generated stream (default shifting-hotspot)",
    )
    serve.add_argument(
        "--epochs",
        type=_positive_int,
        default=6,
        help="number of ingest epochs to serve through (default 6)",
    )
    serve.add_argument(
        "--users-per-epoch",
        type=_positive_int,
        default=2000,
        help="reports arriving per epoch (default 2000)",
    )
    serve.add_argument(
        "--window",
        type=_positive_int,
        default=4,
        help="sliding-window length in epochs (default 4)",
    )
    serve.add_argument(
        "--decay",
        type=_fraction,
        default=None,
        help="optional exponential decay in (0, 1] applied per slide",
    )
    serve.add_argument("--epsilon", type=_epsilon, default=3.5, help="privacy budget")
    serve.add_argument("--d", type=_positive_int, default=16, help="grid side length")
    serve.add_argument("--mechanism", choices=("dam", "dam-ns", "huem"), default="dam")
    serve.add_argument(
        "--serve-workers",
        type=_positive_int,
        default=2,
        help="serving worker processes answering queries (default 2)",
    )
    serve.add_argument(
        "--queries-per-epoch",
        type=_positive_int,
        default=20_000,
        help="range queries served between consecutive publishes (default 20000)",
    )
    serve.add_argument(
        "--batch-rows",
        type=_positive_int,
        default=4096,
        help="rows per admitted query batch / coalesced worker task (default 4096)",
    )
    serve.add_argument(
        "--min-fraction",
        type=float,
        default=0.05,
        help="smallest query side as a fraction of the domain",
    )
    serve.add_argument(
        "--max-fraction",
        type=float,
        default=0.5,
        help="largest query side as a fraction of the domain",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="expose the serving tier over HTTP/1.1 at this address and route "
             "the query workload through it (port 0 picks a free port)",
    )

    lint = subparsers.add_parser(
        "lint", help="run the repro.analysis static-analysis rules over source paths"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: src benchmarks)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE_ID",
        help="run only this rule id (repeatable); default: all rules",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format (default text)"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the registered rule ids and exit"
    )
    return parser


def _load_points(args) -> np.ndarray:
    if args.input is not None and args.dataset is not None:
        raise SystemExit("use either --input or --dataset, not both")
    if args.input is not None:
        points = np.loadtxt(args.input, delimiter=",", ndmin=2)
        if points.shape[1] != 2:
            raise SystemExit(f"expected two columns (x,y) in {args.input}")
        return points
    dataset_name = args.dataset or "Normal"
    dataset = load_dataset(dataset_name, scale=args.scale, seed=args.seed)
    return np.vstack([points for _, points, _ in dataset.parts])


def _run_estimate(args) -> int:
    points = _load_points(args)
    pipeline = ParallelPipeline(
        SpatialDomain.from_points(points, relative_pad=1e-9),
        args.d,
        args.epsilon,
        mechanism=args.mechanism,
        workers=args.workers,
        shard_size=args.chunk_size or DEFAULT_SHARD_SIZE,
    )
    result = pipeline.run(points, seed=args.seed)
    error = wasserstein2_auto(result.true_distribution, result.estimate)
    print(f"users: {result.n_users}   mechanism: {result.mechanism}   "
          f"epsilon: {args.epsilon}   d: {args.d}   b_hat: {result.b_hat}")
    print(f"W2(true, estimate) = {error:.4f}")
    if args.heatmap:
        print(
            side_by_side(
                ascii_heatmap(result.true_distribution.probabilities, title="true"),
                ascii_heatmap(result.estimate.probabilities, title="estimated"),
            )
        )
    else:
        np.set_printoptions(precision=4, suppress=True)
        print(result.estimate.probabilities)
    return 0


def _run_query(args) -> int:
    points = _load_points(args)
    result = estimate_spatial_distribution(
        points,
        epsilon=args.epsilon,
        d=args.d,
        mechanism=args.mechanism,
        seed=args.seed,
    )
    engine = QueryEngine(result.estimate)
    domain = result.estimate.grid.domain
    if args.replay is not None:
        log = QueryLog.load(args.replay)
    else:
        levels = [float(v) for v in args.quantiles.split(",") if v.strip()]
        log = QueryLog.random(
            domain,
            n_range=args.n_queries,
            n_top_k=1 if args.top_k > 0 else 0,
            n_quantiles=len(levels),
            n_marginals=1,
            min_fraction=args.min_fraction,
            max_fraction=args.max_fraction,
            seed=args.seed,
        )
        if levels:
            log.quantile_levels = np.asarray(levels, dtype=float)
        if args.top_k > 0:
            log.top_k = np.asarray([args.top_k], dtype=np.int64)
    if args.save_log is not None:
        log.save(args.save_log)
        print(f"wrote {args.save_log}")

    report, answers = WorkloadReplay(engine).replay(log)
    print(f"users: {result.n_users}   mechanism: {result.mechanism}   "
          f"epsilon: {args.epsilon}   d: {args.d}")
    print(report.format())

    if "range_mass" in answers:
        # Accuracy against the raw (pre-privatization) points, the range-query metric
        # of the HIO/HDG/AHEAD literature.
        in_domain = points[domain.contains(points)]
        workload = RangeQueryWorkload(
            queries=[RangeQuery(*row) for row in log.range_queries]
        )
        errors = np.abs(answers["range_mass"] - workload.true_answers(in_domain))
        print(f"range-query MAE vs raw points: {errors.mean():.4f}   "
              f"p95: {np.quantile(errors, 0.95):.4f}")
    if "top_k" in answers and answers["top_k"]:
        hotspots = answers["top_k"][-1]
        print("hotspots (mass @ centre):")
        for mass, centre in zip(hotspots.masses, hotspots.centers):
            print(f"  {mass:.4f} @ ({centre[0]:.3f}, {centre[1]:.3f})")
    if "quantiles" in answers:
        for contour in answers["quantiles"]:
            print(f"{contour.level:.0%} of mass concentrates in {contour.n_cells} "
                  f"of {engine.grid.n_cells} cells")
    return 0


def _generate_trajectory_workload(args):
    points = _load_points(args)
    domain = SpatialDomain.from_points(points, relative_pad=1e-9)
    dataset = generate_trajectories(
        points,
        domain,
        routing_d=args.routing_d,
        n_trajectories=args.n_trajectories,
        max_length=args.max_length,
        seed=args.seed,
    )
    lengths = dataset.lengths()
    print(f"workload: {dataset.size} trajectories   "
          f"lengths {lengths.min()}..{lengths.max()} (mean {lengths.mean():.1f})   "
          f"points: {dataset.all_points().shape[0]}")
    return dataset, domain


def _print_model_summary(model, grid) -> None:
    lengths = model.length_distribution
    starts = model.start_distribution
    directions = model.direction_distribution
    print(f"length distribution over {lengths.shape[0]} buckets "
          f"(spanning [{model.length_buckets[0]:.0f}, {model.length_buckets[-1]:.0f}]):")
    print("  " + " ".join(f"{p:.3f}" for p in lengths))
    top = np.argsort(starts)[::-1][:5]
    print("top start cells (mass @ row,col):")
    for cell in top:
        print(f"  {starts[cell]:.4f} @ ({cell // grid.d}, {cell % grid.d})")
    print("direction distribution (row-major 3x3, centre = stay):")
    for row in range(3):
        print("  " + " ".join(f"{directions[row * 3 + col]:.3f}" for col in range(3)))


def _run_trajectory(args) -> int:
    dataset, domain = _generate_trajectory_workload(args)

    if args.mode == "compare":
        names = (
            ("ldptrace", "pivottrace", "dam")
            if args.mechanism == "all"
            else (args.mechanism,)
        )
        print(f"epsilon: {args.epsilon}   d: {args.d}   "
              f"(trajectory point-density W2, lower is better)")
        for name in names:
            start = time.perf_counter()
            result = compare_trajectory_mechanism(
                name,
                dataset.trajectories,
                domain,
                args.d,
                args.epsilon,
                seed=args.seed,
                workers=args.workers,
            )
            elapsed = time.perf_counter() - start
            print(f"  {result.mechanism:<11} W2 = {result.w2:.4f}   ({elapsed:.2f} s)")
        return 0

    grid = GridSpec(domain, args.d)
    engine = TrajectoryEngine.build(grid, args.epsilon, max_length=args.max_length)
    start = time.perf_counter()
    model = engine.fit(dataset.trajectories, seed=args.seed, workers=args.workers)
    fit_seconds = time.perf_counter() - start
    fit_rate = dataset.size / fit_seconds if fit_seconds > 0 else float("inf")
    print(f"fit: {dataset.size} trajectories in {fit_seconds:.3f} s "
          f"({fit_rate:,.0f} trajectories/s)   "
          f"epsilon: {args.epsilon}   d: {args.d}   workers: {args.workers}")
    if args.mode == "fit":
        _print_model_summary(model, grid)
        return 0

    count = dataset.size if args.n_output is None else args.n_output
    start = time.perf_counter()
    synthetic = engine.synthesize(model, count, seed=args.seed + 1)
    synth_seconds = time.perf_counter() - start
    rate = count / synth_seconds if synth_seconds > 0 else float("inf")
    print(f"synthesized {count} trajectories in {synth_seconds:.3f} s "
          f"({rate:,.0f} trajectories/s)")
    if synthetic:
        true_distribution = trajectory_point_distribution(dataset.trajectories, grid)
        serving = TrajectoryQueryEngine(synthetic, grid)
        w2 = wasserstein2_auto(true_distribution, serving.estimate)
        print(f"point-density W2 vs input trajectories: {w2:.4f}")
        if args.top_k > 0:
            od = serving.od_top_k(args.top_k)
            print("top origin->destination cells (count: row,col -> row,col):")
            for from_cell, to_cell, n in zip(od.from_cells, od.to_cells, od.counts):
                print(f"  {n:5.0f}: ({from_cell // grid.d}, {from_cell % grid.d}) -> "
                      f"({to_cell // grid.d}, {to_cell % grid.d})")
            counts, edges = serving.length_histogram(bins=8)
            print("length histogram: " + " ".join(
                f"[{lo:.0f},{hi:.0f}):{n}"
                for lo, hi, n in zip(edges[:-1], edges[1:], counts)
            ))
    if args.save_output is not None:
        rows = np.vstack([
            np.column_stack([np.full(t.shape[0], i, dtype=float), t])
            for i, t in enumerate(synthetic)
        ]) if synthetic else np.empty((0, 3))
        np.savetxt(args.save_output, rows, delimiter=",", fmt="%.10g")
        print(f"wrote {args.save_output}")
    return 0


def _stream_session(config: dict) -> tuple[dict, list[dict]]:
    """Run one streaming session from a plain config dict; return (config, records).

    The config is everything needed to reproduce the session exactly (scenario,
    sizes, budget, seed, ...), which is what makes the JSON logs replayable.
    """
    stream = DRIFT_SCENARIOS[config["scenario"]](
        n_epochs=config["epochs"],
        users_per_epoch=config["users_per_epoch"],
        seed=config["seed"],
    )
    service = StreamingEstimationService.build(
        stream.domain,
        config["d"],
        config["epsilon"],
        mechanism=config["mechanism"],
        workers=config["workers"],
        window_epochs=config["window"],
        decay=config["decay"],
        warm_start=config["warm_start"],
        seed=config["seed"] + 1,
    )
    records = []
    for points in stream.epochs:
        update = service.ingest_epoch(points)
        truth = service.window.true_distribution()
        mae = float(np.abs(update.estimate.flat() - truth.flat()).mean())
        records.append(
            {
                "epoch": update.epoch,
                "n_users_epoch": update.n_users_epoch,
                "n_users_window": update.n_users_window,
                "iterations": update.iterations,
                "log_likelihood": update.log_likelihood,
                "mae": mae,
                "slide_ms": (update.slide_seconds + update.solve_seconds) * 1e3,
            }
        )
    return config, records


def _stream_trajectory_session(config: dict) -> tuple[dict, list[dict]]:
    """Run one trajectory streaming session from a plain config dict.

    The trajectory twin of :func:`_stream_session`: drives the
    :class:`~repro.streaming.StreamingTrajectoryService` over a drifting movement
    scenario and scores each published release's point density against the
    (non-private) surviving window of input trajectories.
    """
    stream = TRAJECTORY_DRIFT_SCENARIOS[config["scenario"]](
        n_epochs=config["epochs"],
        trajectories_per_epoch=config["trajectories_per_epoch"],
        max_length=config["max_length"],
        seed=config["seed"],
    )
    service = StreamingTrajectoryService.build(
        stream.domain,
        config["d"],
        config["epsilon"],
        max_length=config["max_length"],
        window_epochs=config["window"],
        decay=config["decay"],
        n_synthetic=config["n_synthetic"],
        workers=config["workers"],
        seed=config["seed"] + 1,
    )
    records = []
    for epoch_index, trajectories in enumerate(stream.epochs):
        update = service.ingest_epoch(trajectories)
        truth = trajectory_point_distribution(
            stream.window_trajectories(epoch_index, config["window"]), service.grid
        )
        w2 = wasserstein2_auto(service.serving.estimate, truth)
        records.append(
            {
                "epoch": update.epoch,
                "n_users_epoch": update.n_users_epoch,
                "n_users_window": update.n_users_window,
                "w2": float(w2),
                "slide_ms": (update.slide_seconds + update.refresh_seconds) * 1e3,
                "publish_ms": update.publish_seconds * 1e3,
            }
        )
    return config, records


def _run_stream(args) -> int:
    scenarios = DRIFT_SCENARIOS if args.workload == "point" else TRAJECTORY_DRIFT_SCENARIOS
    scenario = args.scenario
    if scenario is None:
        scenario = "shifting-hotspot" if args.workload == "point" else "commute-shift"
    if scenario not in scenarios:
        raise SystemExit(
            f"--scenario {scenario} belongs to the other workload; "
            f"--workload {args.workload} offers: {', '.join(sorted(scenarios))}"
        )
    if args.replay is not None:
        config = json.loads(Path(args.replay).read_text())["config"]
        # Logs from before the disk operator became the only transition path carry
        # the path they ran on.  The dense row sampler draws different reports from
        # the same seed, so such a session cannot be re-run; refuse it rather than
        # report its drift as a replay failure.
        if config.get("backend", "operator") != "operator":
            raise SystemExit(
                f"{args.replay}: the log was saved with \"backend\": "
                f"{json.dumps(config['backend'])}; only \"operator\" sessions can be "
                "replayed"
            )
    elif args.workload == "point":
        config = {
            "workload": "point",
            "scenario": scenario,
            "epochs": args.epochs,
            "users_per_epoch": args.users_per_epoch,
            "window": args.window,
            "decay": args.decay,
            "epsilon": args.epsilon,
            "d": args.d,
            "mechanism": args.mechanism,
            "workers": args.workers,
            "warm_start": not args.cold_start,
            "seed": args.seed,
        }
    else:
        config = {
            "workload": "trajectory",
            "scenario": scenario,
            "epochs": args.epochs,
            "trajectories_per_epoch": args.trajectories_per_epoch,
            "max_length": args.max_length,
            "n_synthetic": args.n_synthetic,
            "window": args.window,
            "decay": args.decay,
            "epsilon": args.epsilon,
            "d": args.d,
            "workers": args.workers,
            "seed": args.seed,
        }
    # Logs written before the trajectory workload existed carry no key: point.
    workload = config.get("workload", "point")
    if workload == "point":
        size = f"{config['epochs']} x {config['users_per_epoch']} users"
    else:
        size = f"{config['epochs']} x {config['trajectories_per_epoch']} trajectories"
    print(f"workload: {workload}   scenario: {config['scenario']}   epochs: {size}"
          f"   window: {config['window']} epochs"
          + (f"   decay: {config['decay']}" if config["decay"] else "")
          + f"   epsilon: {config['epsilon']}   d: {config['d']}   "
          f"workers: {config['workers']}")
    start = time.perf_counter()
    if workload == "point":
        config, records = _stream_session(config)
    else:
        config, records = _stream_trajectory_session(config)
    elapsed = time.perf_counter() - start
    if workload == "point":
        print(f"{'epoch':>5} {'users(win)':>11} {'EM iters':>8} {'MAE':>9} {'slide ms':>9}")
        for record in records:
            print(f"{record['epoch']:>5} {record['n_users_window']:>11.0f} "
                  f"{record['iterations']:>8} {record['mae']:>9.5f} "
                  f"{record['slide_ms']:>9.2f}")
        mean_mae = float(np.mean([r["mae"] for r in records]))
        total_iterations = sum(r["iterations"] for r in records)
        print(f"mean MAE: {mean_mae:.5f}   total EM iterations: {total_iterations}   "
              f"{len(records) / elapsed:.1f} epochs/s")
    else:
        print(f"{'epoch':>5} {'users(win)':>11} {'W2':>9} {'slide ms':>9} {'publish ms':>10}")
        for record in records:
            print(f"{record['epoch']:>5} {record['n_users_window']:>11.0f} "
                  f"{record['w2']:>9.4f} {record['slide_ms']:>9.2f} "
                  f"{record['publish_ms']:>10.2f}")
        mean_w2 = float(np.mean([r["w2"] for r in records]))
        print(f"mean W2: {mean_w2:.4f}   {len(records) / elapsed:.1f} epochs/s")
    if args.replay is not None:
        logged = json.loads(Path(args.replay).read_text())["epochs"]
        if len(logged) != len(records):
            raise SystemExit(
                f"replay mismatch: log has {len(logged)} epochs, session produced "
                f"{len(records)}"
            )
        if workload == "point":
            max_drift = max(
                abs(new["mae"] - old["mae"]) for new, old in zip(records, logged)
            )
            iterations_match = all(
                new["iterations"] == old["iterations"]
                for new, old in zip(records, logged)
            )
            print(f"replay of {args.replay}: max |MAE - logged| = {max_drift:.2e}   "
                  f"iterations {'identical' if iterations_match else 'DIFFER'}")
        else:
            max_drift = max(
                abs(new["w2"] - old["w2"]) for new, old in zip(records, logged)
            )
            print(f"replay of {args.replay}: max |W2 - logged| = {max_drift:.2e}")
    if args.save_log is not None:
        args.save_log.write_text(
            json.dumps({"config": config, "epochs": records}, indent=2) + "\n"
        )
        print(f"wrote {args.save_log}")
    return 0


def _run_figure(args) -> int:
    config = smoke_config() if args.profile == "smoke" else laptop_config()
    config = config.with_overrides(
        workers=args.workers,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
    )
    if args.name == "fig13":
        sweeps = figure13_full_domain(config)
        for key, sweep in sweeps.items():
            print(f"\n[{key}]")
            print(format_sweep(sweep))
        return 0
    sweep = _FIGURES[args.name](config)
    print(format_sweep(sweep))
    if args.markdown:
        print()
        print(sweep_to_markdown(sweep))
    if args.csv is not None:
        sweep_to_csv(sweep, args.csv)
        print(f"wrote {args.csv}")
    if args.json is not None:
        sweep_to_json(sweep, args.json)
        print(f"wrote {args.json}")
    return 0


def _run_serve(args) -> int:
    # Imported here: the serving tier pulls in multiprocessing machinery that
    # the other (single-process) subcommands never need.
    from repro.serving import ServingServer

    http_host = http_port = None
    if args.http is not None:
        http_host, _, port_text = args.http.rpartition(":")
        if not http_host or not port_text.isdigit():
            raise SystemExit("--http must be HOST:PORT (e.g. 127.0.0.1:8080)")
        http_port = int(port_text)

    stream = DRIFT_SCENARIOS[args.scenario](
        n_epochs=args.epochs,
        users_per_epoch=args.users_per_epoch,
        seed=args.seed,
    )
    grid = GridSpec(stream.domain, args.d)
    print(f"scenario: {args.scenario}   epochs: {args.epochs} x "
          f"{args.users_per_epoch} users   window: {args.window} epochs   "
          f"epsilon: {args.epsilon}   d: {args.d}   "
          f"serve workers: {args.serve_workers}   "
          f"queries/epoch: {args.queries_per_epoch}")
    with ServingServer(
        grid, workers=args.serve_workers, coalesce_rows=args.batch_rows
    ) as server:
        service = StreamingEstimationService.build(
            stream.domain,
            args.d,
            args.epsilon,
            mechanism=args.mechanism,
            window_epochs=args.window,
            decay=args.decay,
            seed=args.seed + 1,
            snapshot_writer=server.writer,
        )
        server.start()
        front = client = None
        if args.http is not None:
            from repro.serving import HttpQueryClient, HttpServingFront
            from repro.serving.wire import QueryKind, QueryRequest

            front = HttpServingFront(server, host=http_host, port=http_port).start()
            client = HttpQueryClient(front.host, front.port)
            print(f"HTTP front listening on {front.address}")

        def serve_rows(rows: np.ndarray) -> np.ndarray:
            """One served batch — over HTTP when a front is up, else in-process."""
            if client is None:
                return server.range_mass(rows)
            response = client.query(
                QueryRequest(QueryKind.RANGE_MASS, {"queries": rows.tolist()})
            )
            return np.asarray(response.result)

        try:
            workload_rng = np.random.default_rng(args.seed + 2)
            print(f"{'epoch':>5} {'EM iters':>8} {'queries/s':>12} "
                  f"{'p50 ms':>9} {'p99 ms':>9} {'gen':>5}")
            total_queries = 0
            total_seconds = 0.0
            last_log = None
            for points in stream.epochs:
                update = service.ingest_epoch(points)
                log = QueryLog.random(
                    stream.domain,
                    n_range=args.queries_per_epoch,
                    min_fraction=args.min_fraction,
                    max_fraction=args.max_fraction,
                    seed=workload_rng,
                )
                last_log = log
                batches = np.array_split(
                    log.range_queries,
                    max(1, -(-log.range_queries.shape[0] // args.batch_rows)),
                )
                latencies = np.empty(len(batches))
                for index, batch in enumerate(batches):
                    start = time.perf_counter()
                    serve_rows(batch)
                    latencies[index] = time.perf_counter() - start
                elapsed = float(latencies.sum())
                total_queries += log.range_queries.shape[0]
                total_seconds += elapsed
                rate = (
                    log.range_queries.shape[0] / elapsed if elapsed > 0 else float("inf")
                )
                print(f"{update.epoch:>5} {update.iterations:>8} {rate:>12,.0f} "
                      f"{np.quantile(latencies, 0.5) * 1e3:>9.3f} "
                      f"{np.quantile(latencies, 0.99) * 1e3:>9.3f} "
                      f"{server.generation:>5}")
            # Verification: re-serve the final epoch's workload and diff against
            # the in-process serial engine on the same published window.
            served = serve_rows(last_log.range_queries)
            serial = service.serving.snapshot().range_mass(last_log.range_queries)
            identical = bool(np.array_equal(served, serial))
            rate = total_queries / total_seconds if total_seconds > 0 else float("inf")
            surface = "HTTP front" if client is not None else "worker"
            print(f"served {total_queries} queries across {args.epochs} publishes "
                  f"at {rate:,.0f} queries/s aggregate")
            print(f"{surface} answers bit-identical to in-process engine: "
                  f"{'yes' if identical else 'NO'}")
            if not identical:
                return 1
        finally:
            if client is not None:
                client.close()
            if front is not None:
                front.stop()
    return 0


def _run_lint(args) -> int:
    # Imported lazily: linting is a dev workflow and the analysis package pulls
    # in nothing heavy, but keeping it out of the hot CLI paths is free.
    from repro.analysis import get_rules, lint_paths, render_json, render_text

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.rule_id:<18} {rule.description}")
        return 0
    paths = args.paths or [Path("src"), Path("benchmarks")]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        raise SystemExit(f"no such path(s): {', '.join(missing)}")
    try:
        findings = lint_paths(paths, rule_ids=args.rule)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    if args.format == "json":
        sys.stdout.write(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the tests."""
    args = build_parser().parse_args(argv)
    if args.command == "estimate":
        return _run_estimate(args)
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "trajectory":
        return _run_trajectory(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
