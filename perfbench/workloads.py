"""The three workloads: ``live`` ingest+serve, ``query`` serving, ``sweep`` figures.

Each workload builds its slice of the system in :meth:`setup` (timed phase by
phase on a :class:`SetupClock`), then runs one unit of closed-loop work per
:meth:`step` call until the run's deadline.  Inputs come from
:mod:`feeds` and are generated outside every timed region; every answer is
checked against a serial reference outside the timed region too.

Importing this module imports numpy but not repro: set-up time is measured
from before ``import repro``, which happens inside :meth:`setup`.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import feeds
import pinning
from answers import expected_result, same_answer
from benchstats import ThinTailError, tail_percentile
from hostspeed import CPU_WALL, KINDS, WINDOW, HostSpeed

#: ``repro serve`` defaults: two serving workers, 4096-row batches.
SERVE_WORKERS = 2
BATCH_ROWS = 4096


class SetupClock:
    """Accumulates set-up time by phase: ``import``, ``build`` and ``warmup``."""

    def __init__(self) -> None:
        self.phases = {"import": 0.0, "build": 0.0, "warmup": 0.0}

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - start

    @property
    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class Tally:
    """What one measured phase did: samples, quality values, memory and failures.

    Timed samples are wall-clock time (less steal, see :func:`seconds_since`),
    kept twice: as measured (``*_raw``) and scaled to the nominal host speed
    by an interleaved reference kernel (see :mod:`hostspeed`); metrics use
    the scaled ones.
    """

    host: HostSpeed
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    #: seconds per fine-grained operation (interactive request or sweep cell)
    op: list = field(default_factory=list)
    op_raw: list = field(default_factory=list)
    #: seconds per batch unit (ingest epoch or bulk request)
    batch: list = field(default_factory=list)
    batch_raw: list = field(default_factory=list)
    quality: list = field(default_factory=list)
    rows: int = 0
    converged: list = field(default_factory=list)
    #: sweep cell index -> scaled seconds of each run of that cell
    cells: dict = field(default_factory=dict)
    #: reference-kernel samples taken during this phase, ms, by kernel
    host_ms: dict = field(default_factory=lambda: {key: [] for key in (*KINDS, CPU_WALL)})
    #: largest :func:`tree_pss_mb` seen after a step of this phase
    peak_mb: float = 0.0

    def sample_host(self, kernel: str) -> None:
        """Time one reference kernel, right before the units it scales."""
        for kind, ms in self.host.sample(kernel).items():
            self.host_ms[kind].append(ms)

    def record(self, series: str, seconds: float, reference: str, window: int = WINDOW) -> float:
        """Keep one timed sample of ``series`` (``op`` or ``batch``); returns it scaled.

        ``reference`` names the kernel whose rolling median over its last
        ``window`` samples scales it.
        """
        scaled = seconds / self.host.factor(reference, window)
        getattr(self, series).append(scaled)
        getattr(self, f"{series}_raw").append(seconds)
        return scaled

    def sample_memory(self) -> None:
        """Read the memory of the system under test, between units of work."""
        self.peak_mb = max(self.peak_mb, tree_pss_mb())

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Tally") -> "Tally":
        merged = Tally(host=self.host, reasons=dict(self.reasons))
        merged.peak_mb = max(self.peak_mb, other.peak_mb)
        for name in ("attempted", "failed", "rows"):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        for name in ("op", "op_raw", "batch", "batch_raw", "quality", "converged"):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        for key in merged.host_ms:
            merged.host_ms[key] = self.host_ms[key] + other.host_ms[key]
        for index in {*self.cells, *other.cells}:
            merged.cells[index] = self.cells.get(index, []) + other.cells.get(index, [])
        for reason, count in other.reasons.items():
            merged.reasons[reason] = merged.reasons.get(reason, 0) + count
        return merged


#: reference kernel per HTTP series: interactive requests wait on thread
#: wake-ups and sockets, bulk requests on JSON and numpy work
REQUEST_REFERENCE = {"op": "wake", "batch": "cpu"}


def start_unit() -> tuple[float, float]:
    """``(stolen, wall)`` seconds now; steal is read first, so its read is not timed."""
    return pinning.stolen_seconds(), time.perf_counter()


def seconds_since(start: tuple[float, float], *, less_steal: bool = True) -> float:
    """Wall-clock seconds since ``start``, less the time the hypervisor stole meanwhile.

    Everything the program does in the interval counts, on any thread or
    process and blocked or not; only steal, host time that no program change
    can move, is taken out.  The steal counter ticks every 10 ms, so only
    units of tens of milliseconds or more (epochs, bulk requests, sweep
    cells) take it out; ``less_steal=False`` keeps the plain wall clock.
    """
    wall = time.perf_counter() - start[1]
    if not less_steal:
        return wall
    return wall - (pinning.stolen_seconds() - start[0])


def send(client, request, tally: Tally, series: str, tracer, root: str):
    """One timed closed-loop request; returns the response, or ``None`` on failure."""
    tally.attempted += 1
    with tracer.root(root):
        start = start_unit()
        try:
            response = client.query(request)
        except Exception as exc:  # any refusal or transport error is a failed operation
            tally.fail(f"{request.kind.value}: {type(exc).__name__}")
            return None
        # An interactive request (about 1 ms) is far shorter than a steal
        # tick; a steal burst lands in its tail, not its median.
        elapsed = seconds_since(start, less_steal=series == "batch")
    tally.record(series, elapsed, REQUEST_REFERENCE[series])
    return response


def send_interactive(client, requests, tally: Tally, tracer) -> list:
    """Send interactive requests one after another; returns ``(request, response)`` pairs."""
    return [
        (request, send(client, request, tally, "op", tracer, f"request.{request.kind.value}"))
        for request in requests
    ]


def verify(pairs, engine_for, tally: Tally, tracer, *, generation_for, epoch, replay=()):
    """Compare served answers with the serial engine, outside the timed region.

    Kinds in ``replay`` are recomputed under a ``replay.<kind>`` root span, so
    a traced run sees the compute the serving workers did out of its reach.
    """
    for request, response in pairs:
        if response is None:
            continue
        kind = request.kind.value
        scope = tracer.root(f"replay.{kind}") if kind in replay else tracer.paused()
        with scope:
            expected = expected_result(engine_for(kind), kind, request.payload)
        if not same_answer(response.result, expected):
            tally.fail(f"{kind}: answer differs from the serial engine")
        elif response.generation != generation_for(kind) or response.epoch != epoch:
            tally.fail(f"{kind}: answered from the wrong snapshot")


#: ``smaps_rollup`` fields counted: anonymous and shared-memory pages.
PSS_FIELDS = ("Pss_Anon:", "Pss_Shmem:")


def pss_mb(pid) -> float:
    """Proportional set size of one process's anonymous and shared memory, in MB.

    A page mapped by several processes counts a matching share in each:
    what a forked serving worker inherited copy-on-write and never wrote is
    split with the parent, not counted again.  File-backed pages (the code of
    the interpreter and its libraries) are left out: every process on the
    machine that maps the same file takes a share of them, so their ``Pss``
    moves with whatever else runs (an idle Python process that had imported
    numpy, scipy and repro cut the query workload's total by 10%).
    """
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(PSS_FIELDS):
                total += int(line.split()[1])
    return total / 1024.0


def tree_pss_mb() -> float:
    """Resident data of this process and its live children: their summed :func:`pss_mb`."""
    total = pss_mb("self")
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError):
            total += pss_mb(child.pid)
    return total


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean(values) -> float:
    """Mean, or NaN for an empty sample (e.g. one half of a traced run)."""
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def _p90_line(metric: str, values: list, unit: str, what: str) -> tuple[str, float, str, str]:
    """A report line for a p90, or a refusal when the tail is too thin to report."""
    try:
        return metric, tail_percentile(values, 0.9), unit, f"n={len(values)} {what}"
    except ThinTailError as exc:
        return metric, float("nan"), unit, f"refused: {exc}"


class _Serving:
    """Shared lifecycle of the two workloads that run the HTTP front."""

    server = None
    front = None
    client = None

    def http_metrics(self) -> dict:
        """The front's own ``/metrics`` document (fetched outside the timed loop)."""
        return self.client.metrics()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.front is not None:
            self.front.stop()
        if self.server is not None:
            self.server.close()


# ---------------------------------------------------------------------- live
class LiveWorkload(_Serving):
    """Streaming ingest with reads after every write (``repro serve --http``)."""

    name = "live"
    D = 16
    EPSILON = 3.5
    WINDOW = 8
    USERS = 100_000
    KINDS = ("range_mass", "point_density", "top_k", "quantiles", "marginals")
    PER_KIND = 10
    SW_DIRECTIONS = 32
    #: estimate quality is averaged over exactly one drift period after the
    #: window fills, so runs that get through more epochs score the same path
    QUALITY_EPOCHS = 2 * feeds.HOTSPOT_CROSSING_EPOCHS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.epoch = self.WINDOW

    def setup(self, clock: SetupClock) -> None:
        with clock.phase("import"):
            from repro.core.domain import GridSpec, SpatialDomain
            from repro.metrics.sliced import sliced_wasserstein
            from repro.serving import HttpQueryClient, HttpServingFront, QueryRequest
            from repro.serving import ServingServer
            from repro.streaming import StreamingEstimationService
        self._request = QueryRequest
        self._sliced = sliced_wasserstein
        with clock.phase("build"):
            domain = SpatialDomain.unit("shifting-hotspot")
            self.server = ServingServer(
                GridSpec(domain, self.D), workers=SERVE_WORKERS, coalesce_rows=BATCH_ROWS
            )
            self.service = StreamingEstimationService.build(
                domain,
                self.D,
                self.EPSILON,
                window_epochs=self.WINDOW,
                seed=np.random.default_rng([self.seed, 99]),
                snapshot_writer=self.server.writer,
            )
            self.server.start()
            self.front = HttpServingFront(self.server).start()
            self.client = HttpQueryClient(self.front.host, self.front.port)
        # Inputs are made once the serving workers have forked, so no worker
        # holds a copy-on-write copy of them.
        fill = [feeds.hotspot_epoch(self.seed, e, self.USERS) for e in range(self.WINDOW)]
        warm = feeds.interactive_requests(self.seed, self.WINDOW - 1, self.KINDS, 1)
        with clock.phase("warmup"):
            for points in fill:
                self.service.ingest_epoch(points)
            for kind, payload in warm:
                self.client.query(QueryRequest(kind, payload))

    def complete(self, tally: Tally) -> bool:
        return True

    def step(self, tally: Tally, tracer) -> None:
        epoch = self.epoch
        self.epoch += 1
        points = feeds.hotspot_epoch(self.seed, epoch, self.USERS)
        requests = [
            self._request(kind, payload)
            for kind, payload in feeds.interactive_requests(
                self.seed, epoch, self.KINDS, self.PER_KIND
            )
        ]
        tally.sample_host("cpu")
        tally.attempted += 1
        with tracer.root("epoch"):
            start = start_unit()
            try:
                update = self.service.ingest_epoch(points)
            except Exception as exc:  # a failed epoch is counted, the stream goes on
                tally.fail(f"epoch: {type(exc).__name__}")
                return
            elapsed = seconds_since(start)
        tally.record("batch", elapsed, "cpu")
        tally.converged.append(bool(update.converged))
        if epoch < self.WINDOW + self.QUALITY_EPOCHS:
            with tracer.paused():
                truth = self.service.window.true_distribution()
                tally.quality.append(
                    self._sliced(truth, update.estimate, n_projections=self.SW_DIRECTIONS)
                )
        engine = self.service.serving.snapshot()
        generation = self.server.generation
        tally.sample_host("wake")
        pairs = send_interactive(self.client, requests, tally, tracer)
        verify(
            pairs,
            lambda kind: engine,
            tally,
            tracer,
            generation_for=lambda kind: generation,
            epoch=update.epoch,
            replay=("range_mass",),
        )

    def report(self, tally: Tally) -> list[tuple[str, float, str, str]]:
        epochs = [_ms(s) for s in tally.batch]
        requests = [_ms(s) for s in tally.op]
        converged = sum(tally.converged)
        return [
            ("epoch_ms_p50", statistics.median(epochs), "ms", f"n={len(epochs)} epochs"),
            _p90_line("epoch_ms_p90", epochs, "ms", "epochs"),
            ("request_ms_p50", statistics.median(requests), "ms", f"n={len(requests)} requests"),
            _p90_line("request_ms_p90", requests, "ms", "requests"),
            ("estimate_sw", _mean(tally.quality), "1", f"n={len(tally.quality)} estimates"),
            (
                "em_converged",
                converged / max(1, len(tally.converged)),
                "1",
                f"{converged} of {len(tally.converged)} epochs (not a failure)",
            ),
        ]

    def metrics(self, tally: Tally) -> dict:
        requests = [_ms(s) for s in tally.op]
        return {
            "op_ms_p50": statistics.median(requests),
            "op_ms_p90": tail_percentile(requests, 0.9),
            "batch_ms": statistics.median(_ms(s) for s in tally.batch),
            "estimate_error": _mean(tally.quality),
        }


# --------------------------------------------------------------------- query
class QueryWorkload(_Serving):
    """Read-only serving of a static d=64 estimate and a trajectory snapshot."""

    name = "query"
    D = 64
    #: side of the raw-population histogram the bulk answers are scored against
    TRUTH_D = 256
    #: large enough that the d=256 reference histogram is not itself noisy
    USERS = 1_000_000
    TRAJECTORY_USERS = 20_000
    KINDS = (
        "range_mass",
        "point_density",
        "top_k",
        "quantiles",
        "marginals",
        "od_top_k",
        "transition_top_k",
        "length_histogram",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cycle = 0

    def setup(self, clock: SetupClock) -> None:
        points = feeds.static_population(self.seed, self.USERS)
        with clock.phase("import"):
            from repro.core.domain import GridSpec, SpatialDomain
            from repro.datasets.trajectories import generate_trajectories
            from repro.queries.engine import QueryEngine, TrajectoryQueryEngine
            from repro.serving import HttpQueryClient, HttpServingFront, QueryRequest
            from repro.serving import ServingServer, TrajectorySnapshotWriter
            from repro.serving.wire import TRAJECTORY_KINDS
        self._request = QueryRequest
        domain = SpatialDomain.unit("static")
        trajectories = generate_trajectories(
            points[: self.TRAJECTORY_USERS],
            domain,
            routing_d=80,
            n_trajectories=200,
            max_length=60,
            seed=np.random.default_rng([self.seed, 98]),
        ).trajectories
        with clock.phase("build"):
            grid = GridSpec(domain, self.D)
            estimate = grid.distribution(points)
        # The raw population is harness data: score against it, then free it
        # before the serving workers fork so that none of them keeps a copy.
        self._truth = QueryEngine(GridSpec(domain, self.TRUTH_D).distribution(points))
        del points
        with clock.phase("build"):
            self.server = ServingServer(grid, workers=SERVE_WORKERS, coalesce_rows=BATCH_ROWS)
            self.server.publish(estimate, epoch=0)
            trajectory_engine = TrajectoryQueryEngine(trajectories, grid)
            capacity = sum(len(trajectory) for trajectory in trajectories)
            self.trajectory_writer = TrajectorySnapshotWriter(
                grid, max_trajectories=len(trajectories), max_pairs=capacity
            )
            self.trajectory_writer.publish(trajectory_engine, epoch=0)
            self.server.start()
            self.front = HttpServingFront(
                self.server, trajectory_spec=self.trajectory_writer.spec
            ).start()
            self.client = HttpQueryClient(self.front.host, self.front.port)
        warm = feeds.interactive_requests(self.seed, 0, self.KINDS, 1)
        warm_rows = feeds.bulk_rows(self.seed, 0, BATCH_ROWS).tolist()
        with clock.phase("warmup"):
            for kind, payload in warm:
                self.client.query(QueryRequest(kind, payload))
            self.client.query(QueryRequest("range_mass", {"queries": warm_rows}))
        trajectory_kinds = {kind.value for kind in TRAJECTORY_KINDS}
        point_engine = QueryEngine(estimate)
        self._engine_for = (
            lambda kind: trajectory_engine if kind in trajectory_kinds else point_engine
        )
        writer, server = self.trajectory_writer, self.server
        self._generation_for = lambda kind: (
            writer.generation if kind in trajectory_kinds else server.generation
        )

    def close(self) -> None:
        super().close()
        writer = getattr(self, "trajectory_writer", None)
        if writer is not None:
            writer.close()

    def complete(self, tally: Tally) -> bool:
        return True

    def step(self, tally: Tally, tracer) -> None:
        cycle = self.cycle
        self.cycle += 1
        rows = feeds.bulk_rows(self.seed, cycle, BATCH_ROWS)
        bulk = self._request("range_mass", {"queries": rows.tolist()})
        requests = [
            self._request(kind, payload)
            for kind, payload in feeds.interactive_requests(self.seed, cycle, self.KINDS, 1)
        ]
        tally.sample_host("cpu")
        response = send(self.client, bulk, tally, "batch", tracer, "bulk")
        if response is not None:
            tally.rows += BATCH_ROWS
        tally.sample_host("wake")
        pairs = send_interactive(self.client, requests, tally, tracer)
        common = dict(generation_for=self._generation_for, epoch=0)
        verify([(bulk, response)], self._engine_for, tally, tracer, replay=("range_mass",),
               **common)
        verify(pairs, self._engine_for, tally, tracer, **common)
        if response is not None:
            with tracer.paused():
                truth = self._truth.range_mass(rows)
            tally.quality.append(float(np.abs(np.asarray(response.result) - truth).mean()))

    def report(self, tally: Tally) -> list[tuple[str, float, str, str]]:
        requests = [_ms(s) for s in tally.op]
        bulk = [_ms(s) for s in tally.batch]
        return [
            ("request_ms_p50", statistics.median(requests), "ms", f"n={len(requests)} requests"),
            _p90_line("request_ms_p90", requests, "ms", "requests"),
            ("bulk_ms_p50", statistics.median(bulk), "ms", f"n={len(bulk)} bulk requests"),
            (
                "bulk_rows_per_s",
                tally.rows / sum(tally.batch),
                "rows/s",
                f"{tally.rows} rows in {len(bulk)} bulk requests",
            ),
            ("answer_mae", _mean(tally.quality), "1", f"n={len(tally.quality)} bulk requests"),
        ]

    def metrics(self, tally: Tally) -> dict:
        requests = [_ms(s) for s in tally.op]
        return {
            "op_ms_p50": statistics.median(requests),
            "op_ms_p90": tail_percentile(requests, 0.9),
            "batch_ms": statistics.median(_ms(s) for s in tally.batch),
            "estimate_error": _mean(tally.quality),
        }


# --------------------------------------------------------------------- sweep
@dataclass(frozen=True)
class Cell:
    """One figure cell: a point cell (Figure 9 style) or a trajectory cell (Figure 14)."""

    kind: str
    mechanism: str
    dataset: str
    d: int
    epsilon: float
    seed: int


class SweepWorkload:
    """Paper reproduction as a fixed list of figure cells, run in order."""

    name = "sweep"
    MECHANISMS = ("DAM", "DAM-NS", "HUEM", "MDSW", "SEM-Geo-I")
    #: (d, epsilon) pairs; d <= 12 takes the exact LP for W2, larger d Sinkhorn.
    SETTINGS = ((5, 3.5), (10, 1.4), (15, 3.5), (20, 7.0))
    TRAJECTORY_MECHANISMS = ("ldptrace", "pivottrace", "dam")
    TRAJECTORY_DS = (10, 15, 20)
    DATASET_SCALE = 0.1
    MAX_USERS = 20_000
    #: The datasets stand in for the paper's fixed data, so they do not move
    #: with the workload seed; the seed sets every cell's privatization.
    #: (Regenerating them per seed made one d=20 Sinkhorn solve take 750
    #: iterations instead of 230 and the pass 50% longer: the seed would pick
    #: the workload.)
    DATASET_SEED = 0
    #: Reference samples in the median that scales a cell: the host's speed
    #: moves within a second, and over ten passes of identical cells in one
    #: process (two probes) the last 3 samples gave steadier pass totals and
    #: median cells than the last 9 (2.8-3.8% vs 4.3-5.0% and 2.4-4.2% vs
    #: 3.5-7.7%, quartile spread over median).
    SCALING_WINDOW = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.visits = 0
        self.cell_w2: list[float | None] = []

    def setup(self, clock: SetupClock) -> None:
        with clock.phase("import"):
            from repro.core.domain import GridSpec, SpatialDomain
            from repro.datasets.loader import DATASET_NAMES, load_dataset
            from repro.datasets.trajectories import generate_trajectories
            from repro.experiments.config import (
                TRAJECTORY_DEFAULT_EPSILON,
                laptop_trajectory_config,
            )
            from repro.experiments.runner import calibrated_sem_epsilon, evaluate_on_part
            from repro.trajectory.adapter import compare_trajectory_mechanism
        self._evaluate_on_part = evaluate_on_part
        self._compare = compare_trajectory_mechanism
        self._parts = {}
        for name in DATASET_NAMES:
            dataset = load_dataset(name, scale=self.DATASET_SCALE, seed=self.DATASET_SEED)
            _, points, domain = dataset.parts[0]
            self._parts[name] = (points[: self.MAX_USERS], domain)
        config = laptop_trajectory_config()
        nyc = load_dataset(
            "NYC", scale=config.dataset_scale, seed=self.DATASET_SEED, full_domain=True
        )
        _, points, domain = nyc.parts[0]
        self._trajectories = (
            generate_trajectories(
                points,
                domain,
                routing_d=config.routing_d,
                n_trajectories=config.n_trajectories,
                min_length=config.min_length,
                max_length=config.max_length,
                seed=np.random.default_rng([self.DATASET_SEED, 97]),
            ).trajectories,
            domain,
        )
        with clock.phase("build"):
            # Largest d first: the time left after the first pass revisits the
            # costliest cells, which set cell_ms_p90 and most of sweep_s.
            cells = [
                Cell("trajectory", mechanism, "NYC", d, TRAJECTORY_DEFAULT_EPSILON, 0)
                for d in sorted(self.TRAJECTORY_DS, reverse=True)
                for mechanism in self.TRAJECTORY_MECHANISMS
            ]
            cells += [
                Cell("point", mechanism, dataset, d, epsilon, 0)
                for d, epsilon in sorted(self.SETTINGS, reverse=True)
                for mechanism in self.MECHANISMS
                for dataset in DATASET_NAMES
            ]
            self.cells = [
                Cell(c.kind, c.mechanism, c.dataset, c.d, c.epsilon, self.seed * 1000 + i)
                for i, c in enumerate(cells)
            ]
            self.cell_w2 = [None] * len(self.cells)
        with clock.phase("warmup"):
            # SEM-Geo-I's budget calibration is cached per (d, epsilon) for the
            # life of the process; a sweep pays it once, so set-up pays it here.
            for d, epsilon in self.SETTINGS:
                calibrated_sem_epsilon(GridSpec(SpatialDomain.unit(), d), epsilon)
            # One cheap cell of each kind finishes the lazy imports (LP, LDPTrace).
            self._run(self.cells[-1])
            self._run(self.cells[len(self.TRAJECTORY_DS) * len(self.TRAJECTORY_MECHANISMS) - 1])

    def _run(self, cell: Cell) -> float:
        if cell.kind == "point":
            points, domain = self._parts[cell.dataset]
            return self._evaluate_on_part(
                cell.mechanism, points, domain, cell.d, cell.epsilon, seed=cell.seed
            )
        trajectories, domain = self._trajectories
        return self._compare(
            cell.mechanism, trajectories, domain, cell.d, cell.epsilon, seed=cell.seed
        ).w2

    def complete(self, tally: Tally) -> bool:
        return len(tally.cells) == len(self.cells)

    def step(self, tally: Tally, tracer) -> None:
        index = self.visits % len(self.cells)
        self.visits += 1
        cell = self.cells[index]
        tally.sample_host("cpu")
        tally.attempted += 1
        with tracer.root(f"cell.{cell.kind}"):
            start = start_unit()
            try:
                w2 = self._run(cell)
            except Exception as exc:  # a failed cell is counted, the sweep goes on
                tally.fail(f"cell {cell.mechanism}/{cell.dataset}/d={cell.d}: {type(exc).__name__}")
                return
            elapsed = seconds_since(start)
        if not (math.isfinite(w2) and w2 >= 0.0):
            tally.fail(f"cell {cell.mechanism}/{cell.dataset}/d={cell.d}: W2 {w2!r}")
            return
        if self.cell_w2[index] is not None and self.cell_w2[index] != w2:
            tally.fail(f"cell {cell.mechanism}/{cell.dataset}/d={cell.d}: not reproducible")
            return
        self.cell_w2[index] = w2
        scaled = tally.record("op", elapsed, "cpu", window=self.SCALING_WINDOW)
        tally.cells.setdefault(index, []).append(scaled)

    @staticmethod
    def _cell_medians_ms(tally: Tally) -> list[float]:
        return [_ms(statistics.median(times)) for times in tally.cells.values()]

    def report(self, tally: Tally) -> list[tuple[str, float, str, str]]:
        medians = self._cell_medians_ms(tally)
        w2 = [value for value in self.cell_w2 if value is not None]
        passes = f"{len(medians)} cells, {len(tally.op)} cell runs"
        return [
            ("cell_ms_p50", statistics.median(medians), "ms", passes),
            _p90_line("cell_ms_p90", medians, "ms", "cells"),
            ("sweep_s", sum(medians) / 1e3, "s", "sum of per-cell medians"),
            ("sweep_w2", statistics.fmean(w2), "1", f"n={len(w2)} cells"),
        ]

    def metrics(self, tally: Tally) -> dict:
        medians = self._cell_medians_ms(tally)
        return {
            "op_ms_p50": statistics.median(medians),
            "op_ms_p90": tail_percentile(medians, 0.9),
            "batch_ms": sum(medians),
            "estimate_error": statistics.fmean(v for v in self.cell_w2 if v is not None),
        }

    def close(self) -> None:
        pass


WORKLOADS = {
    workload.name: workload for workload in (LiveWorkload, QueryWorkload, SweepWorkload)
}
