"""Shared-memory snapshot publication: the seqlock under the serving tier.

A long-lived deployment has one *publisher* (the streaming ingest loop) and N
*serving workers* in separate processes.  Pickling the posterior into every
worker per refresh — let alone per query — would dominate the serve path, so the
current window snapshot lives in one ``multiprocessing.shared_memory`` segment
that every process maps zero-copy.  A segment is an ``int64`` header followed by
named strips; a :class:`_Layout` declares both, and the segment size and the
carve into numpy views are derived from it.  Two layouts exist:

=========  =======================  ==========================================
offset     contents                 dtype / shape
=========  =======================  ==========================================
0          header                   ``int64[4]``: generation, epoch, d, layout
32         posterior grid           ``float64 (d, d)``
32+8·d²    summed-area table        ``float64 (d+1, d+1)`` (zero-padded prefix
                                    sums, the substrate of O(1) range queries)
=========  =======================  ==========================================

That is layout v1 (:class:`SnapshotWriter` / :class:`SnapshotReader`).  Layout
v2 (:class:`TrajectorySnapshotWriter` / :class:`TrajectorySnapshotReader`)
widens the header to ``int64[8]`` — slots 4-6 carry the live row counts of the
capacity-bounded lengths, OD-pair and transition-pair strips that follow the
posterior and its table.

Consistency is a **seqlock** on the generation counter (header slot 0), written
once for both layouts:

* ``publish`` bumps the generation to an *odd* value, copies the strips, the
  row counts and the epoch label in, then bumps to the next *even* value.
* ``read`` loads the generation, answers the query off the mapped buffers, then
  re-loads the generation: if it was odd, or changed, a publish overlapped the
  read and the reader retries.  Readers never block the writer and the writer
  never blocks readers — a torn snapshot can be *computed* mid-publish but never
  *returned*.

Bit-identity: readers rebuild their engine through
:meth:`~repro.core.domain.GridDistribution.from_normalized`, which adopts the
mapped probabilities and installs the mapped summed-area table as the
cumulative cache.  Nothing is re-normalised and nothing is recomputed, so every
worker answers bit-for-bit like the publisher's serial engine at the same
generation (asserted in ``tests/serving/`` and the serving benchmark).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.queries.engine import QueryEngine, TrajectoryQueryEngine

# Header slots every layout shares; slots from _COUNTS on are layout-specific
# per-publish row counts (v2: lengths, OD pairs, transition pairs).
_GENERATION, _EPOCH, _SIDE, _LAYOUT = 0, 1, 2, 3
_COUNTS = 4
#: epoch header value meaning "no epoch label" (epochs are 0-based everywhere)
_NO_EPOCH = -1


class TornSnapshotError(RuntimeError):
    """The generation counter is stuck odd: the writer died mid-publish.

    A live publisher holds the generation odd only for the microseconds of its
    buffer copies, so a generation that sits *unchanged* on one odd value is not
    contention — it is a publisher that crashed between the two bumps, leaving
    the segment permanently torn.  ``read`` raises this after ``torn_timeout``
    seconds of no progress instead of spinning out its full read timeout, so
    serving workers surface a dead publisher as a fast, typed failure rather
    than a hang.
    """


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup responsibility.

    On Python < 3.13 every attach re-registers the segment with the
    ``multiprocessing`` resource tracker.  Under the ``spawn`` start method a
    worker owns its *own* tracker, whose exit-time cleanup would unlink a
    segment the creator still serves from — so spawn-side attaches deregister
    immediately; only the writer/arena that created a segment unlinks it.
    Under ``fork`` every process shares one tracker and the re-register is a
    set no-op, so deregistering there would instead cancel the creator's entry
    (KeyError noise when it later unlinks) — leave it alone.
    """
    segment = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() != "fork":
        try:
            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker internals vary per platform
            pass
    return segment


@dataclass(frozen=True)
class _Layout:
    """A segment's byte layout: an ``int64`` header, then named strips in order."""

    version: int
    header_slots: int
    #: ``(name, dtype, shape)`` per strip; each is mapped as attribute ``_<name>``
    strips: tuple[tuple[str, type, tuple[int, ...]], ...]

    @property
    def size_bytes(self) -> int:
        return 8 * self.header_slots + sum(
            np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in self.strips
        )

    @property
    def attributes(self) -> tuple[str, ...]:
        return ("_header", *(f"_{name}" for name, _, _ in self.strips))

    def carve(self, buffer) -> dict[str, np.ndarray]:
        """Attribute name -> numpy view over a mapped segment, for every strip."""
        header = np.ndarray((self.header_slots,), dtype=np.int64, buffer=buffer)
        views = {"_header": header}
        offset = header.nbytes
        for name, dtype, shape in self.strips:
            view = np.ndarray(shape, dtype=dtype, buffer=buffer, offset=offset)
            views[f"_{name}"] = view
            offset += view.nbytes
        return views


def _point_layout(d: int) -> _Layout:
    return _Layout(
        version=1,
        header_slots=4,
        strips=(
            ("probabilities", np.float64, (d, d)),
            ("table", np.float64, (d + 1, d + 1)),
        ),
    )


def _trajectory_layout(d: int, max_trajectories: int, max_pairs: int) -> _Layout:
    # Cell ids and counts are stored as float64 (exact for any id below 2^53),
    # so each pair table is one plain (max_pairs, 3) strip.
    tables = (
        ("lengths", np.int64, (max_trajectories,)),
        ("od", np.float64, (max_pairs, 3)),
        ("transitions", np.float64, (max_pairs, 3)),
    )
    return _Layout(version=2, header_slots=8, strips=_point_layout(d).strips + tables)


class _SegmentSpec:
    """What both spec dataclasses derive from their fields and ``layout``."""

    def grid(self) -> GridSpec:
        return GridSpec(SpatialDomain(*self.bounds, name=self.domain_name), self.d)

    @property
    def size_bytes(self) -> int:
        return self.layout.size_bytes


@dataclass(frozen=True)
class SnapshotSpec(_SegmentSpec):
    """Everything a worker process needs to map a snapshot segment (layout v1).

    Plain strings and floats only, so the spec is cheap to pickle into worker
    processes; the grid geometry rides along because the buffers alone cannot
    reconstruct the domain bounds.
    """

    name: str
    d: int
    bounds: tuple[float, float, float, float]
    domain_name: str = ""

    @property
    def layout(self) -> _Layout:
        return _point_layout(self.d)


@dataclass(frozen=True)
class TrajectorySnapshotSpec(_SegmentSpec):
    """Worker-side description of a trajectory snapshot segment (layout v2).

    ``max_trajectories`` / ``max_pairs`` are the segment's fixed table
    capacities: a publish carrying more rows than the segment was created for
    is rejected at the writer, never silently truncated.
    """

    name: str
    d: int
    bounds: tuple[float, float, float, float]
    max_trajectories: int
    max_pairs: int
    domain_name: str = ""

    @property
    def layout(self) -> _Layout:
        return _trajectory_layout(self.d, self.max_trajectories, self.max_pairs)


class _SeqlockWriter:
    """The publisher's half of the seqlock, for any layout.

    Creates and owns the segment (closing unlinks it) and maps ``_header`` plus
    one ``_<name>`` view per strip.  Subclasses validate their payload and hand
    the strips to :meth:`_publish`, which is the one seqlock write.
    """

    def __init__(self, grid: GridSpec, layout: _Layout, name: str | None) -> None:
        self.grid = grid
        self._layout = layout
        self._shm = shared_memory.SharedMemory(create=True, size=layout.size_bytes, name=name)
        vars(self).update(layout.carve(self._shm.buf))  # self._header, self._<strip>...
        self._header[:_COUNTS] = (0, _NO_EPOCH, grid.d, layout.version)
        self._closed = False

    @property
    def generation(self) -> int:
        """The current generation (even = consistent, odd = publish in progress)."""
        return int(self._header[_GENERATION])

    @property
    def epoch(self) -> int | None:
        """Epoch label of the current snapshot (``None`` before a labelled publish)."""
        epoch = int(self._header[_EPOCH])
        return None if epoch == _NO_EPOCH else epoch

    def _publish(
        self, grid: GridSpec, epoch: int | None, *, counts: tuple[int, ...] = (), **strips
    ) -> int:
        """Validate, then copy ``strips`` (name -> leading rows) in; returns the generation.

        The seqlock write: generation goes odd, the strips, the header row
        ``counts`` and the epoch label are copied, generation goes even.
        Readers that overlapped the copy observe the odd/changed generation and
        retry.  A strip with more rows than the segment holds is rejected,
        never silently truncated.
        """
        if self._closed:
            raise RuntimeError("snapshot writer is closed")
        if grid.d != self.grid.d or grid.domain.bounds != self.grid.domain.bounds:
            raise ValueError(
                f"published grid (d={grid.d}, bounds={grid.domain.bounds}) does not "
                f"match the snapshot segment (d={self.grid.d}, "
                f"bounds={self.grid.domain.bounds})"
            )
        if epoch is not None and epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        for name, rows in strips.items():
            capacity = len(getattr(self, f"_{name}"))
            if len(rows) > capacity:
                raise ValueError(
                    f"publish carries {len(rows)} {name} rows, segment capacity is {capacity}"
                )
        header = self._header
        header[_GENERATION] += 1  # odd: publish in progress
        for name, rows in strips.items():
            getattr(self, f"_{name}")[: len(rows)] = rows
        header[_COUNTS : _COUNTS + len(counts)] = counts
        header[_EPOCH] = _NO_EPOCH if epoch is None else int(epoch)
        header[_GENERATION] += 1  # even: snapshot consistent
        return int(header[_GENERATION])

    def close(self) -> None:
        """Release the mapping and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # numpy views export pointers into the mmap; drop them before closing
        # or mmap.close() raises BufferError.
        vars(self).update(dict.fromkeys(self._layout.attributes))
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _SeqlockReader:
    """A worker's half of the seqlock, for any layout.

    Attaching checks the segment's size, side and layout version against the
    spec, then maps the same views as the writer.  :meth:`read` is the one
    seqlock read loop; subclasses supply the engine it computes against
    (:meth:`_engine_view`).
    """

    def __init__(self, spec) -> None:
        layout = spec.layout
        self.spec = spec
        self._shm = attach_shared_memory(spec.name)
        if self._shm.size < layout.size_bytes:
            raise ValueError(
                f"segment {spec.name!r} is {self._shm.size} bytes, expected at "
                f"least {layout.size_bytes} for d={spec.d}"
            )
        views = layout.carve(self._shm.buf)
        side, version = int(views["_header"][_SIDE]), int(views["_header"][_LAYOUT])
        if side != spec.d or version != layout.version:
            raise ValueError(
                f"segment {spec.name!r} holds d={side} layout v{version}, expected "
                f"d={spec.d} layout v{layout.version}"
            )
        vars(self).update(views)  # self._header, self._<strip>...
        self._layout = layout
        self.grid = spec.grid()
        #: seqlock retries observed so far (throwaway reads that overlapped a
        #: publish); exposed for the protocol tests and the benchmark traces
        self.retries = 0

    def _engine_view(self) -> QueryEngine:
        """The engine a read computes against, over the mapped views."""
        raise NotImplementedError

    @property
    def generation(self) -> int:
        if self._header is None:
            raise RuntimeError("snapshot reader is closed")
        return int(self._header[_GENERATION])

    @property
    def ready(self) -> bool:
        """Whether at least one complete snapshot has been published."""
        return self.generation >= 2

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the first publish completes (readers may attach before it)."""
        deadline = time.monotonic() + timeout
        while not self.ready:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"no snapshot published to {self.spec.name!r} within {timeout}s"
                )
            time.sleep(1e-4)

    def read(self, fn, *, timeout: float = 30.0, torn_timeout: float = 1.0):
        """Run ``fn(engine)`` against one consistent snapshot.

        Returns ``(result, generation, epoch)``.  The seqlock read: load the
        generation, compute, re-load — odd or changed means a publish overlapped
        and the result is discarded and recomputed.  ``fn`` must be a pure read
        of the engine (it may run more than once) and must materialise its
        result: views into the mapped tables may be overwritten by a later
        publish.

        A generation that sits *unchanged* on one odd value is a writer that
        died between its two bumps, not contention, and no amount of retrying
        recovers it; after ``torn_timeout`` seconds without progress the read
        raises :class:`TornSnapshotError` instead of burning the full
        ``timeout``.
        """
        header = self._header
        if header is None:
            raise RuntimeError("snapshot reader is closed")
        if torn_timeout <= 0:
            raise ValueError(f"torn_timeout must be positive, got {torn_timeout}")
        deadline = time.monotonic() + timeout
        torn_generation = -1
        torn_deadline = 0.0
        while True:
            generation = int(header[_GENERATION])
            if generation >= 2 and generation % 2 == 0:
                torn_generation = -1
                epoch = int(header[_EPOCH])
                result = fn(self._engine_view())
                if int(header[_GENERATION]) == generation:
                    return result, generation, (None if epoch == _NO_EPOCH else epoch)
                self.retries += 1
            elif generation % 2 == 1:
                now = time.monotonic()
                if generation != torn_generation:
                    # First sight of this odd value: (re)arm the torn clock.
                    torn_generation = generation
                    torn_deadline = now + torn_timeout
                elif now > torn_deadline:
                    raise TornSnapshotError(
                        f"segment {self.spec.name!r} stuck at odd generation "
                        f"{generation} for {torn_timeout}s — the writer died "
                        f"mid-publish and the snapshot is torn"
                    )
                # A publish-in-flight resolves in microseconds; back off a touch
                # so a torn wait does not hot-spin a core.
                time.sleep(1e-5)
            else:  # generation 0: nothing published yet
                time.sleep(1e-4)
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"no consistent snapshot read from {self.spec.name!r} within "
                    f"{timeout}s (generation {generation})"
                )

    def close(self) -> None:
        """Release the mapping (idempotent; never unlinks — the writer owns it)."""
        if self._header is None:
            return
        vars(self).update(dict.fromkeys(self._layout.attributes))
        self._shm.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SnapshotWriter(_SeqlockWriter):
    """Publish window estimates into a layout-v1 segment.

    Create one per serving deployment (the grid geometry is fixed for the
    segment's lifetime), hand :attr:`spec` to the workers, then call
    :meth:`publish` once per refresh.
    """

    def __init__(self, grid: GridSpec, *, name: str | None = None) -> None:
        super().__init__(grid, _point_layout(grid.d), name)

    @property
    def spec(self) -> SnapshotSpec:
        domain = self.grid.domain
        return SnapshotSpec(
            name=self._shm.name,
            d=self.grid.d,
            bounds=domain.bounds,
            domain_name=domain.name,
        )

    def publish(self, estimate: GridDistribution, *, epoch: int | None = None) -> int:
        """Copy the posterior and its summed-area table in; returns the (even) generation."""
        return self._publish(
            estimate.grid,
            epoch,
            probabilities=estimate.probabilities,
            table=estimate.cumulative(),
        )


class SnapshotReader(_SeqlockReader):
    """Answer point queries from a mapped layout-v1 segment.

    The reader builds one zero-copy :class:`~repro.queries.engine.QueryEngine`
    over the mapped buffers at attach time; :meth:`read` wraps any engine call
    in the seqlock retry loop so its result always comes from one consistent
    (posterior, SAT, epoch) triple.
    """

    def __init__(self, spec: SnapshotSpec) -> None:
        super().__init__(spec)
        # Zero-copy rebuild: adopt the mapped probabilities and install the
        # mapped table as the cumulative cache, so the engine is bit-identical
        # to the publisher's and nothing is recomputed per attach (or per read).
        estimate = GridDistribution.from_normalized(
            self.grid, self._probabilities, cumulative=self._table
        )
        self._engine: QueryEngine | None = QueryEngine(estimate)

    def _engine_view(self) -> QueryEngine:
        return self._engine

    def pinned(
        self, *, timeout: float = 30.0, torn_timeout: float = 1.0
    ) -> tuple[QueryEngine, int, int | None]:
        """A private copy of the current snapshot: ``(engine, generation, epoch)``.

        The copy is taken inside the seqlock loop, so the returned engine is a
        consistent window that later publishes cannot touch — the cross-process
        analogue of :meth:`~repro.queries.engine.StreamingQueryEngine.snapshot`.
        """

        def copy_out(engine: QueryEngine) -> tuple[np.ndarray, np.ndarray]:
            return engine.estimate.probabilities.copy(), engine.sat.table.copy()

        (probabilities, table), generation, epoch = self.read(
            copy_out, timeout=timeout, torn_timeout=torn_timeout
        )
        estimate = GridDistribution.from_normalized(
            self.grid, probabilities, cumulative=table
        )
        return QueryEngine(estimate), generation, epoch

    def close(self) -> None:
        self._engine = None  # its estimate holds views into the mapping
        super().close()


class TrajectorySnapshotWriter(_SeqlockWriter):
    """Publish a :class:`~repro.queries.engine.TrajectoryQueryEngine` into a layout-v2 segment.

    The trajectory surface reduces to flat tables at engine construction
    (lengths, presorted OD / transition ``(from, to, count)`` triples), so the
    segment carries those tables — never the trajectories themselves — under
    the same seqlock as :class:`SnapshotWriter`.
    """

    def __init__(
        self,
        grid: GridSpec,
        *,
        max_trajectories: int,
        max_pairs: int,
        name: str | None = None,
    ) -> None:
        if max_trajectories < 1:
            raise ValueError(f"max_trajectories must be >= 1, got {max_trajectories}")
        if max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
        self.max_trajectories = max_trajectories
        self.max_pairs = max_pairs
        super().__init__(grid, _trajectory_layout(grid.d, max_trajectories, max_pairs), name)

    @property
    def spec(self) -> TrajectorySnapshotSpec:
        domain = self.grid.domain
        return TrajectorySnapshotSpec(
            name=self._shm.name,
            d=self.grid.d,
            bounds=domain.bounds,
            max_trajectories=self.max_trajectories,
            max_pairs=self.max_pairs,
            domain_name=domain.name,
        )

    def publish(self, engine: TrajectoryQueryEngine, *, epoch: int | None = None) -> int:
        """Copy the engine's posterior, SAT and trajectory tables in; returns the generation."""
        od = np.column_stack(engine._od_pairs)
        transitions = np.column_stack(engine._transition_pairs)
        return self._publish(
            engine.grid,
            epoch,
            counts=(len(engine.lengths), len(od), len(transitions)),
            probabilities=engine.estimate.probabilities,
            table=engine.sat.table,
            lengths=engine.lengths,
            od=od,
            transitions=transitions,
        )


class TrajectorySnapshotReader(_SeqlockReader):
    """Serve the full trajectory surface from a mapped layout-v2 segment.

    Unlike :class:`SnapshotReader`, the engine cannot be built once at attach
    time — the live row counts change per publish — so every read attempt
    rebuilds a :meth:`~repro.queries.engine.TrajectoryQueryEngine.from_tables`
    view inside the seqlock loop (a handful of array wraps; nothing is
    recomputed).
    """

    def _engine_view(self) -> TrajectoryQueryEngine:
        """The engine over the currently-live table rows."""
        n_lengths, n_od, n_transitions = self._header[_COUNTS : _COUNTS + 3].tolist()

        def pairs(strip: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            return (
                strip[:n, 0].astype(np.int64),
                strip[:n, 1].astype(np.int64),
                strip[:n, 2].copy(),
            )

        return TrajectoryQueryEngine.from_tables(
            self.grid,
            self._probabilities,
            self._lengths[:n_lengths],
            pairs(self._od, n_od),
            pairs(self._transitions, n_transitions),
            cumulative=self._table,
        )
