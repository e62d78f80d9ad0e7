"""The concurrent serving tier: worker processes + an admission/batching front-end.

:class:`ServingServer` is the deployment shape ROADMAP item 1 asks for — one
publisher process running the streaming ingest loop, N long-lived worker
processes answering queries against the current window snapshot:

* **Snapshot plane** — the server owns a :class:`~repro.serving.shm.SnapshotWriter`;
  each worker maps the segment once through a
  :class:`~repro.serving.shm.SnapshotReader` and answers every query zero-copy
  under the seqlock, so :meth:`ServingServer.publish` costs one buffer copy
  regardless of worker count and no engine is ever pickled per query.
* **Admission front-end** — :meth:`submit_range_mass` admits a batch under a
  bounded pending-row budget (raising :class:`BackpressureError` instead of
  queueing unboundedly), :meth:`flush` coalesces buffered submissions into
  worker tasks of at most ``coalesce_rows`` rows (small bursts share one
  dispatch; large batches split across workers), and :meth:`collect` demuxes
  completed tasks back to per-ticket answer arrays with the generation/epoch
  each slice was answered at.
* **Staged bulk plane** — :class:`WorkloadArena` stages a large workload in its
  own shared-memory block once; :meth:`serve_staged` then dispatches ``(start,
  stop)`` row ranges, so per-task queue traffic is a few tens of bytes and the
  answers land in shared memory.  This is the path the sustained ingest+serve
  benchmark drives.

Every worker answers bit-identically to a serial
:class:`~repro.queries.engine.QueryEngine` over the same published estimate —
the grid, posterior and summed-area table are the very same bytes.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.domain import GridSpec
from repro.queries.engine import queries_to_array
from repro.serving.shm import (
    SnapshotReader,
    SnapshotSpec,
    SnapshotWriter,
    TornSnapshotError,
    attach_shared_memory,
)
from repro.serving.wire import QueryKind

# Worker task tags.  Range tasks reuse the wire vocabulary (one kind string
# across HTTP, replay and the task queue); staged tasks are an execution plane
# of their own, not a query kind, so they keep a private tag.
_RANGE_TASK = QueryKind.RANGE_MASS.value
_STAGED_TASK = "staged"


class BackpressureError(RuntimeError):
    """Admission would exceed the front-end's bounded pending-row budget.

    Raised instead of queueing without bound: the caller sheds load or retries
    after collecting outstanding tickets, so a slow consumer cannot grow the
    task queue (and its pickled payloads) arbitrarily.
    """


@dataclass(frozen=True)
class ArenaSpec:
    """Name and row count of a staged-workload segment (picklable for workers)."""

    name: str
    n_rows: int


@dataclass(frozen=True)
class ServedBatch:
    """One collected ticket: answers plus the snapshot(s) that produced them.

    ``generations``/``epochs`` carry one entry per worker task the ticket's rows
    were coalesced into, in task-completion order; a single-generation batch
    means every row was answered from the same published snapshot.
    """

    answers: np.ndarray
    generations: tuple[int, ...]
    epochs: tuple[int | None, ...]


class WorkloadArena:
    """A query workload staged once in shared memory, with an answer strip.

    Layout: ``(n, 4) float64`` query rows followed by ``(n,) float64`` answers.
    Workers attach by :class:`ArenaSpec` and write their slice of answers in
    place, so a task message is ``(arena, start, stop)`` instead of pickled
    rows.  The creator owns the segment: :meth:`close` unlinks it (copy
    ``answers`` out first if they must outlive the arena).
    """

    def __init__(self, queries) -> None:
        rows = queries_to_array(queries)
        self.n_rows = int(rows.shape[0])
        if self.n_rows == 0:
            raise ValueError("cannot stage an empty workload")
        query_bytes = self.n_rows * 4 * 8
        self._shm = shared_memory.SharedMemory(
            create=True, size=query_bytes + self.n_rows * 8
        )
        self.queries = np.ndarray(
            (self.n_rows, 4), dtype=np.float64, buffer=self._shm.buf
        )
        self.answers = np.ndarray(
            (self.n_rows,), dtype=np.float64, buffer=self._shm.buf, offset=query_bytes
        )
        self.queries[:] = rows
        self.answers[:] = 0.0
        self.spec = ArenaSpec(name=self._shm.name, n_rows=self.n_rows)
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.queries = self.answers = None  # type: ignore[assignment]
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "WorkloadArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _arena_views(
    arenas: dict, spec: ArenaSpec
) -> tuple[np.ndarray, np.ndarray]:
    """A worker's cached (queries, answers) views over a staged arena."""
    cached = arenas.get(spec.name)
    if cached is None:
        segment = attach_shared_memory(spec.name)
        query_bytes = spec.n_rows * 4 * 8
        queries = np.ndarray((spec.n_rows, 4), dtype=np.float64, buffer=segment.buf)
        answers = np.ndarray(
            (spec.n_rows,), dtype=np.float64, buffer=segment.buf, offset=query_bytes
        )
        cached = (queries, answers, segment)
        arenas[spec.name] = cached
    return cached[0], cached[1]


def _task_failure(task_id: int, error: tuple[type, str]) -> RuntimeError:
    """The exception a worker's ``(type, text)`` error result re-raises as."""
    raised, text = error
    return raised(f"serving worker failed task {task_id}: {text}")


def _worker_main(
    spec: SnapshotSpec, tasks, results, ready, read_timeout: float, torn_timeout: float
) -> None:
    """Serving-worker loop: map the snapshot once, answer tasks until sentinel."""
    reader = SnapshotReader(spec)
    arenas: dict = {}
    ready.release()
    try:
        while True:
            task = tasks.get()
            if task is None:
                break
            kind, task_id = task[0], task[1]
            try:
                if kind == _RANGE_TASK:
                    payload = task[2]
                    answers, generation, epoch = reader.read(
                        lambda engine: engine.range_mass(payload),
                        timeout=read_timeout,
                        torn_timeout=torn_timeout,
                    )
                    results.put((task_id, generation, epoch, answers, None))
                elif kind == _STAGED_TASK:
                    arena_spec, start, stop = task[2], task[3], task[4]
                    queries, answer_strip = _arena_views(arenas, arena_spec)
                    chunk, generation, epoch = reader.read(
                        lambda engine: engine.range_mass(queries[start:stop]),
                        timeout=read_timeout,
                        torn_timeout=torn_timeout,
                    )
                    answer_strip[start:stop] = chunk
                    results.put((task_id, generation, epoch, None, None))
                else:
                    raise ValueError(f"unknown task kind {kind!r}")
            except Exception as exc:  # surface, don't kill the worker
                # A torn snapshot keeps its type across the queue (the HTTP
                # front maps it to 503); any other failure re-raises as a
                # RuntimeError carrying the original type name.
                raised = TornSnapshotError if isinstance(exc, TornSnapshotError) else RuntimeError
                results.put((task_id, -1, None, None, (raised, f"{type(exc).__name__}: {exc}")))
    finally:
        reader.close()
        for _, _, segment in arenas.values():
            segment.close()


class ServingServer:
    """N serving workers behind one shared-memory snapshot and a bounded front-end.

    Lifecycle: construct (creates the snapshot segment), :meth:`publish` at
    least once, :meth:`start` the workers, then interleave further publishes
    with query traffic freely — that *is* the sustained ingest+serve loop.  Use
    as a context manager (or call :meth:`close`) to tear the workers and the
    segment down.

    Parameters
    ----------
    grid:
        Geometry of every snapshot this server will publish.
    workers:
        Worker-process count.  Answers are worker-count invariant (bit-identical
        to a serial :class:`~repro.queries.engine.QueryEngine`); the count only
        sets the parallelism.
    max_pending_rows:
        Admission budget: the total rows buffered + in flight that
        :meth:`submit_range_mass` accepts before raising
        :class:`BackpressureError`.
    coalesce_rows:
        Target worker-task size.  Buffered submissions are packed together up
        to this many rows per task (small bursts coalesce, large batches split).
    read_timeout:
        How long a worker waits for a consistent snapshot before failing the
        task (covers the start-before-first-publish window).
    torn_timeout:
        How long a worker tolerates a generation stuck on one odd value before
        failing the task with :class:`~repro.serving.shm.TornSnapshotError` —
        the dead-publisher detector, surfaced as a task *result*, not a hang,
        and re-raised with its type by :meth:`collect` / :meth:`serve_staged`.
    """

    def __init__(
        self,
        grid: GridSpec,
        *,
        workers: int = 1,
        max_pending_rows: int = 1_000_000,
        coalesce_rows: int = 16_384,
        read_timeout: float = 30.0,
        torn_timeout: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending_rows < 1:
            raise ValueError(f"max_pending_rows must be >= 1, got {max_pending_rows}")
        if coalesce_rows < 1:
            raise ValueError(f"coalesce_rows must be >= 1, got {coalesce_rows}")
        self.grid = grid
        self.workers = workers
        self.max_pending_rows = max_pending_rows
        self.coalesce_rows = coalesce_rows
        self.read_timeout = float(read_timeout)
        self.torn_timeout = float(torn_timeout)
        self.writer = SnapshotWriter(grid)
        context = multiprocessing.get_context()
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._ready = context.Semaphore(0)
        self._context = context
        self._processes: list = []
        self._closed = False
        # Front-end state: buffered (not yet dispatched) submissions, in-flight
        # tasks awaiting demux, and finished tickets awaiting collection.
        self._next_ticket = 0
        self._next_task = 0
        self._buffered: list[tuple[int, np.ndarray]] = []
        self._buffered_rows = 0
        self._inflight_rows = 0
        self._task_demux: dict[int, list[tuple[int, int, int, int]]] = {}
        self._ticket_answers: dict[int, np.ndarray] = {}
        self._ticket_progress: dict[int, dict] = {}
        self._finished: dict[int, ServedBatch] = {}

    # ---------------------------------------------------------------- publish
    def publish(self, estimate, *, epoch: int | None = None) -> int:
        """Publish a fresh window snapshot to every worker; returns its generation."""
        return self.writer.publish(estimate, epoch=epoch)

    @property
    def generation(self) -> int:
        return self.writer.generation

    # -------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return bool(self._processes)

    def start(self, *, timeout: float = 30.0) -> "ServingServer":
        """Spawn the serving workers and wait until every one has mapped the segment."""
        if self._closed:
            raise RuntimeError("serving server is closed")
        if self._processes:
            return self
        for index in range(self.workers):
            process = self._context.Process(
                target=_worker_main,
                args=(
                    self.writer.spec,
                    self._tasks,
                    self._results,
                    self._ready,
                    self.read_timeout,
                    self.torn_timeout,
                ),
                name=f"repro-serving-{index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        for _ in range(self.workers):
            if not self._ready.acquire(timeout=timeout):
                self.close()
                raise RuntimeError(
                    f"serving workers failed to attach within {timeout}s"
                )
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        """Send the shutdown sentinel and join the workers (idempotent)."""
        if not self._processes:
            return
        for _ in self._processes:
            self._tasks.put(None)
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=timeout)
        self._processes = []

    def close(self) -> None:
        """Stop the workers, drop the queues and unlink the snapshot segment."""
        if self._closed:
            return
        self.stop()
        self._closed = True
        for q in (self._tasks, self._results):
            q.cancel_join_thread()
            q.close()
        self.writer.close()

    def __enter__(self) -> "ServingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------- admission / batching
    @property
    def pending_rows(self) -> int:
        """Rows admitted but not yet collected (buffered + in flight)."""
        return self._buffered_rows + self._inflight_rows

    def submit_range_mass(self, queries) -> int:
        """Admit a range-query batch; returns the ticket to :meth:`collect` on.

        Admission is bounded: when the buffered + in-flight rows would exceed
        ``max_pending_rows`` the batch is *rejected* with
        :class:`BackpressureError` rather than queued.
        """
        if self._closed:
            raise RuntimeError("serving server is closed")
        rows = queries_to_array(queries)
        n = rows.shape[0]
        if n == 0:
            raise ValueError("cannot submit an empty batch")
        if self.pending_rows + n > self.max_pending_rows:
            raise BackpressureError(
                f"admitting {n} rows would exceed the pending budget "
                f"({self.pending_rows} pending of {self.max_pending_rows}); "
                "collect outstanding tickets or shed load"
            )
        ticket = self._next_ticket
        self._next_ticket += 1
        self._ticket_answers[ticket] = np.empty(n)
        self._ticket_progress[ticket] = {
            "remaining": n,
            "generations": [],
            "epochs": [],
        }
        self._buffered.append((ticket, rows))
        self._buffered_rows += n
        return ticket

    def flush(self) -> None:
        """Coalesce buffered submissions into worker tasks and dispatch them.

        Consecutive submissions are packed into tasks of at most
        ``coalesce_rows`` rows: a burst of small batches shares one dispatch
        (one pickle, one seqlock read) while an oversized batch is split across
        tasks so every worker gets a share.
        """
        pieces: list[tuple[int, np.ndarray, int]] = []  # (ticket, rows, dst offset)
        piece_rows = 0

        def dispatch() -> None:
            nonlocal pieces, piece_rows
            if not pieces:
                return
            payload = (
                pieces[0][1]
                if len(pieces) == 1
                else np.concatenate([rows for _, rows, _ in pieces])
            )
            demux = []
            offset = 0
            for ticket, rows, dst_offset in pieces:
                demux.append((ticket, offset, offset + rows.shape[0], dst_offset))
                offset += rows.shape[0]
            task_id = self._next_task
            self._next_task += 1
            self._task_demux[task_id] = demux
            self._tasks.put((_RANGE_TASK, task_id, payload))
            pieces = []
            piece_rows = 0

        for ticket, rows in self._buffered:
            offset = 0
            while offset < rows.shape[0]:
                take = min(self.coalesce_rows - piece_rows, rows.shape[0] - offset)
                pieces.append((ticket, rows[offset : offset + take], offset))
                piece_rows += take
                offset += take
                if piece_rows >= self.coalesce_rows:
                    dispatch()
        dispatch()
        self._inflight_rows += self._buffered_rows
        self._buffered = []
        self._buffered_rows = 0

    def collect(self, ticket: int, *, timeout: float = 60.0) -> ServedBatch:
        """Block until a ticket's every row is answered; demux and return it."""
        if ticket not in self._finished and ticket not in self._ticket_progress:
            raise KeyError(f"unknown (or already collected) ticket {ticket}")
        self.flush()  # a ticket still sitting in the buffer would never finish
        deadline = time.monotonic() + timeout
        while ticket not in self._finished:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"ticket {ticket} not served within {timeout}s")
            try:
                message = self._results.get(timeout=remaining)
            except queue_module.Empty:
                raise TimeoutError(f"ticket {ticket} not served within {timeout}s")
            self._demux(message)
        return self._finished.pop(ticket)

    def range_mass(self, queries, *, timeout: float = 60.0) -> np.ndarray:
        """Admit, dispatch and collect one batch — the synchronous convenience path."""
        ticket = self.submit_range_mass(queries)
        self.flush()
        return self.collect(ticket, timeout=timeout).answers

    def _demux(self, message) -> None:
        task_id, generation, epoch, payload, error = message
        demux = self._task_demux.pop(task_id)
        if error is not None:
            raise _task_failure(task_id, error)
        for ticket, lo, hi, dst_offset in demux:
            n = hi - lo
            self._ticket_answers[ticket][dst_offset : dst_offset + n] = payload[lo:hi]
            progress = self._ticket_progress[ticket]
            progress["remaining"] -= n
            progress["generations"].append(generation)
            progress["epochs"].append(epoch)
            self._inflight_rows -= n
            if progress["remaining"] == 0:
                self._finished[ticket] = ServedBatch(
                    answers=self._ticket_answers.pop(ticket),
                    generations=tuple(progress["generations"]),
                    epochs=tuple(progress["epochs"]),
                )
                del self._ticket_progress[ticket]

    # ------------------------------------------------------------ staged bulk
    def serve_staged(
        self,
        arena: WorkloadArena,
        *,
        start: int = 0,
        stop: int | None = None,
        batch_rows: int | None = None,
        timeout: float = 120.0,
    ) -> list[tuple[int, int | None]]:
        """Fan a staged arena's ``[start, stop)`` rows across the workers.

        Dispatches ``(arena, lo, hi)`` row-range tasks of ``batch_rows`` (default
        ``coalesce_rows``) and blocks until all are answered; the answers land in
        ``arena.answers``.  Returns the ``(generation, epoch)`` each task was
        answered at, in dispatch order — all-equal entries certify the whole
        range was served from one snapshot.
        """
        if self._closed:
            raise RuntimeError("serving server is closed")
        stop = arena.n_rows if stop is None else stop
        if not 0 <= start < stop <= arena.n_rows:
            raise ValueError(
                f"need 0 <= start < stop <= {arena.n_rows}, got [{start}, {stop})"
            )
        batch = batch_rows or self.coalesce_rows
        task_ids = []
        for lo in range(start, stop, batch):
            task_id = self._next_task
            self._next_task += 1
            self._tasks.put((_STAGED_TASK, task_id, arena.spec, lo, min(lo + batch, stop)))
            task_ids.append(task_id)
        outstanding = set(task_ids)
        answered: dict[int, tuple[int, int | None]] = {}
        deadline = time.monotonic() + timeout
        while outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{len(outstanding)} staged tasks unanswered within {timeout}s"
                )
            try:
                message = self._results.get(timeout=remaining)
            except queue_module.Empty:
                raise TimeoutError(
                    f"{len(outstanding)} staged tasks unanswered within {timeout}s"
                )
            task_id, generation, epoch, _, error = message
            if task_id in outstanding:
                if error is not None:
                    raise _task_failure(task_id, error)
                outstanding.discard(task_id)
                answered[task_id] = (generation, epoch)
            else:
                self._demux(message)  # an interleaved front-end task completing
        return [answered[task_id] for task_id in task_ids]
