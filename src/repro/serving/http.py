"""Async HTTP/1.1 front end over the serving tier (stdlib only).

:class:`HttpServingFront` puts one network face on everything the serving tier
can answer: the point surface a :class:`~repro.serving.server.ServingServer`
serves from its shared-memory snapshot, and (when a trajectory segment is
attached) the trajectory surface of a
:class:`~repro.serving.shm.TrajectorySnapshotReader`.  Requests and responses
are the versioned wire schema of :mod:`repro.serving.wire`: JSON (version 1)
for every kind, and for ``range_mass`` and ``point_density`` a binary row frame
(version 2), chosen by the request's ``Content-Type`` and answered in the
version it was asked in.  Both keep float answers bit-identical, so an HTTP
client sees the very numbers a serial in-process engine computes.

The deployment shape::

    connections ──► admission queue ──► dispatcher ──► serving thread
      (asyncio)       (bounded)          (coalesces)     │
                                                         ├─ range_mass ► ServingServer
                                                         │   (submit* + one flush + collect —
                                                         │    the worker-pool batching path)
                                                         └─ other kinds ► seqlock readers

* **Bounded admission** — each ``POST /query`` is enqueued with
  ``put_nowait``; a full queue rejects with **429** (plus ``Retry-After``)
  instead of buffering without bound, mirroring
  :class:`~repro.serving.server.BackpressureError` one layer up.
* **Batch coalescing** — the dispatcher drains whatever has queued up behind
  the request it is holding and serves the whole batch in one trip to the
  serving thread: every range request in the batch is submitted, then *one*
  :meth:`~repro.serving.server.ServingServer.flush` packs them into worker
  tasks of at most ``coalesce_rows`` rows.  Concurrent HTTP clients therefore
  share worker dispatches exactly like in-process batch callers.
* **Torn snapshots** — a dead publisher surfaces as
  :class:`~repro.serving.shm.TornSnapshotError` (directly from a front-end
  read, or inside a worker-task failure); either way the client sees **503**
  with ``Retry-After``, never a hang.
* **Graceful drain** — :meth:`HttpServingFront.stop` closes the listener,
  answers every already-admitted request, then tears the dispatcher down.
* **/metrics** — generation/epoch of the live snapshot, queue depth, and
  per-kind latency through :func:`repro.queries.engine.latency_stats` — the
  same count/p50/p99 formula :class:`~repro.queries.engine.ReplayReport` uses.
  Counts and total seconds cover every request; the percentiles cover the last
  :data:`LATENCY_WINDOW` requests of each kind, so memory stays bounded under
  sustained traffic.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.queries.engine import latency_stats
from repro.queries.kinds import KINDS
from repro.serving.server import BackpressureError, ServingServer
from repro.serving.shm import (
    SnapshotReader,
    TornSnapshotError,
    TrajectorySnapshotReader,
    TrajectorySnapshotSpec,
)
from repro.serving.wire import (
    ROW_KINDS,
    ROWS_MEDIA_TYPE,
    SCHEMA_VERSION,
    QueryKind,
    QueryRequest,
    QueryResponse,
    WireFormatError,
)

#: Requests per kind whose latencies the ``/metrics`` percentiles cover.
LATENCY_WINDOW = 4096

_JSON_MEDIA_TYPE = "application/json"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpStatusError(RuntimeError):
    """A non-200 response from the HTTP front, carrying its status and hint."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class _Rejection(Exception):
    """Internal: a request's terminal HTTP failure (status + message)."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _is_row_frame(content_type: str) -> bool:
    """Whether a ``Content-Type`` names the row frame (case-insensitive, parameters ignored)."""
    return content_type.partition(";")[0].strip().lower() == ROWS_MEDIA_TYPE


class HttpServingFront:
    """An asyncio HTTP/1.1 server exposing a :class:`ServingServer` over the wire.

    The front runs its own event loop in a daemon thread, so callers drive it
    synchronously: construct, :meth:`start`, point clients at :attr:`address`,
    :meth:`stop` (or use as a context manager).  All traffic into the serving
    tier funnels through one serving thread — ``ServingServer``'s front-end
    bookkeeping is single-threaded by design, and the seqlock readers for the
    non-range kinds ride in the same thread.

    Parameters
    ----------
    server:
        The serving tier to front.  Must be constructed (its snapshot segment
        exists); publish at least once before expecting 200s.
    host, port:
        Bind address.  ``port=0`` picks a free port; :attr:`port` holds the
        bound one after :meth:`start`.
    trajectory_spec:
        Optional :class:`TrajectorySnapshotSpec` of a published trajectory
        segment; attaching one turns the three trajectory kinds from 400s into
        served answers.
    max_queue:
        Admission bound: requests queued (admitted, not yet dispatched) before
        ``POST /query`` answers 429.
    retry_after:
        The ``Retry-After`` hint (seconds) on 429/503 responses.
    drain_timeout:
        How long :meth:`stop` waits for admitted requests to finish.
    """

    def __init__(
        self,
        server: ServingServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        trajectory_spec: TrajectorySnapshotSpec | None = None,
        max_queue: int = 256,
        retry_after: float = 1.0,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._server = server
        self.host = host
        self.port = port
        self._trajectory_spec = trajectory_spec
        self._max_queue = max_queue
        self._retry_after = float(retry_after)
        self._drain_timeout = float(drain_timeout)
        self._collect_timeout = server.read_timeout + 30.0
        # One serving thread: ServingServer front-end state is not thread-safe,
        # and funnelling every batch through it is what makes coalescing work.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-http-serve"
        )
        self._point_reader: SnapshotReader | None = None
        self._trajectory_reader: TrajectorySnapshotReader | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._shutdown: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._draining = False
        self._connections: set = set()
        self._conn_tasks: set = set()
        # Metrics state; touched only from the event-loop thread.
        self._latencies: dict[str, collections.deque] = collections.defaultdict(
            lambda: collections.deque(maxlen=LATENCY_WINDOW)
        )
        self._seconds: dict[str, float] = collections.defaultdict(float)
        self._counts: dict[str, int] = collections.defaultdict(int)
        self._served = 0
        self._rejected = 0

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, *, timeout: float = 30.0) -> "HttpServingFront":
        """Bind and begin serving; returns once the listener is accepting."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-http-front", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"HTTP front failed to bind within {timeout}s")
        if self._startup_error is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
            raise RuntimeError(
                f"HTTP front failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, *, timeout: float | None = None) -> None:
        """Graceful drain: stop accepting, answer admitted requests, shut down."""
        if self._thread is None:
            return
        self._draining = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout if timeout is not None else self._drain_timeout + 30.0)
        self._thread = None
        self._executor.shutdown(wait=True)
        for reader in (self._point_reader, self._trajectory_reader):
            if reader is not None:
                reader.close()
        self._point_reader = self._trajectory_reader = None

    def __enter__(self) -> "HttpServingFront":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start() or swallowed on stop
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue(maxsize=self._max_queue)
        self._shutdown = asyncio.Event()
        dispatcher = loop.create_task(self._dispatch_loop())
        server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._shutdown.wait()
        # Drain: no new connections, answer everything already admitted, then
        # hang up idle keep-alive connections and retire the dispatcher.
        server.close()
        await server.wait_closed()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._queue.join(), timeout=self._drain_timeout)
        for writer in list(self._connections):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=self._drain_timeout)
        dispatcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await dispatcher

    # ------------------------------------------------------------- dispatcher
    async def _dispatch_loop(self) -> None:
        """Admission queue -> serving thread, one coalesced batch per trip."""
        loop = asyncio.get_running_loop()
        while True:
            entries = [await self._queue.get()]
            while True:
                try:
                    entries.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            requests = [request for request, _, _ in entries]
            try:
                outcomes = await loop.run_in_executor(
                    self._executor, self._serve_batch, requests
                )
            except Exception as exc:  # pragma: no cover - _serve_batch catches
                outcomes = [self._classify(exc)] * len(entries)
            now = time.perf_counter()
            for (request, future, enqueued), outcome in zip(entries, outcomes):
                if isinstance(outcome, QueryResponse):
                    self._observe(request, now - enqueued)
                if not future.done():
                    future.set_result(outcome)
                self._queue.task_done()

    def _observe(self, request: QueryRequest, latency: float) -> None:
        kind = request.kind.value
        self._latencies[kind].append(latency)
        self._seconds[kind] += latency
        spec = KINDS[request.kind]
        self._counts[kind] += max(1, len(request.payload[spec.field])) if spec.per_item else 1
        self._served += 1

    def _classify(self, exc: BaseException) -> _Rejection:
        """Map a serving-layer failure to its HTTP rejection."""
        text = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, TornSnapshotError):
            # The publisher died mid-publish (directly observed, or re-raised
            # typed from a worker-task failure): retryable server-side state.
            return _Rejection(503, text, retry_after=self._retry_after)
        if isinstance(exc, BackpressureError):
            return _Rejection(429, text, retry_after=self._retry_after)
        if isinstance(exc, TimeoutError):
            return _Rejection(503, text, retry_after=self._retry_after)
        if isinstance(exc, (WireFormatError, ValueError, TypeError, KeyError)):
            return _Rejection(400, text)
        return _Rejection(500, text)

    # ---------------------------------------------------------- serving thread
    def _serve_batch(self, requests: list[QueryRequest]) -> list:
        """Answer one coalesced batch (runs in the serving thread).

        Range requests all go through the worker pool as one flush — the same
        coalescing in-process batch callers get — while the other kinds are
        answered under the seqlock by this thread's own readers.  Every
        outcome is a :class:`QueryResponse` or a :class:`_Rejection`; a
        request never takes its batch down with it.
        """
        outcomes: list = [None] * len(requests)
        tickets: list[tuple[int, int]] = []
        for index, request in enumerate(requests):
            if request.kind is QueryKind.RANGE_MASS:
                try:
                    rows = np.asarray(request.payload["queries"], dtype=float)
                    ticket = self._server.submit_range_mass(rows)
                except Exception as exc:
                    outcomes[index] = self._classify(exc)
                else:
                    tickets.append((index, ticket))
        if tickets:
            self._server.flush()
        collect_failure: _Rejection | None = None
        for index, ticket in tickets:
            if collect_failure is not None:
                # One coalesced worker task failing fails every ticket packed
                # into it; don't burn a full collect timeout per sibling.
                outcomes[index] = collect_failure
                continue
            try:
                batch = self._server.collect(ticket, timeout=self._collect_timeout)
            except Exception as exc:
                collect_failure = self._classify(exc)
                outcomes[index] = collect_failure
            else:
                # The answers array is this ticket's own, not a shared-memory
                # view, so encoding it later on the event-loop thread is safe.
                outcomes[index] = QueryResponse(
                    QueryKind.RANGE_MASS,
                    batch.answers,
                    generation=batch.generations[-1],
                    epoch=batch.epochs[-1],
                )
        for index, request in enumerate(requests):
            if outcomes[index] is None:
                try:
                    outcomes[index] = self._answer_single(request)
                except Exception as exc:
                    outcomes[index] = self._classify(exc)
        return outcomes

    def _answer_single(self, request: QueryRequest) -> QueryResponse:
        """One request, answered under the seqlock reader of its kind's surface.

        The engine call and the shaping of its answer into JSON-ready values
        both run inside the read, so the answer is materialised from one
        consistent snapshot.
        """
        kind, spec = request.kind, KINDS[request.kind]
        if spec.trajectory:
            if self._trajectory_spec is None:
                raise WireFormatError(
                    f"{kind.value} needs the trajectory surface, but this front "
                    "has no trajectory snapshot attached"
                )
            if self._trajectory_reader is None:
                self._trajectory_reader = TrajectorySnapshotReader(self._trajectory_spec)
            reader = self._trajectory_reader
        else:
            if self._point_reader is None:
                self._point_reader = SnapshotReader(self._server.writer.spec)
            reader = self._point_reader
        arguments = spec.arguments(request.payload.get(spec.field))
        result, generation, epoch = reader.read(
            lambda engine: spec.shape(getattr(engine, spec.method)(*arguments)),
            timeout=self._server.read_timeout,
            torn_timeout=self._server.torn_timeout,
        )
        return QueryResponse(kind, result, generation=generation, epoch=epoch)

    # -------------------------------------------------------------- HTTP layer
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    writer.write(self._error_bytes(400, "malformed request line", close=True))
                    await writer.drain()
                    break
                method, path, _version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                # RFC 9110: Content-Length = 1*DIGIT.  Anything else leaves the
                # body's end unknown, so answer and hang up.
                length = headers.get("content-length", "0")
                if not (length.isascii() and length.isdigit()):
                    writer.write(
                        self._error_bytes(400, "malformed Content-Length", close=True)
                    )
                    await writer.drain()
                    break
                body = await reader.readexactly(int(length))
                close = headers.get("connection", "").lower() == "close"
                rows = _is_row_frame(headers.get("content-type", ""))
                status, payload, retry_after = await self._route(method, path, body, rows)
                close = close or self._draining
                writer.write(
                    self._response_bytes(
                        status, payload, retry_after=retry_after, close=close
                    )
                )
                await writer.drain()
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _route(
        self, method: str, path: str, body: bytes, rows: bool
    ) -> tuple[int, str | bytes, float | None]:
        """Dispatch one request; returns ``(status, body, retry_after)``.

        ``rows`` says the body is a row frame; the answer then is one too.
        Every other body, errors included, is JSON text.
        """
        if path == "/query":
            if method != "POST":
                return 405, json.dumps({"error": "POST required"}), None
            return await self._route_query(body, rows)
        if path == "/metrics":
            if method != "GET":
                return 405, json.dumps({"error": "GET required"}), None
            return 200, json.dumps(self._metrics()), None
        if path == "/healthz":
            return 200, json.dumps({"status": "draining" if self._draining else "ok"}), None
        return 404, json.dumps({"error": f"no route {path!r}"}), None

    async def _route_query(
        self, body: bytes, rows: bool
    ) -> tuple[int, str | bytes, float | None]:
        if self._draining:
            return (
                503,
                json.dumps({"error": "server is draining"}),
                self._retry_after,
            )
        try:
            request = QueryRequest.from_bytes(body) if rows else QueryRequest.from_json(body)
        except WireFormatError as exc:
            return 400, json.dumps({"error": str(exc)}), None
        future = self._loop.create_future()
        try:
            self._queue.put_nowait((request, future, time.perf_counter()))
        except asyncio.QueueFull:
            self._rejected += 1
            return (
                429,
                json.dumps(
                    {"error": f"admission queue full ({self._max_queue} queued)"}
                ),
                self._retry_after,
            )
        outcome = await future
        if isinstance(outcome, _Rejection):
            if outcome.status == 429:
                self._rejected += 1
            return outcome.status, json.dumps({"error": outcome.message}), outcome.retry_after
        return 200, outcome.to_bytes() if rows else outcome.to_json(), None

    def _metrics(self) -> dict:
        """The `/metrics` document (computed on the event-loop thread)."""
        per_kind = {
            kind: latency_stats(self._counts[kind], latencies, seconds=self._seconds[kind])
            for kind, latencies in self._latencies.items()
            if latencies
        }
        return {
            "generation": self._server.generation,
            "epoch": self._server.writer.epoch,
            "queue_depth": self._queue.qsize(),
            "pending_rows": self._server.pending_rows,
            "served_requests": self._served,
            "rejected_requests": self._rejected,
            "per_kind": per_kind,
            "schema_version": SCHEMA_VERSION,
        }

    @staticmethod
    def _response_bytes(
        status: int,
        body: str | bytes,
        *,
        retry_after: float | None = None,
        close: bool = False,
    ) -> bytes:
        """One HTTP response: a ``str`` body is JSON, a ``bytes`` body a row frame."""
        if isinstance(body, bytes):
            payload, content_type = body, ROWS_MEDIA_TYPE
        else:
            payload, content_type = body.encode(), _JSON_MEDIA_TYPE
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if retry_after is not None:
            lines.append(f"Retry-After: {retry_after:g}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload

    @classmethod
    def _error_bytes(cls, status: int, message: str, *, close: bool = False) -> bytes:
        return cls._response_bytes(status, json.dumps({"error": message}), close=close)


class HttpQueryClient:
    """Minimal synchronous client for :class:`HttpServingFront` (stdlib only).

    One keep-alive connection; :meth:`query` raises :class:`HttpStatusError`
    on any non-200 (carrying the parsed ``Retry-After`` hint on 429/503) so
    callers implement backpressure with one ``except``.  ``range_mass`` and
    ``point_density`` travel as row frames, every other kind as JSON.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def _request(
        self,
        method: str,
        path: str,
        body: str | bytes | None = None,
        content_type: str = _JSON_MEDIA_TYPE,
    ):
        headers = {"Content-Type": content_type}
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
        except (http.client.HTTPException, ConnectionError, OSError):
            # Stale keep-alive connection (e.g. the server restarted): one
            # transparent reconnect, then let failures propagate.
            self.close()
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
        payload = response.read()
        if response.status != 200:
            try:
                message = json.loads(payload).get("error", "")
            except (ValueError, AttributeError):
                message = payload.decode(errors="replace")
            retry_after = response.getheader("Retry-After")
            raise HttpStatusError(
                response.status,
                message,
                retry_after=float(retry_after) if retry_after else None,
            )
        return payload

    def query(self, request: QueryRequest) -> QueryResponse:
        """POST one wire request; returns the parsed response or raises."""
        if request.kind in ROW_KINDS:
            frame = self._request("POST", "/query", request.to_bytes(), ROWS_MEDIA_TYPE)
            return QueryResponse.from_bytes(frame)
        return QueryResponse.from_json(self._request("POST", "/query", request.to_json()))

    def metrics(self) -> dict:
        return json.loads(self._request("GET", "/metrics"))

    def health(self) -> dict:
        return json.loads(self._request("GET", "/healthz"))

    def close(self) -> None:
        if self._connection is not None:
            with contextlib.suppress(Exception):
                self._connection.close()
            self._connection = None

    def __enter__(self) -> "HttpQueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
