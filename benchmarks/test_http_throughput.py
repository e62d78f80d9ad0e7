"""HTTP front throughput: the network face versus the staged in-memory path.

The question this benchmark pins down: how much of the serving tier's
throughput survives the trip through the asyncio HTTP/1.1 front — the row
frame both ways (``HttpQueryClient`` sends ``range_mass`` as the binary
schema-version-2 body: a small JSON header over raw float64 rows), the
admission queue, the dispatcher's coalescing trip into the worker pool —
relative to the fastest path the same workers offer (a staged
:class:`~repro.serving.server.WorkloadArena`, where a task message is a row
range and the answers land in shared memory)?

* The same range workload is served twice from the same published snapshot:
  once via :meth:`~repro.serving.server.ServingServer.serve_staged`, once as
  batched ``POST /query`` requests through :class:`HttpServingFront`.
* Both passes must answer **bit-identically** to a serial
  :class:`~repro.queries.engine.QueryEngine` — the frame carries raw IEEE
  bytes, so the network face gets no numeric slack.
* The gated metric is ``http_serving_ratio`` — HTTP rows/s over staged rows/s —
  so a regression in the HTTP layer (framing, queueing, batching) fails
  CI even while raw worker throughput is unchanged.  What is left of the HTTP
  cost is mostly the client's list-to-array conversion of each request's rows
  and the event loop, no longer text encoding.
* The front's ``/metrics`` endpoint must report the traffic it just served
  with the replay-style per-kind p50/p99 latency stats.

Results land in ``benchmarks/results/http_serving_throughput.txt`` and
``BENCH_http_serving_throughput.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets.synthetic import shifting_hotspot_stream
from repro.queries.engine import QueryEngine, QueryLog
from repro.serving import (
    HttpQueryClient,
    HttpServingFront,
    QueryKind,
    QueryRequest,
    ServingServer,
    WorkloadArena,
)
from repro.streaming import StreamingEstimationService

GRID_D = 16
EPSILON = 3.5
WORKERS = 2
ROWS_PER_REQUEST = 4096


def _load(bench_profile) -> int:
    """Total range rows served per pass, per profile."""
    if bench_profile == "paper":
        return 400_000
    if bench_profile == "smoke":
        return 60_000
    return 200_000


def test_http_serving_throughput(bench_profile, record_result):
    n_rows = _load(bench_profile)
    available = os.cpu_count() or 1
    stream = shifting_hotspot_stream(n_epochs=1, users_per_epoch=20_000, seed=0)
    service = StreamingEstimationService.build(
        stream.domain, GRID_D, EPSILON, window_epochs=4, seed=1
    )
    estimate = service.ingest_epoch(next(iter(stream.epochs))).estimate
    log = QueryLog.random(stream.domain, n_range=n_rows, seed=2)
    serial_answers = QueryEngine(estimate).range_mass(log.range_queries)

    with ServingServer(service.grid, workers=WORKERS) as server:
        server.publish(estimate, epoch=0)
        server.start()

        # Staged pass: the in-memory ceiling the HTTP face is measured against.
        with WorkloadArena(log.range_queries) as arena:
            start = time.perf_counter()
            server.serve_staged(arena, batch_rows=8192)
            staged_seconds = time.perf_counter() - start
            assert np.array_equal(arena.answers, serial_answers)
        staged_rate = n_rows / staged_seconds

        # HTTP pass: the same rows as batched wire requests through the front.
        with HttpServingFront(server) as front:
            client = HttpQueryClient(front.host, front.port)
            served = np.empty(n_rows)
            start = time.perf_counter()
            for lo in range(0, n_rows, ROWS_PER_REQUEST):
                rows = log.range_queries[lo : lo + ROWS_PER_REQUEST]
                response = client.query(
                    QueryRequest(QueryKind.RANGE_MASS, {"queries": rows.tolist()})
                )
                served[lo : lo + rows.shape[0]] = response.result
            http_seconds = time.perf_counter() - start
            assert np.array_equal(served, serial_answers), (
                "HTTP-served answers diverged from the serial engine"
            )
            metrics = client.metrics()
            client.close()
        http_rate = n_rows / http_seconds

    stats = metrics["per_kind"]["range_mass"]
    assert stats["count"] == n_rows
    assert 0 <= stats["latency_p50"] <= stats["latency_p99"]
    http_serving_ratio = http_rate / staged_rate

    record_result(
        "http_serving_throughput",
        "\n".join(
            [
                f"HTTP front vs staged arena, d={GRID_D}, eps={EPSILON}, "
                f"rows={n_rows}, workers={WORKERS}, cpus={available}",
                f"staged arena         : {staged_seconds:8.3f} s "
                f"({staged_rate:12,.0f} rows/s)  [bit-identical]",
                f"HTTP front           : {http_seconds:8.3f} s "
                f"({http_rate:12,.0f} rows/s)  [bit-identical]",
                f"http/staged ratio    : {http_serving_ratio:.3f}",
                f"front-reported p50/p99: {stats['latency_p50'] * 1e3:.3f} / "
                f"{stats['latency_p99'] * 1e3:.3f} ms per request",
            ]
        ),
        metrics={
            "http_serving_ratio": http_serving_ratio,
            "http_rows_per_second": http_rate,
            "staged_rows_per_second": staged_rate,
            "http_latency_p99_seconds": stats["latency_p99"],
            "cpus": available,
        },
    )
