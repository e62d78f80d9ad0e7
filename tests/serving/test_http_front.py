"""The HTTP front: e2e bit-identity over the wire, error paths, drain, hammer.

The acceptance bar for the network front is the same one every other serving
layer clears: a :class:`~repro.queries.engine.QueryLog` replayed over HTTP must
produce answers **equal to the serial engine's** — bit for bit, whether the
rows travel as JSON (shortest-round-trip float repr) or as the binary row
frame (raw IEEE bytes).  On top sit the contract tests for the failure
surface: malformed JSON, malformed frames, a malformed ``Content-Length`` and
unknown kinds are 400s, a full admission queue is a 429 with ``Retry-After``,
a dead publisher (torn snapshot) is a 503, and a hammering publisher never
lets a response mix two epochs.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.domain import GridDistribution, GridSpec
from repro.queries.engine import QueryEngine, TrajectoryQueryEngine, WorkloadReplay
from repro.queries.engine import QueryLog
from repro.serving import (
    ROWS_MEDIA_TYPE,
    HttpQueryClient,
    HttpServingFront,
    HttpStatusError,
    QueryKind,
    QueryRequest,
    QueryResponse,
    ServingServer,
    TrajectorySnapshotWriter,
    requests_from_log,
)
from repro.serving import http as http_front
from repro.serving.shm import _GENERATION, TornSnapshotError

GRID = GridSpec.unit(8)


def make_estimate(seed: int) -> GridDistribution:
    rng = np.random.default_rng(seed)
    return GridDistribution.from_counts(GRID, rng.random((GRID.d, GRID.d)) + 0.1)


def make_trajectory_engine(seed: int, n: int = 30) -> TrajectoryQueryEngine:
    rng = np.random.default_rng(seed)
    trajectories = [rng.random((int(k), 2)) for k in rng.integers(2, 9, n)]
    return TrajectoryQueryEngine(trajectories, GRID)


def raw_request(host: str, port: int, path: str, body, content_type: str | None = None):
    """One raw POST, returning ``(status, raw_body, headers)``."""
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    headers = {} if content_type is None else {"Content-Type": content_type}
    try:
        connection.request("POST", path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def raw_post(host: str, port: int, path: str, body: str):
    """One raw request with no Content-Type, returning ``(status, parsed_body, headers)``."""
    status, payload, headers = raw_request(host, port, path, body)
    return status, json.loads(payload), headers


def raw_socket_exchange(host: str, port: int, data: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection((host, port), timeout=30.0) as connection:
        connection.sendall(data)
        chunks = []
        while chunk := connection.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def hand_frame(header: object) -> bytes:
    """A frame with a hand-written header and no block."""
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head


def send_with_client(client: HttpQueryClient, front: HttpServingFront, request):
    """The client's own transport: row frames for range/density rows, JSON otherwise."""
    return client.query(request)


def send_as_json(client: HttpQueryClient, front: HttpServingFront, request):
    """Every kind as a v1 JSON POST with no Content-Type, the way ``curl`` sends it."""
    status, payload, headers = raw_request(front.host, front.port, "/query", request.to_json())
    assert status == 200, payload
    assert headers["Content-Type"] == "application/json"
    return QueryResponse.from_json(payload)


def replay_matches_serial_engine(send) -> None:
    """Replay a full mixed log over HTTP; every kind must equal the serial engine."""
    engine = make_trajectory_engine(seed=0)
    log = QueryLog.random(
        GRID.domain,
        n_range=40,
        n_density=25,
        n_top_k=4,
        n_quantiles=3,
        n_marginals=2,
        n_od_top_k=3,
        n_transition_top_k=3,
        n_length_histograms=2,
        seed=1,
    )
    _, serial = WorkloadReplay(engine).replay(log)

    with ServingServer(GRID, workers=2) as server:
        server.publish(engine.estimate, epoch=7)
        server.start()
        with TrajectorySnapshotWriter(
            GRID, max_trajectories=64, max_pairs=4096
        ) as trajectory_writer:
            trajectory_writer.publish(engine, epoch=7)
            with HttpServingFront(
                server, trajectory_spec=trajectory_writer.spec
            ) as front:
                client = HttpQueryClient(front.host, front.port)
                responses: dict[str, list] = {}
                for request in requests_from_log(log):
                    response = send(client, front, request)
                    assert response.kind == request.kind
                    assert response.epoch == 7
                    responses.setdefault(request.kind.value, []).append(
                        response.result
                    )
                client.close()

    # Vectorised kinds: requests_from_log splits per row, so the
    # concatenated results must equal the serial batch answers bitwise
    # (``==`` would call -0.0 equal to 0.0).
    for kind in ("range_mass", "point_density"):
        served = np.asarray([v for result in responses[kind] for v in result])
        assert served.tobytes() == serial[kind].tobytes()
    # Structured kinds, field by field.
    for result, cells in zip(responses["top_k"], serial["top_k"]):
        assert result["flat_indices"] == cells.flat_indices.tolist()
        assert result["masses"] == cells.masses.tolist()
        assert result["centers"] == cells.centers.tolist()
    for result, contour in zip(responses["quantiles"], serial["quantiles"]):
        assert result[0]["level"] == contour.level
        assert result[0]["threshold"] == contour.threshold
        assert result[0]["covered_mass"] == contour.covered_mass
        assert result[0]["n_cells"] == contour.n_cells
        assert result[0]["mask"] == contour.mask.astype(int).tolist()
    for result, (x_marginal, y_marginal) in zip(
        responses["marginals"], serial["marginals"]
    ):
        assert result["x"] == x_marginal.tolist()
        assert result["y"] == y_marginal.tolist()
    # Trajectory kinds.
    for result, top in zip(responses["od_top_k"], serial["od_top_k"]):
        assert result["from_cells"] == top.from_cells.tolist()
        assert result["to_cells"] == top.to_cells.tolist()
        assert result["counts"] == top.counts.tolist()
        assert result["fractions"] == top.fractions.tolist()
    for result, top in zip(
        responses["transition_top_k"], serial["transition_top_k"]
    ):
        assert result["counts"] == top.counts.tolist()
        assert result["fractions"] == top.fractions.tolist()
    for result, (counts, edges) in zip(
        responses["length_histogram"], serial["length_histogram"]
    ):
        assert result["counts"] == counts.tolist()
        assert result["edges"] == edges.tolist()


class TestEndToEndReplay:
    def test_query_log_over_http_equals_serial_engine(self):
        """The tentpole criterion: a full mixed log, every kind, bit-identical.

        Through :class:`HttpQueryClient`, so range and density rows travel as
        row frames and the other kinds as JSON.
        """
        replay_matches_serial_engine(send_with_client)

    def test_query_log_as_json_equals_serial_engine(self):
        """The same log with every request POSTed as v1 JSON, as ``curl`` sends it."""
        replay_matches_serial_engine(send_as_json)

    def test_concurrent_clients_coalesce_and_answer_identically(self):
        """Parallel clients share worker dispatches; every answer stays serial-exact."""
        estimate = make_estimate(seed=2)
        rows = QueryLog.random(GRID.domain, n_range=64, seed=3).range_queries
        from repro.queries.engine import QueryEngine

        expected = QueryEngine(estimate).range_mass(rows)
        failures: list = []

        with ServingServer(GRID, workers=2) as server:
            server.publish(estimate, epoch=0)
            server.start()
            with HttpServingFront(server) as front:

                def worker(indices) -> None:
                    client = HttpQueryClient(front.host, front.port)
                    try:
                        for i in indices:
                            response = client.query(
                                QueryRequest(
                                    QueryKind.RANGE_MASS,
                                    {"queries": [rows[i].tolist()]},
                                )
                            )
                            if response.result != [expected[i]]:
                                failures.append((i, response.result))
                    except Exception as exc:  # pragma: no cover - surfaced below
                        failures.append(exc)
                    finally:
                        client.close()

                threads = [
                    threading.Thread(target=worker, args=(range(t, 64, 8),))
                    for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                metrics = HttpQueryClient(front.host, front.port).metrics()
        assert not failures
        assert metrics["served_requests"] == 64
        assert metrics["per_kind"]["range_mass"]["count"] == 64


@pytest.fixture()
def front():
    with ServingServer(GRID, workers=1) as server:
        server.publish(make_estimate(seed=4), epoch=0)
        server.start()
        with HttpServingFront(server) as running:
            yield running


class TestErrorPaths:
    def test_malformed_json_is_400(self, front):
        status, body, _ = raw_post(front.host, front.port, "/query", "{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_unknown_kind_is_400(self, front):
        message = json.dumps(
            {"kind": "florble", "payload": {}, "schema_version": 1}
        )
        status, body, _ = raw_post(front.host, front.port, "/query", message)
        assert status == 400
        assert "unknown query kind" in body["error"]

    def test_unsupported_schema_version_is_400(self, front):
        message = json.dumps({"kind": "marginals", "payload": {}, "schema_version": 99})
        status, body, _ = raw_post(front.host, front.port, "/query", message)
        assert status == 400
        assert "schema_version" in body["error"]

    def test_engine_rejections_are_400(self, front):
        client = HttpQueryClient(front.host, front.port)
        with pytest.raises(HttpStatusError) as error:
            client.query(QueryRequest(QueryKind.TOP_K, {"k": 10**9}))
        assert error.value.status == 400
        assert "k must lie in" in error.value.message
        client.close()

    def test_trajectory_kind_without_segment_is_400(self, front):
        client = HttpQueryClient(front.host, front.port)
        with pytest.raises(HttpStatusError) as error:
            client.query(QueryRequest(QueryKind.OD_TOP_K, {"k": 3}))
        assert error.value.status == 400
        assert "no trajectory snapshot attached" in error.value.message
        client.close()

    def test_unknown_route_404_wrong_method_405(self, front):
        status, _, _ = raw_post(front.host, front.port, "/nope", "")
        assert status == 404
        status, _, _ = raw_post(front.host, front.port, "/metrics", "")
        assert status == 405

    def test_queue_full_is_429_with_retry_after(self):
        """Admission bound: with the dispatcher wedged, the N+1th request bounces."""
        with ServingServer(GRID, workers=1, read_timeout=30.0) as server:
            # No publish yet: the first admitted read blocks in the seqlock
            # wait, wedging the single serving thread deterministically.
            server.start()
            with HttpServingFront(server, max_queue=1, retry_after=2.5) as front:
                probe = HttpQueryClient(front.host, front.port)
                request = QueryRequest(
                    QueryKind.POINT_DENSITY, {"points": [[0.5, 0.5]]}
                ).to_json()

                def fire() -> http.client.HTTPConnection:
                    connection = http.client.HTTPConnection(
                        front.host, front.port, timeout=60.0
                    )
                    connection.request("POST", "/query", body=request)
                    return connection

                # First request: admitted, picked up by the dispatcher, blocked.
                blocked = fire()
                deadline = time.monotonic() + 10.0
                while probe.metrics()["queue_depth"] != 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Second request: admitted, sits in the (size-1) queue.
                queued = fire()
                while probe.metrics()["queue_depth"] != 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Third request: the queue is full — sheds with 429.
                with pytest.raises(HttpStatusError) as error:
                    probe.query(QueryRequest(QueryKind.MARGINALS))
                assert error.value.status == 429
                assert error.value.retry_after == 2.5
                assert probe.metrics()["rejected_requests"] == 1
                # Publishing unwedges the pipeline; both admitted requests finish.
                server.publish(make_estimate(seed=5), epoch=0)
                for connection in (blocked, queued):
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                    connection.close()
                probe.close()

    def test_dead_writer_torn_snapshot_is_503(self):
        """A publisher dead mid-publish surfaces as 503 + Retry-After, not a hang."""
        with ServingServer(GRID, workers=1, torn_timeout=0.2) as server:
            server.publish(make_estimate(seed=6), epoch=0)
            server.start()
            with HttpServingFront(server, retry_after=1.5) as front:
                client = HttpQueryClient(front.host, front.port)
                server.writer._header[_GENERATION] += 1  # die mid-publish
                # Front-end read path (non-range kinds).
                with pytest.raises(HttpStatusError) as error:
                    client.query(QueryRequest(QueryKind.MARGINALS))
                assert error.value.status == 503
                assert "TornSnapshotError" in error.value.message
                assert error.value.retry_after == 1.5
                # Worker-pool path: the torn read fails inside the worker task.
                with pytest.raises(HttpStatusError) as error:
                    client.query(
                        QueryRequest(
                            QueryKind.RANGE_MASS,
                            {"queries": [[0.1, 0.6, 0.2, 0.9]]},
                        )
                    )
                assert error.value.status == 503
                assert "TornSnapshotError" in error.value.message
                client.close()


class TestWireVersions:
    """The body's Content-Type picks the schema version; the answer comes back in it."""

    RANGE = QueryRequest(QueryKind.RANGE_MASS, {"queries": [[0.1, 0.6, 0.2, 0.9]]})

    def expected(self) -> bytes:
        """The serial engine's answer to :attr:`RANGE` on the fixture's estimate."""
        rows = np.asarray(self.RANGE.payload["queries"])
        return QueryEngine(make_estimate(seed=4)).range_mass(rows).tobytes()

    @pytest.mark.parametrize(
        "content_type", [None, "application/json", "application/x-www-form-urlencoded"]
    )
    def test_json_content_types_speak_version_1(self, front, content_type):
        status, payload, headers = raw_request(
            front.host, front.port, "/query", self.RANGE.to_json(), content_type
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        response = QueryResponse.from_json(payload)
        assert response.schema_version == 1
        assert np.asarray(response.result).tobytes() == self.expected()

    @pytest.mark.parametrize(
        "content_type",
        [ROWS_MEDIA_TYPE, "Application/VND.Repro.Rows; charset=binary", f"{ROWS_MEDIA_TYPE} ;q=1"],
    )
    def test_rows_media_type_speaks_version_2(self, front, content_type):
        status, payload, headers = raw_request(
            front.host, front.port, "/query", self.RANGE.to_bytes(), content_type
        )
        assert status == 200
        assert headers["Content-Type"] == ROWS_MEDIA_TYPE
        response = QueryResponse.from_bytes(payload)
        assert response.schema_version == 2
        assert np.asarray(response.result).tobytes() == self.expected()

    def test_frame_sent_as_json_is_400(self, front):
        status, payload, headers = raw_request(
            front.host, front.port, "/query", self.RANGE.to_bytes(), "application/json"
        )
        assert status == 400
        assert "not valid JSON" in json.loads(payload)["error"]

    @pytest.mark.parametrize(
        "frame, match",
        [
            (b"\x01", "too short"),
            (struct.pack("<I", 64) + b"{}", "overruns"),
            (hand_frame([1, 2]), "must be a JSON object"),
            (hand_frame({}), "schema_version None"),
            (QueryRequest(QueryKind.MARGINALS).to_json().encode(), "overruns"),
            (hand_frame({"kind": "top_k", "schema_version": 2, "rows": 0}), "no row frame"),
            (RANGE.to_bytes()[:-8], "block is 24 bytes"),
            (
                hand_frame({"kind": "range_mass", "schema_version": 2, "rows": -1}) + bytes(32),
                "rows must be",
            ),
        ],
        ids=[
            "short",
            "overrun",
            "non-object",
            "no-version",
            "json-body",
            "no-row-form",
            "short-block",
            "negative-rows",
        ],
    )
    def test_malformed_frame_is_400_with_json_error(self, front, frame, match):
        status, payload, headers = raw_request(
            front.host, front.port, "/query", frame, ROWS_MEDIA_TYPE
        )
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert match in json.loads(payload)["error"]

    def test_engine_rejection_of_a_frame_is_a_json_400(self, front):
        empty = QueryRequest(QueryKind.RANGE_MASS, {"queries": np.empty((0, 4))})
        with HttpQueryClient(front.host, front.port) as client:
            with pytest.raises(HttpStatusError) as error:
                client.query(empty)
        assert error.value.status == 400
        assert "empty batch" in error.value.message


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "", "1_0"])
    def test_malformed_content_length_is_400_then_close(self, front, value):
        request = (
            f"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {value}\r\n\r\n"
        ).encode("latin-1")
        reply = raw_socket_exchange(front.host, front.port, request)
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in lines
        assert json.loads(body) == {"error": "malformed Content-Length"}
        # The front keeps serving everyone else.
        with HttpQueryClient(front.host, front.port) as client:
            assert client.query(QueryRequest(QueryKind.MARGINALS)).epoch == 0


class TestMetricsWindow:
    def test_percentile_window_is_bounded_and_totals_stay_exact(self, front, monkeypatch):
        monkeypatch.setattr(http_front, "LATENCY_WINDOW", 4)
        observed: list[tuple[str, float]] = []
        observe = front._observe

        def spy(request, latency):
            observed.append((request.kind.value, latency))
            observe(request, latency)

        monkeypatch.setattr(front, "_observe", spy)
        rows = [[0.1, 0.6, 0.2, 0.9]] * 3
        with HttpQueryClient(front.host, front.port) as client:
            for _ in range(11):
                client.query(QueryRequest(QueryKind.MARGINALS))
                client.query(QueryRequest(QueryKind.RANGE_MASS, {"queries": rows}))
            metrics = client.metrics()
        for kind, ops in (("marginals", 11), ("range_mass", 33)):
            latencies = [latency for seen, latency in observed if seen == kind]
            stats = metrics["per_kind"][kind]
            assert len(front._latencies[kind]) == 4
            assert stats["count"] == ops
            assert stats["seconds"] == sum(latencies)
            assert stats["latency_p99"] == float(np.quantile(latencies[-4:], 0.99))


class TestErrorClassification:
    def test_503_is_chosen_by_type_not_by_message_text(self):
        """Only a TornSnapshotError is a 503; its name inside a message is not."""
        with ServingServer(GRID, workers=1) as server:
            front = HttpServingFront(server, retry_after=1.5)
            lookalike = front._classify(RuntimeError("TornSnapshotError: not torn"))
            torn = front._classify(TornSnapshotError("stuck at odd generation 3"))
        assert (lookalike.status, lookalike.retry_after) == (500, None)
        assert (torn.status, torn.retry_after) == (503, 1.5)


class TestLifecycle:
    def test_graceful_drain_then_connection_refused(self):
        with ServingServer(GRID, workers=1) as server:
            server.publish(make_estimate(seed=7), epoch=0)
            server.start()
            front = HttpServingFront(server).start()
            client = HttpQueryClient(front.host, front.port)
            response = client.query(QueryRequest(QueryKind.MARGINALS))
            assert response.epoch == 0
            front.stop()
            with pytest.raises(OSError):
                http.client.HTTPConnection(
                    front.host, front.port, timeout=2.0
                ).request("GET", "/healthz")
            client.close()
            front.stop()  # idempotent

    def test_start_is_idempotent_and_metrics_fresh(self):
        with ServingServer(GRID, workers=1) as server:
            server.publish(make_estimate(seed=8), epoch=3)
            server.start()
            with HttpServingFront(server) as front:
                assert front.start() is front
                metrics = HttpQueryClient(front.host, front.port).metrics()
                assert metrics["generation"] == 2
                assert metrics["epoch"] == 3
                assert metrics["served_requests"] == 0
                assert metrics["per_kind"] == {}
                assert metrics["pending_rows"] == 0


class TestMidReplayPublishes:
    def test_no_torn_reads_while_publisher_hammers(self):
        """Every response under a hammering publisher matches exactly one epoch."""
        estimates = {0: make_estimate(seed=10), 1: make_estimate(seed=11)}
        probe_rows = [[0.1, 0.7, 0.2, 0.8]]
        from repro.queries.engine import QueryEngine

        expected_range = {
            parity: QueryEngine(estimate).range_mass(np.array(probe_rows)).tolist()
            for parity, estimate in estimates.items()
        }
        expected_marginals = {
            parity: QueryEngine(estimate).axis_marginals()[0].tolist()
            for parity, estimate in estimates.items()
        }

        with ServingServer(GRID, workers=2) as server:
            server.publish(estimates[0], epoch=0)
            server.start()
            with HttpServingFront(server) as front:
                done = threading.Event()

                def hammer() -> None:
                    for epoch in range(1, 300):
                        server.publish(estimates[epoch % 2], epoch=epoch)
                    done.set()

                publisher = threading.Thread(target=hammer)
                publisher.start()
                client = HttpQueryClient(front.host, front.port)
                observations = 0
                try:
                    while not done.is_set() or observations == 0:
                        response = client.query(
                            QueryRequest(QueryKind.RANGE_MASS, {"queries": probe_rows})
                        )
                        assert response.result == expected_range[response.epoch % 2]
                        response = client.query(QueryRequest(QueryKind.MARGINALS))
                        assert (
                            response.result["x"]
                            == expected_marginals[response.epoch % 2]
                        )
                        observations += 1
                finally:
                    publisher.join()
                    client.close()
                assert observations > 0
