"""The HTTP front: e2e bit-identity over the wire, error paths, drain, hammer.

The acceptance bar for the network front is the same one every other serving
layer clears: a :class:`~repro.queries.engine.QueryLog` replayed over HTTP must
produce answers **equal to the serial engine's** — JSON's shortest-round-trip
float repr makes that a bit-for-bit comparison, not an approximate one.  On top
sit the contract tests for the failure surface: malformed JSON and unknown
kinds are 400s, a full admission queue is a 429 with ``Retry-After``, a dead
publisher (torn snapshot) is a 503, and a hammering publisher never lets a
response mix two epochs.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core.domain import GridDistribution, GridSpec
from repro.queries.engine import TrajectoryQueryEngine, WorkloadReplay
from repro.queries.engine import QueryLog
from repro.serving import (
    HttpQueryClient,
    HttpServingFront,
    HttpStatusError,
    QueryKind,
    QueryRequest,
    ServingServer,
    TrajectorySnapshotWriter,
    requests_from_log,
)
from repro.serving.shm import _GENERATION, TornSnapshotError

GRID = GridSpec.unit(8)


def make_estimate(seed: int) -> GridDistribution:
    rng = np.random.default_rng(seed)
    return GridDistribution.from_counts(GRID, rng.random((GRID.d, GRID.d)) + 0.1)


def make_trajectory_engine(seed: int, n: int = 30) -> TrajectoryQueryEngine:
    rng = np.random.default_rng(seed)
    trajectories = [rng.random((int(k), 2)) for k in rng.integers(2, 9, n)]
    return TrajectoryQueryEngine(trajectories, GRID)


def raw_post(host: str, port: int, path: str, body: str):
    """One raw request, returning ``(status, parsed_body, headers)``."""
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("POST", path, body=body)
        response = connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload), dict(response.getheaders())
    finally:
        connection.close()


class TestEndToEndReplay:
    def test_query_log_over_http_equals_serial_engine(self):
        """The tentpole criterion: a full mixed log, every kind, bit-identical."""
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
                        response = client.query(request)
                        assert response.kind == request.kind
                        assert response.epoch == 7
                        responses.setdefault(request.kind.value, []).append(
                            response.result
                        )
                    client.close()

        # Vectorised kinds: requests_from_log splits per row, so the
        # concatenated results must equal the serial batch answers bitwise.
        served_range = [v for result in responses["range_mass"] for v in result]
        assert served_range == serial["range_mass"].tolist()
        served_density = [v for result in responses["point_density"] for v in result]
        assert served_density == serial["point_density"].tolist()
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


class TestErrorPaths:
    @pytest.fixture()
    def front(self):
        with ServingServer(GRID, workers=1) as server:
            server.publish(make_estimate(seed=4), epoch=0)
            server.start()
            with HttpServingFront(server) as running:
                yield running

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
