"""Wire-schema tests: the closed kind enum, versioning, and log expansion.

The load-bearing property is that the kind vocabulary is defined ONCE: the
enum's values are exactly the kind strings ``WorkloadReplay`` reports and
answers under, so a producer/consumer kind mismatch (the PR 8
``"density"``/``"point_density"`` bug shape) cannot type-check against the
schema, and floats round-trip both the JSON schema (version 1) and the binary
row frame (version 2) bit-identically.
"""

import json
import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import GridSpec, SpatialDomain
from repro.queries import QueryEngine, QueryLog, TrajectoryQueryEngine, WorkloadReplay
from repro.serving.wire import (
    POINT_KINDS,
    ROW_KINDS,
    ROWS_SCHEMA_VERSION,
    SCHEMA_VERSION,
    TRAJECTORY_KINDS,
    QueryKind,
    QueryRequest,
    QueryResponse,
    WireFormatError,
    requests_from_log,
)


class TestQueryKind:
    def test_closed_set(self):
        assert {kind.value for kind in QueryKind} == {
            "range_mass",
            "point_density",
            "top_k",
            "quantiles",
            "marginals",
            "od_top_k",
            "transition_top_k",
            "length_histogram",
        }

    def test_parse_accepts_every_value(self):
        for kind in QueryKind:
            assert QueryKind.parse(kind.value) is kind

    def test_parse_rejects_unknown(self):
        with pytest.raises(WireFormatError, match="unknown query kind 'density'"):
            QueryKind.parse("density")

    def test_point_and_trajectory_kinds_partition_the_enum(self):
        assert POINT_KINDS | TRAJECTORY_KINDS == frozenset(QueryKind)
        assert POINT_KINDS & TRAJECTORY_KINDS == frozenset()

    def test_replay_report_keys_are_wire_kinds(self):
        """Report stats and answers key on enum values — the mismatch-proofing."""
        rng = np.random.default_rng(0)
        points = rng.random((500, 2))
        grid = GridSpec.unit(6)
        trajectories = [rng.random((5, 2)) for _ in range(20)]
        engine = TrajectoryQueryEngine(trajectories, grid)
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=8,
            n_density=4,
            n_top_k=2,
            n_quantiles=2,
            n_marginals=1,
            n_od_top_k=2,
            n_transition_top_k=2,
            n_length_histograms=2,
            seed=1,
        )
        report, answers = WorkloadReplay(engine).replay(log)
        valid = {kind.value for kind in QueryKind}
        assert set(report.per_kind) <= valid
        assert set(answers) <= valid
        assert set(report.per_kind) == set(answers)
        del points


class TestQueryRequest:
    def test_json_round_trip(self):
        request = QueryRequest(QueryKind.RANGE_MASS, {"queries": [[0.1, 0.4, 0.2, 0.9]]})
        parsed = QueryRequest.from_json(request.to_json())
        assert parsed == request
        assert parsed.schema_version == SCHEMA_VERSION

    def test_kind_validated_at_construction(self):
        with pytest.raises(WireFormatError, match="unknown query kind"):
            QueryRequest("density", {"points": [[0.5, 0.5]]})

    def test_string_kind_coerced_to_enum(self):
        request = QueryRequest("top_k", {"k": 3})
        assert request.kind is QueryKind.TOP_K

    def test_missing_required_field_rejected(self):
        with pytest.raises(WireFormatError, match="requires field 'k'"):
            QueryRequest(QueryKind.TOP_K, {})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(WireFormatError, match="payload must be a JSON object"):
            QueryRequest(QueryKind.MARGINALS, [1, 2])

    def test_invalid_json_rejected(self):
        with pytest.raises(WireFormatError, match="not valid JSON"):
            QueryRequest.from_json("{nope")

    def test_non_object_json_rejected(self):
        with pytest.raises(WireFormatError, match="must be a JSON object"):
            QueryRequest.from_json("[1, 2, 3]")

    def test_wrong_schema_version_rejected(self):
        text = QueryRequest(QueryKind.MARGINALS).to_json().replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 999'
        )
        with pytest.raises(WireFormatError, match="schema_version 999"):
            QueryRequest.from_json(text)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(WireFormatError, match="schema_version None"):
            QueryRequest.from_json('{"kind": "marginals", "payload": {}}')


class TestQueryResponse:
    def test_json_round_trip_is_bit_identical(self):
        """Shortest-round-trip float repr: answers survive the wire exactly."""
        rng = np.random.default_rng(2)
        values = [float(v) for v in rng.random(64)]
        response = QueryResponse(
            QueryKind.RANGE_MASS, values, generation=4, epoch=7
        )
        parsed = QueryResponse.from_json(response.to_json())
        assert parsed.result == values
        assert np.array(parsed.result).tobytes() == np.array(values).tobytes()
        assert parsed.generation == 4 and parsed.epoch == 7

    def test_wrong_schema_version_rejected(self):
        text = QueryResponse(QueryKind.TOP_K, {"cells": []}).to_json().replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 0'
        )
        with pytest.raises(WireFormatError, match="schema_version 0"):
            QueryResponse.from_json(text)


class TestRequestsFromLog:
    def test_one_request_per_logged_operation(self):
        log = QueryLog.random(
            SpatialDomain.unit(),
            n_range=5,
            n_density=3,
            n_top_k=2,
            n_quantiles=2,
            n_marginals=1,
            n_od_top_k=2,
            n_transition_top_k=1,
            n_length_histograms=1,
            seed=3,
        )
        requests = list(requests_from_log(log))
        assert len(requests) == log.size
        by_kind: dict = {}
        for request in requests:
            by_kind[request.kind] = by_kind.get(request.kind, 0) + 1
        assert by_kind[QueryKind.RANGE_MASS] == 5
        assert by_kind[QueryKind.POINT_DENSITY] == 3
        assert by_kind[QueryKind.MARGINALS] == 1
        assert by_kind[QueryKind.LENGTH_HISTOGRAM] == 1

    def test_range_rows_round_trip_bit_identically(self):
        log = QueryLog.random(SpatialDomain.unit(), n_range=7, seed=4)
        requests = list(requests_from_log(log))
        rows = np.array(
            [QueryRequest.from_json(r.to_json()).payload["queries"][0] for r in requests]
        )
        assert rows.tobytes() == log.range_queries.tobytes()

    def test_expanded_answers_match_serial_replay(self):
        rng = np.random.default_rng(5)
        engine = QueryEngine(GridSpec.unit(8).distribution(rng.random((2000, 2))))
        log = QueryLog.random(SpatialDomain.unit(), n_range=9, n_density=4, seed=6)
        _, answers = WorkloadReplay(engine).replay(log)
        per_request = [
            engine.answer_batch(np.array(request.payload["queries"]))[0]
            for request in requests_from_log(log)
            if request.kind is QueryKind.RANGE_MASS
        ]
        assert np.array(per_request).tobytes() == answers["range_mass"].tobytes()


#: Every float class the frame must carry bit for bit, next to ordinary values.
SPECIAL_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -2.2250738585072e-308,  # subnormal
    np.inf,
    -np.inf,
    np.nan,
    float(np.uint64(0xFFF8000000000123).view(np.float64)),  # negative NaN, payload
]
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL_FLOATS),
)


@st.composite
def row_blocks(draw, *, answers: bool = False):
    """``(kind, block)``: a row kind and 0..64 rows of its width (or its answers)."""
    kind = draw(st.sampled_from(sorted(ROW_KINDS)))
    rows = draw(st.integers(0, 64))
    shape = (rows,) if answers else (rows, ROW_KINDS[kind][1])
    return kind, draw(hnp.arrays(np.float64, shape, elements=FLOATS))


def raw_frame(header: object, block: bytes = b"") -> bytes:
    """A frame built by hand, so malformed ones can be written too."""
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + block


class TestRowFrame:
    @settings(max_examples=120, deadline=None)
    @given(row_blocks(), st.booleans())
    def test_request_round_trip_is_bit_identical(self, kind_block, as_list):
        kind, block = kind_block
        name, _ = ROW_KINDS[kind]
        payload = {name: block.tolist() if as_list else block}
        parsed = QueryRequest.from_bytes(QueryRequest(kind, payload).to_bytes())
        assert parsed.kind is kind
        assert parsed.schema_version == ROWS_SCHEMA_VERSION
        assert parsed.payload[name].shape == block.shape
        assert parsed.payload[name].tobytes() == block.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(row_blocks(answers=True), st.integers(0, 2**40), st.none() | st.integers(0, 99))
    def test_response_round_trip_is_bit_identical(self, kind_block, generation, epoch):
        kind, block = kind_block
        frame = QueryResponse(kind, block, generation=generation, epoch=epoch).to_bytes()
        parsed = QueryResponse.from_bytes(frame)
        assert (parsed.kind, parsed.generation, parsed.epoch) == (kind, generation, epoch)
        assert isinstance(parsed.result, list)
        assert np.array(parsed.result, dtype=np.float64).tobytes() == block.tobytes()

    def test_header_and_block_layout(self):
        rows = np.array([[0.1, 0.6, 0.2, 0.9], [0.0, 1.0, 0.0, 1.0]])
        frame = QueryRequest(QueryKind.RANGE_MASS, {"queries": rows}).to_bytes()
        (size,) = struct.unpack_from("<I", frame)
        header = json.loads(frame[4 : 4 + size])
        assert header == {"kind": "range_mass", "schema_version": 2, "rows": 2}
        assert frame[4 + size :] == rows.astype("<f8").tobytes()

    def test_payload_not_dividing_into_rows_rejected(self):
        request = QueryRequest(QueryKind.RANGE_MASS, {"queries": [[0.1, 0.2, 0.3]]})
        with pytest.raises(WireFormatError, match="rows of 4 floats"):
            request.to_bytes()

    def test_kind_without_row_form_cannot_be_framed(self):
        with pytest.raises(WireFormatError, match="top_k has no row frame"):
            QueryRequest(QueryKind.TOP_K, {"k": 3}).to_bytes()
        with pytest.raises(WireFormatError, match="marginals has no row frame"):
            QueryResponse(QueryKind.MARGINALS, {"x": [], "y": []}).to_bytes()

    @pytest.mark.parametrize(
        "frame, match",
        [
            (b"\x05\x00", "too short"),
            (struct.pack("<I", 100) + b"{}", "overruns"),
            (struct.pack("<I", 5) + b"{nope", "not valid JSON"),
            (struct.pack("<I", 2) + b"\xff\xfe", "not valid JSON"),
            (raw_frame([1, 2]), "must be a JSON object"),
            (raw_frame({"kind": "range_mass", "rows": 0}), "schema_version None"),
            (raw_frame({"kind": "range_mass", "schema_version": 1, "rows": 0}), "schema_version 1"),
            (raw_frame({"kind": "florble", "schema_version": 2, "rows": 0}), "unknown query kind"),
            (raw_frame({"kind": "top_k", "schema_version": 2, "rows": 0}), "no row frame"),
            (raw_frame({"kind": "range_mass", "schema_version": 2}), "rows must be"),
            (raw_frame({"kind": "range_mass", "schema_version": 2, "rows": -1}), "rows must be"),
            (raw_frame({"kind": "range_mass", "schema_version": 2, "rows": 1.0}), "rows must be"),
            (raw_frame({"kind": "range_mass", "schema_version": 2, "rows": True}), "rows must be"),
            (
                raw_frame({"kind": "range_mass", "schema_version": 2, "rows": 1}, bytes(31)),
                "block is 31 bytes",
            ),
            (
                raw_frame({"kind": "point_density", "schema_version": 2, "rows": 1}, bytes(24)),
                "block is 24 bytes",
            ),
        ],
    )
    def test_malformed_request_frames_rejected(self, frame, match):
        with pytest.raises(WireFormatError, match=match):
            QueryRequest.from_bytes(frame)

    @pytest.mark.parametrize(
        "header, block, match",
        [
            ({"kind": "range_mass", "schema_version": 3, "rows": 0}, b"", "schema_version 3"),
            ({"kind": "quantiles", "schema_version": 2, "rows": 0}, b"", "no row frame"),
            ({"kind": "range_mass", "schema_version": 2, "rows": "2"}, bytes(16), "rows must be"),
            # A response block holds one answer per row, not the request's width.
            ({"kind": "range_mass", "schema_version": 2, "rows": 2}, bytes(64), "block is 64"),
        ],
    )
    def test_malformed_response_frames_rejected(self, header, block, match):
        with pytest.raises(WireFormatError, match=match):
            QueryResponse.from_bytes(raw_frame(header, block))


class TestJsonArrays:
    @settings(max_examples=80, deadline=None)
    @given(row_blocks(answers=True))
    def test_array_result_encodes_as_its_list(self, kind_block):
        """v1 text of an ndarray answer is the text of its ``tolist()``."""
        kind, block = kind_block
        as_array = QueryResponse(kind, block, generation=1, epoch=2).to_json()
        assert as_array == QueryResponse(kind, block.tolist(), generation=1, epoch=2).to_json()

    def test_array_payload_encodes_as_its_list(self):
        rows = np.array([[0.1, 0.6, 0.2, 0.9]])
        as_array = QueryRequest(QueryKind.RANGE_MASS, {"queries": rows}).to_json()
        assert as_array == QueryRequest(QueryKind.RANGE_MASS, {"queries": rows.tolist()}).to_json()

    def test_other_objects_still_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            QueryResponse(QueryKind.TOP_K, {"cells": object()}).to_json()
