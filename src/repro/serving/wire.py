"""Versioned wire schema for the serving tier.

Every query that crosses a process or network boundary travels as a
:class:`QueryRequest` and comes back as a :class:`QueryResponse`.  The operation
kinds are a *closed* enum (:class:`QueryKind`) validated at parse time, and the
same kind strings key :class:`~repro.queries.engine.ReplayReport` stats and
replay answer dicts — so a producer and a consumer disagreeing on a kind name
(the ``"density"``/``"point_density"`` mismatch PR 8 fixed ad hoc) is now a
:class:`WireFormatError` at the boundary, not a silent key miss downstream.

The schema is versioned: ``schema_version`` rides in every message, and a
parser rejects versions it does not speak instead of misinterpreting payloads.
Version 1 is JSON, for every kind; Python's ``json`` emits shortest-round-trip
``repr`` floats, so float answers survive the wire bit-identically.

Version 2 is a binary *row frame* for the two kinds whose payload and answer
are float rows (:data:`ROW_KINDS`: ``range_mass`` and ``point_density``), so a
bulk request skips the text encode and parse that dominate its round trip::

    uint32 LE   H = header length in bytes
    H bytes     UTF-8 JSON header
    rest        little-endian float64 block, C order

A request header is ``{"kind", "schema_version": 2, "rows": n}`` over an
``n x 4`` block of ``[x_lo, x_hi, y_lo, y_hi]`` rows (``range_mass``) or an
``n x 2`` block of points (``point_density``); a response header adds
``generation`` and ``epoch`` over the ``n`` answers.  The block is decoded
with :func:`numpy.frombuffer`, so no float is ever printed or parsed: the
bytes that arrive are the IEEE doubles that were sent, and bit-identity
(including ``-0.0``, subnormals, infinities and NaN payloads) holds with no
special handling.  Request and response share one :func:`_frame` /
:func:`_unframe` pair, which rejects a short or overrun frame, a non-object
header, a wrong version, a kind with no row form, a bad ``rows`` count and a
block of the wrong size as :class:`WireFormatError`.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

#: Version of the JSON request/response schema this build speaks.
SCHEMA_VERSION = 1

#: Version of the binary row frame (:data:`ROW_KINDS` only).
ROWS_SCHEMA_VERSION = 2

#: Content-Type media type of a row-frame body.
ROWS_MEDIA_TYPE = "application/vnd.repro.rows"


class WireFormatError(ValueError):
    """A message failed wire-schema validation (unknown kind, bad shape, ...)."""


class QueryKind(str, enum.Enum):
    """The closed set of operation kinds the serving tier speaks.

    Values double as the kind strings of replay reports and answer dicts, the
    HTTP request ``kind`` field, and worker task tags — one vocabulary, defined
    once.
    """

    RANGE_MASS = "range_mass"
    POINT_DENSITY = "point_density"
    TOP_K = "top_k"
    QUANTILES = "quantiles"
    MARGINALS = "marginals"
    OD_TOP_K = "od_top_k"
    TRANSITION_TOP_K = "transition_top_k"
    LENGTH_HISTOGRAM = "length_histogram"

    @classmethod
    def parse(cls, value: object) -> "QueryKind":
        """Validate ``value`` as a kind; :class:`WireFormatError` on anything else."""
        try:
            return cls(value)
        except ValueError:
            valid = ", ".join(kind.value for kind in cls)
            raise WireFormatError(
                f"unknown query kind {value!r}; valid kinds: {valid}"
            ) from None


#: Kinds every point engine serves (the :class:`~repro.queries.QueryEngine` surface).
POINT_KINDS = frozenset(
    {
        QueryKind.RANGE_MASS,
        QueryKind.POINT_DENSITY,
        QueryKind.TOP_K,
        QueryKind.QUANTILES,
        QueryKind.MARGINALS,
    }
)

#: Kinds that need the trajectory surface (:class:`~repro.queries.TrajectoryQueryEngine`).
TRAJECTORY_KINDS = frozenset(
    {QueryKind.OD_TOP_K, QueryKind.TRANSITION_TOP_K, QueryKind.LENGTH_HISTOGRAM}
)

#: payload field each kind requires (empty tuple: no required fields).
_REQUIRED_FIELDS: dict[QueryKind, tuple[str, ...]] = {
    QueryKind.RANGE_MASS: ("queries",),
    QueryKind.POINT_DENSITY: ("points",),
    QueryKind.TOP_K: ("k",),
    QueryKind.QUANTILES: ("levels",),
    QueryKind.MARGINALS: (),
    QueryKind.OD_TOP_K: ("k",),
    QueryKind.TRANSITION_TOP_K: ("k",),
    QueryKind.LENGTH_HISTOGRAM: ("bins",),
}


#: kind -> (payload field, float columns per row) for the kinds with a row frame.
ROW_KINDS: dict[QueryKind, tuple[str, int]] = {
    QueryKind.RANGE_MASS: ("queries", 4),
    QueryKind.POINT_DENSITY: ("points", 2),
}

_HEADER_LENGTH = struct.Struct("<I")
_ROW_DTYPE = np.dtype("<f8")


def _jsonable(value: object) -> object:
    """``json.dumps`` hook: arrays travel as the lists ``tolist`` makes of them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _row_field(kind: QueryKind) -> tuple[str, int]:
    """``(payload field, columns)`` of a row kind; :class:`WireFormatError` otherwise."""
    try:
        return ROW_KINDS[kind]
    except KeyError:
        raise WireFormatError(
            f"{kind.value} has no row frame; send it as JSON "
            f"(schema_version {SCHEMA_VERSION})"
        ) from None


def _frame(header: dict, block: np.ndarray) -> bytes:
    """One row frame: length-prefixed JSON header, then the float64 block."""
    head = json.dumps({**header, "schema_version": ROWS_SCHEMA_VERSION}).encode()
    return b"".join((_HEADER_LENGTH.pack(len(head)), head, block.tobytes()))


def _unframe(frame: bytes, what: str, *, answers: bool) -> tuple[dict, QueryKind, np.ndarray]:
    """Validate one row frame; returns its header, kind and float64 block.

    The block is ``(rows, columns)`` for a request and ``(rows,)`` for the
    ``answers`` of a response.  It is a read-only view of ``frame``.
    """
    if len(frame) < _HEADER_LENGTH.size:
        raise WireFormatError(
            f"{what} frame is {len(frame)} bytes, too short for its header length"
        )
    (size,) = _HEADER_LENGTH.unpack_from(frame)
    start = _HEADER_LENGTH.size + size
    if start > len(frame):
        raise WireFormatError(
            f"{what} frame header of {size} bytes overruns the {len(frame)}-byte frame"
        )
    try:
        header = json.loads(frame[_HEADER_LENGTH.size : start])
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
        raise WireFormatError(f"{what} frame header is not valid JSON: {error}") from None
    if not isinstance(header, dict):
        raise WireFormatError(
            f"{what} frame header must be a JSON object, got {type(header).__name__}"
        )
    version = header.get("schema_version")
    if version != ROWS_SCHEMA_VERSION:
        raise WireFormatError(
            f"{what} frame schema_version {version!r} is not supported; "
            f"row frames are version {ROWS_SCHEMA_VERSION}"
        )
    kind = QueryKind.parse(header.get("kind"))
    _, columns = _row_field(kind)
    rows = header.get("rows")
    if type(rows) is not int or rows < 0:
        raise WireFormatError(f"{what} frame rows must be a non-negative int, got {rows!r}")
    shape = (rows,) if answers else (rows, columns)
    expected = _ROW_DTYPE.itemsize * math.prod(shape)
    if len(frame) - start != expected:
        raise WireFormatError(
            f"{what} frame block is {len(frame) - start} bytes; {rows} rows of "
            f"{kind.value} need {expected}"
        )
    return header, kind, np.frombuffer(frame, dtype=_ROW_DTYPE, offset=start).reshape(shape)


def _check_version(message: dict, what: str) -> int:
    version = message.get("schema_version")
    if version != SCHEMA_VERSION:
        raise WireFormatError(
            f"{what} schema_version {version!r} is not supported; "
            f"this build speaks version {SCHEMA_VERSION}"
        )
    return version


@dataclass(frozen=True)
class QueryRequest:
    """One query crossing the wire: a kind, its payload, and the schema version."""

    kind: QueryKind
    payload: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", QueryKind.parse(self.kind))
        if not isinstance(self.payload, dict):
            raise WireFormatError(
                f"request payload must be a JSON object, got {type(self.payload).__name__}"
            )
        for name in _REQUIRED_FIELDS[self.kind]:
            if name not in self.payload:
                raise WireFormatError(
                    f"{self.kind.value} request payload requires field {name!r}"
                )

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "payload": self.payload,
                "schema_version": self.schema_version,
            },
            default=_jsonable,
        )

    def to_bytes(self) -> bytes:
        """This request as a row frame (``range_mass`` and ``point_density`` only).

        The payload's floats are taken in C order as rows of the kind's width;
        a payload that does not divide into such rows is a
        :class:`WireFormatError` before anything is sent.
        """
        name, columns = _row_field(self.kind)
        try:
            block = np.asarray(self.payload[name], dtype=_ROW_DTYPE).reshape(-1, columns)
        except (TypeError, ValueError) as error:
            raise WireFormatError(
                f"{self.kind.value} {name} must be rows of {columns} floats: {error}"
            ) from None
        return _frame({"kind": self.kind.value, "rows": block.shape[0]}, block)

    @classmethod
    def from_bytes(cls, frame: bytes) -> "QueryRequest":
        """Parse a row frame; the payload field holds the ``(rows, columns)`` block."""
        _, kind, block = _unframe(frame, "request", answers=False)
        name, _ = ROW_KINDS[kind]
        return cls(kind, {name: block}, schema_version=ROWS_SCHEMA_VERSION)

    @classmethod
    def from_dict(cls, message: object) -> "QueryRequest":
        if not isinstance(message, dict):
            raise WireFormatError(
                f"request must be a JSON object, got {type(message).__name__}"
            )
        _check_version(message, "request")
        return cls(
            kind=QueryKind.parse(message.get("kind")),
            payload=message.get("payload", {}),
            schema_version=SCHEMA_VERSION,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "QueryRequest":
        try:
            message = json.loads(text)
        except ValueError as error:  # JSONDecodeError, or UnicodeDecodeError on bytes
            raise WireFormatError(f"request is not valid JSON: {error}") from None
        return cls.from_dict(message)


@dataclass(frozen=True)
class QueryResponse:
    """One answer crossing the wire, stamped with the snapshot that produced it."""

    kind: QueryKind
    result: Any
    generation: int | None = None
    epoch: int | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", QueryKind.parse(self.kind))

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "result": self.result,
                "generation": self.generation,
                "epoch": self.epoch,
                "schema_version": self.schema_version,
            },
            default=_jsonable,
        )

    def to_bytes(self) -> bytes:
        """This response as a row frame; ``result`` is the kind's float answers."""
        _row_field(self.kind)
        block = np.asarray(self.result, dtype=_ROW_DTYPE).reshape(-1)
        header = {
            "kind": self.kind.value,
            "generation": self.generation,
            "epoch": self.epoch,
            "rows": block.shape[0],
        }
        return _frame(header, block)

    @classmethod
    def from_bytes(cls, frame: bytes) -> "QueryResponse":
        """Parse a row frame; ``result`` is a list, as :meth:`from_json` gives."""
        header, kind, block = _unframe(frame, "response", answers=True)
        return cls(
            kind,
            block.tolist(),
            generation=header.get("generation"),
            epoch=header.get("epoch"),
            schema_version=ROWS_SCHEMA_VERSION,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "QueryResponse":
        try:
            message = json.loads(text)
        except ValueError as error:  # JSONDecodeError, or UnicodeDecodeError on bytes
            raise WireFormatError(f"response is not valid JSON: {error}") from None
        if not isinstance(message, dict):
            raise WireFormatError(
                f"response must be a JSON object, got {type(message).__name__}"
            )
        _check_version(message, "response")
        return cls(
            kind=QueryKind.parse(message.get("kind")),
            result=message.get("result"),
            generation=message.get("generation"),
            epoch=message.get("epoch"),
            schema_version=SCHEMA_VERSION,
        )


def requests_from_log(log) -> Iterator[QueryRequest]:
    """Expand a :class:`~repro.queries.engine.QueryLog` into wire requests.

    One request per logged operation (range/density rows each become their own
    request — the granularity live HTTP traffic arrives at, and what the batch
    coalescer is for).  Row order matches the replay order of
    :class:`~repro.queries.engine.WorkloadReplay`, so the concatenated responses
    compare directly against a serial replay's answer arrays.
    """
    for row in log.range_queries:
        yield QueryRequest(QueryKind.RANGE_MASS, {"queries": [list(map(float, row))]})
    for point in log.density_points:
        yield QueryRequest(QueryKind.POINT_DENSITY, {"points": [list(map(float, point))]})
    for k in log.top_k:
        yield QueryRequest(QueryKind.TOP_K, {"k": int(k)})
    for level in log.quantile_levels:
        yield QueryRequest(QueryKind.QUANTILES, {"levels": [float(level)]})
    for _ in range(log.n_marginal_requests):
        yield QueryRequest(QueryKind.MARGINALS)
    for k in log.od_top_k:
        yield QueryRequest(QueryKind.OD_TOP_K, {"k": int(k)})
    for k in log.transition_top_k:
        yield QueryRequest(QueryKind.TRANSITION_TOP_K, {"k": int(k)})
    for bins in log.length_histogram_bins:
        yield QueryRequest(QueryKind.LENGTH_HISTOGRAM, {"bins": int(bins)})
