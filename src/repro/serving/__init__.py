"""Concurrent query serving over shared-memory window snapshots.

The serving tier of the streaming stack: a publisher (the ingest loop) writes
each epoch's posterior + summed-area table into a shared-memory segment behind
a seqlock generation counter (:mod:`repro.serving.shm`), and N long-lived
worker processes answer queries zero-copy against it
(:mod:`repro.serving.server`), bit-identically to a serial
:class:`~repro.queries.engine.QueryEngine`.  Queries cross process and network
boundaries as the versioned wire schema (:mod:`repro.serving.wire`: JSON for
every kind, a binary row frame for range and density rows), and
:mod:`repro.serving.http` puts an asyncio HTTP/1.1 face on the whole surface —
point and trajectory kinds alike.  See the "Serving tier" and "Network front"
sections of ``docs/ARCHITECTURE.md`` for the layout and protocol.
"""

from repro.serving.http import HttpQueryClient, HttpServingFront, HttpStatusError
from repro.serving.server import (
    ArenaSpec,
    BackpressureError,
    ServedBatch,
    ServingServer,
    WorkloadArena,
)
from repro.serving.shm import (
    SnapshotReader,
    SnapshotSpec,
    SnapshotWriter,
    TornSnapshotError,
    TrajectorySnapshotReader,
    TrajectorySnapshotSpec,
    TrajectorySnapshotWriter,
)
from repro.serving.wire import (
    POINT_KINDS,
    ROW_KINDS,
    ROWS_MEDIA_TYPE,
    ROWS_SCHEMA_VERSION,
    SCHEMA_VERSION,
    TRAJECTORY_KINDS,
    QueryKind,
    QueryRequest,
    QueryResponse,
    WireFormatError,
    requests_from_log,
)

__all__ = [
    "ArenaSpec",
    "BackpressureError",
    "HttpQueryClient",
    "HttpServingFront",
    "HttpStatusError",
    "POINT_KINDS",
    "QueryKind",
    "QueryRequest",
    "QueryResponse",
    "ROW_KINDS",
    "ROWS_MEDIA_TYPE",
    "ROWS_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "ServedBatch",
    "ServingServer",
    "SnapshotReader",
    "SnapshotSpec",
    "SnapshotWriter",
    "TRAJECTORY_KINDS",
    "TornSnapshotError",
    "TrajectorySnapshotReader",
    "TrajectorySnapshotSpec",
    "TrajectorySnapshotWriter",
    "WireFormatError",
    "WorkloadArena",
    "requests_from_log",
]
