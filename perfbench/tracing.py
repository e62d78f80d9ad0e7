"""In-memory span tracing around the public functions of each repro layer.

Nothing under ``src/`` knows about this module.  :func:`install_layer_probes`
replaces public functions and methods of the repro layers with thin wrappers
that record a span per call, and the returned :class:`Probes` puts every
original back.  Spans stay in memory (a list of tuples) and are written as
JSONL once, when the run ends.

Parenting: a span's parent is the innermost open span on its own thread.  A
span opened on a thread with no open span (the HTTP front's event loop and
serving threads) is parented to the innermost span the *client* thread has
open, usually the client's ``http.roundtrip``.  The load generator is a
closed loop with one request in flight, so this links every server-side span
to the request that caused it, and the client span's self time is what no
layer span covers: sockets, the event loop and thread hand-offs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Span record layout: (id, parent id, name, start ns, end ns, thread name, attrs).
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "thread", "attrs")


class Tracer:
    """Collects spans in memory; a disabled tracer costs one attribute check per call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: the open-span stack of the load-generating client thread (set by :meth:`root`)
        self._client: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple:
        """Start a span; pass the returned token to :meth:`close`."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # Outermost span of a server thread: caused by whatever the client
            # thread is blocked in (one request in flight, closed loop).
            client = self._client
            parent = client[-1] if client else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack, time.perf_counter_ns()

    def close(self, token: tuple, name: str, attrs: dict) -> None:
        end = time.perf_counter_ns()
        span_id, parent, stack, start = token
        stack.pop()
        self.spans.append(
            (span_id, parent, name, start, end, threading.current_thread().name, attrs)
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may fill with attributes."""
        if not self.enabled:
            yield {}
            return
        attrs: dict = {}
        token = self.open()
        try:
            yield attrs
        finally:
            self.close(token, name, attrs)

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level unit of work; server threads' spans attach beneath it."""
        self._client = self._stack()
        with self.span(name) as attrs:
            yield attrs

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (benchmark bookkeeping, answer checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield {}
        finally:
            self.enabled = enabled

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, record))) + "\n")


class Probes:
    """The wrappers installed into repro; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``.

        ``before(attrs, args)`` runs before the call and ``after(attrs, args,
        result)`` after it; both may add attributes to the span.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return target(*args, **kwargs)
            attrs: dict = {}
            token = tracer.open()
            try:
                if before is not None:
                    before(attrs, args)
                result = target(*args, **kwargs)
                if after is not None:
                    after(attrs, args, result)
                return result
            finally:
                tracer.close(token, name, attrs)

        installed = staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper
        setattr(owner, attr, installed)
        self._installed.append((owner, attr, raw))

    def replace(self, owner, attr: str, value) -> None:
        """Install ``value`` as ``owner.attr`` until :meth:`remove`."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            if raw is None:  # the wrapper shadowed an inherited attribute
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._installed.clear()


#: Modules that call ``expectation_maximization`` / ``make_grid_smoother`` by a
#: name they imported; each binding is wrapped where it is looked up.
_EM_MODULES = (
    "repro.core.postprocess",
    "repro.core.dam",
    "repro.core.huem",
    "repro.mechanisms.geo_i",
    "repro.mechanisms.sem_geo_i",
    "repro.mechanisms.sw",
    "repro.streaming.service",
)
_SMOOTHER_MODULES = (
    "repro.core.dam",
    "repro.core.huem",
    "repro.mechanisms.geo_i",
    "repro.mechanisms.sem_geo_i",
    "repro.streaming.service",
)

#: Engine method -> the per-layer metric stem (one per ``QueryKind``).
ENGINE_METHODS = {
    "range_mass": "range_mass",
    "point_density": "point_density",
    "top_k_cells": "top_k",
    "quantile_contours": "quantiles",
    "axis_marginals": "marginals",
    "od_top_k": "od_top_k",
    "transition_top_k": "transition_top_k",
    "length_histogram": "length_histogram",
}


def install_layer_probes(tracer: Tracer) -> Probes:
    """Wrap the public entry points of every layer the workloads drive."""
    from repro.core.parallel import ParallelPipeline
    from repro.experiments import runner
    from repro.metrics import sinkhorn, wasserstein
    from repro.queries.engine import QueryEngine, StreamingQueryEngine, TrajectoryQueryEngine
    from repro.serving.http import HttpQueryClient
    from repro.serving.server import ServingServer
    from repro.serving.shm import (
        SnapshotReader,
        SnapshotWriter,
        TrajectorySnapshotReader,
        TrajectorySnapshotWriter,
    )
    from repro.serving.wire import QueryRequest, QueryResponse
    from repro.streaming.window import WindowedAggregator

    probes = Probes(tracer)
    probes.wrap(ParallelPipeline, "aggregate", "parallel.aggregate")
    probes.wrap(WindowedAggregator, "commit_aggregate", "window.commit")

    def em_result(attrs, args, result):
        attrs["iterations"] = int(result.iterations)
        attrs["converged"] = bool(result.converged)

    for module_name in _EM_MODULES:
        module = importlib.import_module(module_name)
        probes.wrap(module, "expectation_maximization", "postprocess.em", after=em_result)
    for module_name in _SMOOTHER_MODULES:
        module = importlib.import_module(module_name)
        factory = module.make_grid_smoother

        def make_traced_smoother(*args, _factory=factory, **kwargs):
            smooth = _factory(*args, **kwargs)

            def traced(theta):
                with tracer.span("postprocess.smooth"):
                    return smooth(theta)

            return traced

        probes.replace(module, "make_grid_smoother", make_traced_smoother)

    probes.wrap(StreamingQueryEngine, "refresh", "engine.refresh")
    for method, stem in ENGINE_METHODS.items():
        owner = QueryEngine if hasattr(QueryEngine, method) else TrajectoryQueryEngine
        probes.wrap(owner, method, f"engine.{stem}")

    def retries_before(attrs, args):
        attrs["retries"] = args[0].retries

    def retries_after(attrs, args, result):
        attrs["retries"] = args[0].retries - attrs["retries"]

    for writer in (SnapshotWriter, TrajectorySnapshotWriter):
        probes.wrap(writer, "publish", "shm.publish")
    for reader in (SnapshotReader, TrajectorySnapshotReader):
        probes.wrap(reader, "read", "shm.read", before=retries_before, after=retries_after)

    def tasks_after(attrs, args, result):
        attrs["tasks"] = len(result.generations)

    probes.wrap(ServingServer, "submit_range_mass", "server.submit")
    probes.wrap(ServingServer, "flush", "server.flush")
    probes.wrap(ServingServer, "collect", "server.collect", after=tasks_after)

    def encoded_bytes(attrs, args, result):
        attrs["bytes"] = len(result)

    def parsed_bytes(attrs, args, result):
        attrs["bytes"] = len(args[0])

    probes.wrap(QueryRequest, "to_json", "wire.request_encode", after=encoded_bytes)
    probes.wrap(QueryRequest, "from_json", "wire.request_parse", after=parsed_bytes)
    probes.wrap(QueryResponse, "to_json", "wire.response_encode", after=encoded_bytes)
    probes.wrap(QueryResponse, "from_json", "wire.response_parse", after=parsed_bytes)
    probes.wrap(HttpQueryClient, "query", "http.roundtrip")

    def traced_run(attrs, args, mechanism):
        run = mechanism.run

        @functools.wraps(run)
        def timed_run(*run_args, **run_kwargs):
            with tracer.span("mechanism.run"):
                return run(*run_args, **run_kwargs)

        mechanism.run = timed_run

    probes.wrap(runner, "build_mechanism", "runner.build", after=traced_run)
    probes.wrap(wasserstein, "wasserstein2_grid", "wasserstein.lp")
    probes.wrap(sinkhorn, "sinkhorn_wasserstein", "sinkhorn")

    def sinkhorn_iterations(attrs, args, result):
        attrs["iterations"] = int(result[1].iterations)

    probes.wrap(sinkhorn, "sinkhorn_plan", "sinkhorn.plan", after=sinkhorn_iterations)
    return probes


# ----------------------------------------------------------------- analysis
def self_times(spans: list[tuple]) -> dict[int, int]:
    """Each span's duration minus the part of its interval its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span_id, parent, _, start, end, _, _ in spans:
        if parent:
            children[parent].append((start, end))
    result = {}
    for span_id, _, _, start, end, _, _ in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def root_of(spans: list[tuple]) -> dict[int, int]:
    """Map every span id to the id of its outermost ancestor."""
    parents = {record[0]: record[1] for record in spans}
    roots: dict[int, int] = {}
    for span_id in parents:
        chain = [span_id]
        current = span_id
        while parents.get(current) and parents[current] in parents:
            current = parents[current]
            if current in roots:
                break
            chain.append(current)
        top = roots.get(current, current)
        for link in chain:
            roots[link] = top
    return roots


def accounting(spans: list[tuple]) -> dict[str, dict]:
    """Per root kind: count, total ms, and calls and self ms of every span name beneath it.

    The root's own self time is the unattributed remainder: time inside the
    benchmark-level unit that no layer span covers (socket I/O, thread
    hand-offs, interpreter overhead between calls).
    """
    selfs = self_times(spans)
    roots = root_of(spans)
    by_id = {record[0]: record for record in spans}
    table: dict[str, dict] = {}
    for span_id, parent, name, start, end, _, _ in spans:
        root_name = by_id[roots[span_id]][2]
        entry = table.setdefault(
            root_name, {"count": 0, "total_ms": 0.0, "self_ms": {}, "calls": {}}
        )
        if roots[span_id] == span_id:
            entry["count"] += 1
            entry["total_ms"] += (end - start) / 1e6
            key = "(unattributed)"
        else:
            key = name
        entry["self_ms"][key] = entry["self_ms"].get(key, 0.0) + selfs[span_id] / 1e6
        entry["calls"][key] = entry["calls"].get(key, 0) + 1
    return table


def format_accounting(workload: str, table: dict[str, dict]) -> list[str]:
    """Human-readable self-time table, one block per root kind."""
    lines = [f"[{workload}] per-layer self time and calls per unit (traced phase, raw ms)"]
    for root_name in sorted(table):
        entry = table[root_name]
        count = entry["count"] or 1
        total = entry["total_ms"]
        lines.append(
            f"  {root_name}: n={entry['count']}  mean {total / count:.4f} ms/unit"
        )
        for key, value in sorted(entry["self_ms"].items(), key=lambda item: -item[1]):
            share = value / total if total > 0 else 0.0
            calls = entry["calls"][key] / count
            lines.append(
                f"    {key:<28} {value / count:>10.4f} ms  {share:>6.1%}  {calls:>8.1f} calls"
            )
    return lines
