"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

``BENCHMARK.json`` lists the per-layer metrics (names, units, directions)
under ``per_layer``; :func:`layer_metrics` computes every one of them from
the spans of the traced phase, and :data:`SHOULD_MOVE` says which end-to-end
metric a change to that layer should move.  A layer a workload does not
drive reports ``0``: it had no calls, which is the prediction for that
workload.  Times are mean per call (so that mean x calls is the layer's busy
time), counts are mean per call unless named otherwise.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import ENGINE_METHODS, root_of

_LIVE_SWEEP_EM = "epoch_ms_p50 + estimate_sw [live]; cell_ms_p50 + sweep_s [sweep]"
_REQUESTS = "request_ms_p50 [live, query]"
_WIRE = "bulk_rows_per_s most [query]; request_ms_p50 [query, live]"
_SWEEP = "cell_ms_p50, sweep_s [sweep]"
_METRIC_SWEEP = "sweep_s most; cell_ms_p50 [sweep]"
_SETUP = "setup_s [all]"

#: per-layer metric -> the end-to-end metric it should move [on workloads]
SHOULD_MOVE = {
    "parallel.aggregate_ms": "epoch_ms_p50, epoch_ms_p90 [live]",
    "window.commit_ms": "epoch_ms_p50 [live]",
    "postprocess.em_ms": _LIVE_SWEEP_EM,
    "postprocess.em_iterations": _LIVE_SWEEP_EM,
    "postprocess.em_converged_frac": _LIVE_SWEEP_EM,
    "postprocess.smooth_ms": _SWEEP,
    "engine.refresh_ms": "epoch_ms_p50 [live]",
    "engine.range_mass_ms": "bulk_rows_per_s [query]; " + _REQUESTS,
    "engine.point_density_ms": _REQUESTS,
    "engine.top_k_ms": _REQUESTS,
    "engine.quantiles_ms": _REQUESTS,
    "engine.marginals_ms": _REQUESTS,
    "engine.od_top_k_ms": "request_ms_p50 [query]",
    "engine.transition_top_k_ms": "request_ms_p50 [query]",
    "engine.length_histogram_ms": "request_ms_p50 [query]",
    "shm.publish_ms": "epoch_ms_p50 [live]",
    "shm.read_ms": _REQUESTS,
    "shm.read_retries": "request_ms_p90 [live]",
    "server.range_ms": "bulk_rows_per_s [query]",
    "server.tasks": "bulk_rows_per_s [query]",
    "wire.request_encode_ms": _WIRE,
    "wire.request_parse_ms": _WIRE,
    "wire.response_encode_ms": _WIRE,
    "wire.response_parse_ms": _WIRE,
    "wire.request_bytes": _WIRE,
    "wire.response_bytes": _WIRE,
    "http.roundtrip_ms": "request_ms_p50, request_ms_p90 [query, live]",
    "http.server_ms": "request_ms_p50 [query, live]",
    "http.rejected": "failed_frac [query, live]",
    "runner.build_ms": _SWEEP,
    "mechanism.run_ms": _SWEEP,
    "wasserstein.lp_ms": _METRIC_SWEEP,
    "sinkhorn.ms": _METRIC_SWEEP,
    "sinkhorn.iterations": _METRIC_SWEEP,
    "trajectory.cell_ms": "sweep_s [sweep]",
    "setup.import_s": _SETUP,
    "setup.build_s": _SETUP,
    "setup.warmup_s": _SETUP,
    "trace.op_overhead_ms": "op_ms_p50 traced minus untraced",
    "trace.batch_overhead_ms": "batch_ms traced minus untraced",
    "host.cpu_factor": "divides epoch, bulk request, cell and set-up samples (not a layer)",
    "host.wake_factor": "divides interactive request samples (not a layer)",
}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    spans, setups: list[dict], http: dict | None, overhead: dict, host_factors: dict
) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced phase.

    Span times are as measured; ``host.*_factor`` are the traced phase's
    median reference-kernel slowdowns, which the scaled end-to-end metrics
    divide by.
    ``setups`` are the scaled set-up phase times of every cold start.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for record in spans:
        by_name[record[2]].append(record)

    def mean_ms(name: str) -> float:
        return _mean((end - start) / 1e6 for _, _, _, start, end, _, _ in by_name[name])

    def mean_attr(name: str, key: str) -> float:
        return _mean(record[6][key] for record in by_name[name] if key in record[6])

    em = by_name["postprocess.em"]
    values = {
        "parallel.aggregate_ms": mean_ms("parallel.aggregate"),
        "window.commit_ms": mean_ms("window.commit"),
        "postprocess.em_ms": mean_ms("postprocess.em"),
        "postprocess.em_iterations": mean_attr("postprocess.em", "iterations"),
        "postprocess.em_converged_frac": _mean(float(r[6]["converged"]) for r in em),
        "postprocess.smooth_ms": mean_ms("postprocess.smooth"),
        "engine.refresh_ms": mean_ms("engine.refresh"),
        "shm.publish_ms": mean_ms("shm.publish"),
        "shm.read_ms": mean_ms("shm.read"),
        "shm.read_retries": float(sum(r[6].get("retries", 0) for r in by_name["shm.read"])),
        "server.tasks": mean_attr("server.collect", "tasks"),
        "wire.request_encode_ms": mean_ms("wire.request_encode"),
        "wire.request_parse_ms": mean_ms("wire.request_parse"),
        "wire.response_encode_ms": mean_ms("wire.response_encode"),
        "wire.response_parse_ms": mean_ms("wire.response_parse"),
        "wire.request_bytes": mean_attr("wire.request_encode", "bytes"),
        "wire.response_bytes": mean_attr("wire.response_encode", "bytes"),
        "http.roundtrip_ms": mean_ms("http.roundtrip"),
        "runner.build_ms": mean_ms("runner.build"),
        "mechanism.run_ms": mean_ms("mechanism.run"),
        "wasserstein.lp_ms": mean_ms("wasserstein.lp"),
        "sinkhorn.ms": mean_ms("sinkhorn"),
        "sinkhorn.iterations": mean_attr("sinkhorn.plan", "iterations"),
        "trajectory.cell_ms": mean_ms("cell.trajectory"),
    }
    for stem in ENGINE_METHODS.values():
        values[f"engine.{stem}_ms"] = mean_ms(f"engine.{stem}")

    # server.range_ms: submit + flush + collect per range request, counting a
    # flush that collect makes itself only once (it is nested in collect).
    names = {record[0]: record[2] for record in spans}
    roots = root_of(spans)
    per_request: dict[int, float] = defaultdict(float)
    for span_id, parent, name, start, end, _, _ in spans:
        if name.startswith("server.") and not names.get(parent, "").startswith("server."):
            per_request[roots[span_id]] += (end - start) / 1e6
    values["server.range_ms"] = _mean(per_request.values())

    per_kind = (http or {}).get("per_kind", {})
    values["http.server_ms"] = _mean(stats["latency_p50"] * 1e3 for stats in per_kind.values())
    values["http.rejected"] = float((http or {}).get("rejected_requests", 0))

    for phase in ("import", "build", "warmup"):
        values[f"setup.{phase}_s"] = statistics.median(s[phase] for s in setups)
    values["trace.op_overhead_ms"] = overhead["op_ms_p50"]
    values["trace.batch_overhead_ms"] = overhead["batch_ms"]
    for kind, factor in host_factors.items():
        values[f"host.{kind}_factor"] = factor
    return values
