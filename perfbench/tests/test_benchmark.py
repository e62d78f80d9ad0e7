"""The benchmark's own tests: statistics guards, answer checks, pinning, inputs.

Workload runs here are a few closed-loop steps in-process, never a timed run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import benchstats
import feeds
import hostspeed
import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------------ stats
def test_p90_with_fewer_than_ten_samples_beyond_is_refused():
    with pytest.raises(benchstats.ThinTailError):
        benchstats.tail_percentile(range(91), 0.9)  # rank 81.0: samples 82..90 lie beyond
    assert benchstats.tail_percentile(range(92), 0.9) == pytest.approx(81.9)  # 82..91 beyond


def test_quartile_spread_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    median, q1, q3, spread = benchstats.quartile_spread(values)
    expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected_q1, expected_q3)
    assert spread == pytest.approx((expected_q3 - expected_q1) / statistics.median(values))


# ----------------------------------------------------------------- checks
@pytest.fixture
def host():
    speed = hostspeed.HostSpeed()
    try:
        yield speed
    finally:
        speed.close()


@pytest.fixture
def query_workload():
    workload = workloads.QueryWorkload(seed=5)
    try:
        workload.setup(workloads.SetupClock())
        yield workload
    finally:
        workload.close()


def test_served_answers_match_the_serial_engine(query_workload, host):
    tally = workloads.Tally(host=host)
    for _ in range(2):
        query_workload.step(tally, tracing.Tracer())
    assert tally.attempted == 18
    assert tally.failed == 0, tally.reasons


def test_injected_wrong_answer_raises_failed_frac(query_workload, host):
    from repro.serving.wire import QueryResponse

    client = query_workload.client
    original = client.query

    def corrupting_query(request):
        response = original(request)
        if request.kind.value != "point_density":
            return response
        result = list(response.result)
        result[0] = np.nextafter(result[0], np.inf)  # one ulp off
        return QueryResponse(response.kind, result, response.generation, response.epoch)

    client.query = corrupting_query
    tally = workloads.Tally(host=host)
    query_workload.step(tally, tracing.Tracer())
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0
    assert list(tally.reasons) == ["point_density: answer differs from the serial engine"]


def test_refused_request_counts_as_failed(query_workload, host):
    from repro.serving import HttpStatusError

    def refusing_query(request):
        raise HttpStatusError(429, "admission queue full", retry_after=1.0)

    query_workload.client.query = refusing_query
    tally = workloads.Tally(host=host)
    query_workload.step(tally, tracing.Tracer())
    assert tally.attempted == 9
    assert tally.failed == 9
    assert tally.op == [] and tally.batch == []


# ---------------------------------------------------------------- pinning
def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=BENCH_DIR,
    )


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to tell pinned apart")
def test_pinning_happens_before_numpy_so_blas_uses_one_thread():
    proc = _python(
        "import json, os, sys\n"
        "import run\n"
        "assert 'numpy' not in sys.modules, 'importing run loaded numpy'\n"
        "cpu = run.prepare()\n"
        "import numpy as np\n"
        "np.ones((64, 64)) @ np.ones((64, 64))\n"
        "threads = [l for l in open('/proc/self/status') if l.startswith('Threads:')]\n"
        "print(json.dumps({'cpu': cpu, 'affinity': sorted(os.sched_getaffinity(0)),\n"
        "                  'threads': int(threads[0].split()[1])}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["affinity"] == [report["cpu"]]
    assert report["threads"] == 1  # an OpenBLAS pool sized for one CPU starts no extra threads


def test_pinning_after_numpy_is_refused():
    proc = _python("import numpy\nimport pinning\npinning.pin_to_one_cpu()\n")
    assert proc.returncode != 0
    assert "PinningError" in proc.stderr


# -------------------------------------------------------------- teardown
@pytest.mark.parametrize("ending", ["returns", "terminated"])
def test_a_run_has_ended_every_process_it_started_when_it_exits(tmp_path, ending):
    code = textwrap.dedent("""
        import multiprocessing, signal, sys, time
        from multiprocessing import resource_tracker, shared_memory
        import run
        signal.signal(signal.SIGTERM, run.exit_on_sigterm)
        segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
        segment.close()
        segment.unlink()

        def serve(ready):
            ready.set()
            time.sleep(600)

        context = multiprocessing.get_context("fork")
        ready = context.Event()
        worker = context.Process(target=serve, args=(ready,), daemon=True)
        worker.start()
        ready.wait(60)  # running, as a serving worker is by the time a run ends
        try:
            print(resource_tracker._resource_tracker._pid, worker.pid, flush=True)
            if sys.argv[1] == "terminated":
                time.sleep(600)
        finally:
            run.stop_child_processes()
    """)
    # Output goes to a file: the tracker inherits the run's stdout and stderr,
    # so reading them through pipes would wait for it and hide a straggler.
    output = tmp_path / "pids.txt"
    with open(output, "w") as handle:
        proc = subprocess.Popen([sys.executable, "-c", code, ending], stdout=handle,
                                stderr=subprocess.STDOUT, cwd=BENCH_DIR)
    deadline = time.monotonic() + 60
    while len(output.read_text().split()) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    if ending == "terminated":
        proc.terminate()
    assert proc.wait(60) == (0 if ending == "returns" else 128 + 15), output.read_text()
    pids = [int(pid) for pid in output.read_text().split()]
    assert len(pids) == 2
    assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []


# ----------------------------------------------------------------- inputs
def test_two_seeds_give_different_inputs_and_the_same_metric_set(host):
    assert np.array_equal(feeds.hotspot_epoch(1, 8, 500), feeds.hotspot_epoch(1, 8, 500))
    assert not np.array_equal(feeds.hotspot_epoch(1, 8, 500), feeds.hotspot_epoch(2, 8, 500))
    assert not np.array_equal(feeds.bulk_rows(1, 0, 64), feeds.bulk_rows(2, 0, 64))
    assert feeds.interactive_requests(1, 3, ("top_k",), 4) != feeds.interactive_requests(
        2, 3, ("top_k",), 4
    )
    metric_sets = []
    for seed in (1, 2):
        workload = workloads.QueryWorkload(seed)
        try:
            workload.setup(workloads.SetupClock())
            tally = workloads.Tally(host=host)
            for _ in range(12):  # 96 interactive requests: enough samples beyond p90
                workload.step(tally, tracing.Tracer())
        finally:
            workload.close()
        assert tally.failed == 0, tally.reasons
        metric_sets.append(set(workload.metrics(tally)))
    assert metric_sets[0] == metric_sets[1]
    end_to_end = {entry["name"] for entry in run.benchmark_spec()["end_to_end"]}
    assert metric_sets[0] | {"setup_s", "peak_rss_mb"} == end_to_end


# ------------------------------------------------------- host and memory
def test_scaled_samples_divide_by_the_reference_factor(host):
    tally = workloads.Tally(host=host)
    tally.sample_host("cpu")
    scaled = tally.record("batch", 0.010, "cpu")
    assert tally.batch_raw == [0.010]
    assert scaled == pytest.approx(0.010 / host.factor("cpu"))
    assert tally.host_ms["cpu"] and tally.host_ms["cpu_wall"] and not tally.host_ms["wake"]


def test_long_units_leave_out_steal_and_short_ones_keep_it(monkeypatch):
    stolen = iter([1.0, 1.25])  # seconds stolen at the start, then at the end
    monkeypatch.setattr(workloads.pinning, "stolen_seconds", lambda: next(stolen))
    start = workloads.start_unit()
    time.sleep(0.3)
    less_steal = workloads.seconds_since(start)
    wall = workloads.seconds_since(start, less_steal=False)
    assert wall >= 0.3
    assert wall - less_steal == pytest.approx(0.25, abs=0.01)


def test_reference_kernels_are_not_slowed_by_other_work_on_the_cpu():
    # A busy process on the pinned CPU slows wall-clock samples but not the
    # kernels' CPU time, so it cannot cancel out; the off-CPU share flags it.
    proc = _python(textwrap.dedent("""
        import json, statistics, subprocess, sys
        import run
        run.prepare()
        import hostspeed
        host = hostspeed.HostSpeed()
        host.calibrate()
        quiet = {key: list(ms) for key, ms in host.samples_ms.items()}
        spinner = subprocess.Popen([sys.executable, "-c", "print(flush=True)\\nwhile True: pass"],
                                   stdout=subprocess.PIPE)
        spinner.stdout.readline()  # spinning from here on, not still starting up
        try:
            # About 100 ms of samples: a 2 ms sample often runs inside one
            # scheduler slice untouched, so a short phase can miss the spinner.
            host.calibrate(samples=45, warmup=1)
        finally:
            spinner.kill()
            spinner.wait()
        busy = {key: ms[len(quiet[key]):] for key, ms in host.samples_ms.items()}
        host.close()
        print(json.dumps({
            "median": {phase: {key: statistics.median(ms) for key, ms in samples.items()}
                       for phase, samples in (("quiet", quiet), ("busy", busy))},
            "total": {key: sum(ms) for key, ms in busy.items()},
            "offcpu": {phase: hostspeed.offcpu_share(samples["cpu"], samples["cpu_wall"])
                       for phase, samples in (("quiet", quiet), ("busy", busy))},
        }))
    """))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    quiet, busy = report["median"]["quiet"], report["total"]
    # Paired twins of the same samples: the host's own drift moves both alike.
    assert quiet["cpu_wall"] < 1.1 * quiet["cpu"], quiet
    assert busy["cpu_wall"] > 1.3 * busy["cpu"], busy
    assert report["offcpu"]["busy"] > hostspeed.CONTENTION_LIMIT + report["offcpu"]["quiet"]


def _wait_for(event) -> None:
    event.wait(60)


def test_pages_a_forked_worker_inherits_count_once():
    inherited = np.ones(64 * 1024 * 1024 // 8)  # 64 MB, resident before the fork
    before = workloads.tree_pss_mb()
    context = multiprocessing.get_context("fork")
    release = context.Event()
    worker = context.Process(target=_wait_for, args=(release,))
    worker.start()
    try:
        after = workloads.tree_pss_mb()
    finally:
        release.set()
        worker.join(30)
    assert inherited.sum() == inherited.size
    assert after - before < 32  # a resident-set sum would add the whole parent again


# ---------------------------------------------------------------- tracing
def test_self_time_subtracts_children_and_accounting_keeps_the_remainder():
    spans = [
        (1, 0, "request", 0, 100, "main", {}),
        (2, 1, "http.roundtrip", 10, 90, "main", {}),
        (3, 2, "wire.request_parse", 20, 30, "front", {}),
        (4, 2, "engine.top_k", 40, 70, "serve", {}),
    ]
    assert tracing.self_times(spans) == {1: 20, 2: 40, 3: 10, 4: 30}
    table = tracing.accounting(spans)["request"]
    assert table["count"] == 1
    assert sum(table["self_ms"].values()) == pytest.approx(table["total_ms"])
    assert table["self_ms"]["(unattributed)"] == pytest.approx(20 / 1e6)


def test_probes_record_spans_and_restore_the_originals():
    from repro.queries.engine import QueryEngine
    from repro.serving.wire import QueryRequest

    originals = (QueryEngine.__dict__["top_k_cells"], QueryRequest.__dict__["from_json"])
    tracer = tracing.Tracer()
    probes = tracing.install_layer_probes(tracer)
    try:
        tracer.enabled = True
        with tracer.root("request.top_k"):
            request = QueryRequest.from_json('{"kind": "top_k", "payload": {"k": 2}, '
                                             '"schema_version": 1}')
    finally:
        tracer.enabled = False
        probes.remove()
    assert request.payload == {"k": 2}
    assert [span[2] for span in tracer.spans] == ["wire.request_parse", "request.top_k"]
    assert tracer.spans[0][1] == tracer.spans[1][0]
    assert (QueryEngine.__dict__["top_k_cells"], QueryRequest.__dict__["from_json"]) == originals
