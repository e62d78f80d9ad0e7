"""End-to-end benchmark of the repro system: ``live``, ``query`` and ``sweep``.

One workload per invocation, run from the repository root::

    python3 perfbench/run.py --workload live --seed 3 --seconds 20 --trace 0

prints a human-readable report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Other modes::

    python3 perfbench/run.py --workload all --seed 3          # every workload, one report
    python3 perfbench/run.py --steadiness                     # run-to-run spread vs bounds

Every workload pins its whole process tree to one CPU before numpy is
imported (see ``pinning.py``), and drives the system as a closed loop from
this one process.  ``perfbench/README.md`` records why each workload and
metric exists and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402  (stdlib only; safe before pinning)
import pinning  # noqa: E402

WORKLOAD_NAMES = ("live", "query", "sweep")
#: fresh-process cold starts per run (this process plus four probes); setup_s is their median
COLD_STARTS = 5
#: a probe or child run that takes longer than this has hung
CHILD_TIMEOUT_S = 170
#: how long a child asked to stop may take to close its workload before it is killed
CHILD_STOP_S = 30
#: a sweep phase keeps going until every cell ran once, but never this much past its deadline
MAX_OVERRUN_S = 60.0
#: runs of every workload in the steadiness report, one seed each
REPEATS = 10
RUN_LINE = "perfbench-run "


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness",
        action="store_true",
        help=f"run every workload {REPEATS} times (alternating order, one seed per "
        "run) and print each metric's median, quartiles and spread against its bound",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------ one workload
def timed_setup(workload) -> dict:
    """Set ``workload`` up; returns its phase times and the host factor around them."""
    import workloads
    from hostspeed import HostSpeed

    host = HostSpeed()
    try:
        host.calibrate()
        clock = workloads.SetupClock()
        workload.setup(clock)
        host.calibrate(warmup=0)
        factor = host.factor("cpu", window=len(host.samples_ms["cpu"]))
    finally:
        host.close()
    return {"phases": dict(clock.phases), "host_factor": factor}


def scaled_setup(setup: dict) -> dict:
    """Phase times scaled to the nominal host speed."""
    return {phase: seconds / setup["host_factor"] for phase, seconds in setup["phases"].items()}


def run_child(command: list[str]) -> subprocess.CompletedProcess:
    """Run a child benchmark process to its end, and stop it if this run ends first.

    Every process the child starts (serving workers, the resource tracker)
    holds its output pipes, so reading them to the end waits for all of
    them.  On a timeout or an interrupt the child gets SIGTERM, which makes
    it close its workload and stop its own children the same way.
    """
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.terminate()
            try:
                proc.communicate(timeout=CHILD_STOP_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)


def cold_start(name: str, seed: int) -> dict:
    """Set a workload up in a fresh process; returns :func:`timed_setup`'s record."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    proc = run_child(command)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start of {name} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_phase(workload, tracer, host, deadline: float):
    """Closed loop: one unit of work after another until the deadline."""
    import workloads

    tally = workloads.Tally(host=host)
    while time.perf_counter() < deadline or not workload.complete(tally):
        if time.perf_counter() > deadline + MAX_OVERRUN_S:
            break
        workload.step(tally, tracer)
        tally.sample_memory()
    return tally


def measure(name: str, seed: int, seconds: float, *, trace: bool, cold_starts: int) -> dict:
    """Set up, measure for ``seconds`` and tear down one workload (pinned process)."""
    import workloads
    from hostspeed import HostSpeed
    from layers import layer_metrics
    from tracing import Tracer, accounting, install_layer_probes

    setups = [cold_start(name, seed) for _ in range(cold_starts - 1)]
    workload = workloads.WORKLOADS[name](seed)
    tracer = Tracer()
    host = HostSpeed()
    try:
        setups.append(timed_setup(workload))
        setup_mb = workloads.tree_pss_mb()
        host.calibrate()
        start = time.perf_counter()
        if trace:
            untraced = run_phase(workload, tracer, host, start + seconds / 2)
            probes = install_layer_probes(tracer)
            tracer.enabled = True
            try:
                traced = run_phase(workload, tracer, host, start + seconds)
            finally:
                tracer.enabled = False
                probes.remove()
            tally = untraced.merge(traced)
        else:
            tally = run_phase(workload, tracer, host, start + seconds)
        http = workload.http_metrics() if hasattr(workload, "http_metrics") else None
    finally:
        workload.close()
        host.close()

    setup_samples = [sum(scaled_setup(setup).values()) for setup in setups]
    result = {
        "workload": workload,
        "tally": tally,
        "setups": setups,
        "setup_samples": setup_samples,
        "metrics": {
            "setup_s": statistics.median(setup_samples),
            **workload.metrics(tally),
            "peak_rss_mb": max(setup_mb, tally.peak_mb),
        },
    }
    if trace:
        untraced_metrics = workload.metrics(untraced)
        traced_metrics = workload.metrics(traced)
        overhead = {
            key: traced_metrics[key] - untraced_metrics[key] for key in ("op_ms_p50", "batch_ms")
        }
        result["overhead"] = overhead
        result["untraced"] = untraced_metrics
        result["traced"] = traced_metrics
        result["layers"] = layer_metrics(
            tracer.spans, [scaled_setup(setup) for setup in setups], http, overhead,
            host_factors(traced),
        )
        result["accounting"] = accounting(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        result["trace_file"] = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(result["trace_file"])
    return result


def host_factors(tally) -> dict:
    """Median slowdown of each reference kernel over a phase (``1``: nominal host)."""
    from hostspeed import NOMINAL_MS

    factors = {}
    for kind, nominal in NOMINAL_MS.items():
        samples = tally.host_ms[kind]
        factors[kind] = statistics.median(samples) / nominal if samples else 0.0  # 0: unused
    return factors


def offcpu_flag(tally, steal: float) -> tuple[float, bool]:
    """The reference kernel's off-CPU share, and whether steal leaves too much of it unexplained."""
    from hostspeed import CONTENTION_LIMIT, CPU_WALL, offcpu_share

    share = offcpu_share(tally.host_ms["cpu"], tally.host_ms[CPU_WALL])
    return share, share - steal > CONTENTION_LIMIT


def print_report(name: str, result: dict, *, trace: bool) -> None:
    tally = result["tally"]
    setup = result["setup_samples"]
    raw_setup = [sum(record["phases"].values()) for record in result["setups"]]
    print(f"[{name}] setup_s          {result['metrics']['setup_s']:.4f} s   "
          f"median of {len(setup)} cold starts ({min(setup):.3f} .. {max(setup):.3f}; "
          f"raw median {statistics.median(raw_setup):.4f} s)")
    for metric, value, unit, note in result["workload"].report(tally):
        print(f"[{name}] {metric:<16} {value:.6g} {unit}   {note}")
    raw = {series: getattr(tally, f"{series}_raw") for series in ("op", "batch")}
    factors = host_factors(tally)
    print(f"[{name}] host factors     "
          + ", ".join(f"{kind} {factor:.4f}" for kind, factor in factors.items())
          + f"   median over {len(tally.host_ms['cpu'])} reference samples; raw "
          + ", ".join(f"{series} p50 {statistics.median(values) * 1e3:.4f} ms"
                      for series, values in raw.items() if values))
    print(f"[{name}] failed_frac      {tally.failed / tally.attempted:.6g} 1   "
          f"{tally.failed} of {tally.attempted} operations")
    for reason, count in sorted(tally.reasons.items()):
        print(f"[{name}]   failure: {reason} x{count}")
    print(f"[{name}] peak_rss_mb      {result['metrics']['peak_rss_mb']:.1f} MB   "
          "largest sum of anonymous + shared-memory Pss over the benchmark process and "
          "its serving workers, read after set-up and after every step")
    if not trace:
        return
    from layers import SHOULD_MOVE
    from tracing import format_accounting

    for line in format_accounting(name, result["accounting"]):
        print(line)
    print(f"[{name}] tracing overhead: op_ms_p50 {result['untraced']['op_ms_p50']:.4f} -> "
          f"{result['traced']['op_ms_p50']:.4f} ms, batch_ms {result['untraced']['batch_ms']:.4f}"
          f" -> {result['traced']['batch_ms']:.4f} ms (untraced -> traced)")
    for entry in benchmark_spec()["per_layer"]:
        metric = entry["name"]
        print(f"[{name}] {metric:<30} {result['layers'][metric]:>12.6g} {entry['unit']:<5} "
              f"-> {SHOULD_MOVE[metric]}")
    print(f"[{name}] spans written to {result['trace_file']}")


def prepare() -> int:
    """Pin this process to one CPU, then make the repro sources importable.

    Must run before anything imports numpy; returns the pinned CPU.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"repro sources not found under {SRC_DIR}")
    cpu = pinning.pin_to_one_cpu()
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    return cpu


def stop_child_processes(timeout: float = 10.0) -> None:
    """End every process this run started and wait for each, before the run exits.

    ``workload.close()`` joins the serving workers; any still alive (an error
    path) are terminated here.  The multiprocessing resource tracker, started
    by the first shared-memory segment, would otherwise outlive this process:
    it exits only once its pipe closes, which happens when this process exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    # Closes the tracker's pipe and waits for the tracker to exit.
    resource_tracker._resource_tracker._stop()


def run_one(args: argparse.Namespace) -> int:
    try:
        cpu = prepare()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        return run_pinned(args, cpu)
    finally:
        stop_child_processes()


def run_pinned(args: argparse.Namespace, cpu: int) -> int:
    if args.setup_probe:
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed)
        try:
            record = timed_setup(workload)
        finally:
            workload.close()
        print(json.dumps(record))
        return 0

    ticks = pinning.cpu_ticks(cpu)
    result = measure(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), cold_starts=COLD_STARTS
    )
    steal = pinning.steal_share(ticks, pinning.cpu_ticks(cpu))
    tally = result["tally"]
    offcpu, contended = offcpu_flag(tally, steal)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} pinned cpu={cpu} steal={steal:.3%} offcpu={offcpu:.3%}")
    if contended:
        print(f"perfbench: FLAG: the reference kernel was off its CPU {offcpu:.1%} of the "
              f"time, {offcpu - steal:.1%} more than steal explains: other work was runnable "
              "on the pinned CPU, and wall-clock samples include it")
    print_report(args.workload, result, trace=bool(args.trace))
    group = "per_layer" if args.trace else "end_to_end"
    values = result["layers"] if args.trace else result["metrics"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in benchmark_spec()[group]
    }
    raw = {f"{series}_p50_ms": statistics.median(getattr(tally, f"{series}_raw")) * 1e3
           for series in ("op", "batch") if getattr(tally, f"{series}_raw")}
    print(RUN_LINE + json.dumps({
        "workload": args.workload, "seed": args.seed, "cpu": cpu, "steal": steal,
        "offcpu": offcpu, "contended": contended, "host_factor": host_factors(tally),
        "setup_first_s": result["setup_samples"][0], "raw": raw,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


# ------------------------------------------------------- several workloads
def child_run(name: str, seed: int, seconds: int, trace: int = 0) -> tuple[str, dict, dict]:
    """Run one workload in its own process; returns (stdout, result, run info)."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = run_child(command)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed={seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[len(RUN_LINE):]) for line in lines if line.startswith(RUN_LINE))
    return proc.stdout, json.loads(lines[-1]), info


def run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        stdout, result, _ = child_run(name, args.seed, args.seconds, args.trace)
        print("\n".join(stdout.strip().splitlines()[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def steadiness(args: argparse.Namespace) -> int:
    """Repeat every workload, alternating their order, and report each metric's spread."""
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    values: dict[tuple[str, str], list[float]] = {}
    for repeat in range(REPEATS):
        order = names if repeat % 2 == 0 else tuple(reversed(names))
        for name in order:
            seed = args.seed + repeat
            _, result, info = child_run(name, seed, args.seconds)
            print(f"run {repeat:>2} {name:<6} seed={seed} cpu={info['cpu']} "
                  f"steal={info['steal']:.3%} offcpu={info['offcpu']:.3%}"
                  f"{' FLAGGED' if info['contended'] else ''} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{metric}={entry['value']:.5g}"
                             for metric, entry in result["metrics"].items()), flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
            # Context, not gated: unscaled medians, the host factor and a
            # single cold start, to show what scaling and repetition remove.
            extras = {f"raw.{key}": value for key, value in info["raw"].items()}
            extras.update({f"host.{kind}": value for kind, value in info["host_factor"].items()})
            extras["setup_first_s"] = info["setup_first_s"]
            for metric, value in extras.items():
                values.setdefault((name, metric), []).append(value)
    print(f"{'workload':<8} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = 0.0
    for (name, metric), samples in values.items():
        median, q1, q3, spread = benchstats.quartile_spread(samples)
        bound = bounds.get(metric)
        if bound is None:
            print(f"{name:<8} {metric:<15} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {'-':>6}  context, not gated")
            continue
        if metric == "setup_s":
            verdict = "exempt from the spread rule"
        else:
            worst = max(worst, spread / bound)
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:<8} {metric:<15} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.2%} {bound:>6.0%}  {verdict}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


def exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into an exit that runs every ``finally``: workloads close, children stop."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    args = parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
