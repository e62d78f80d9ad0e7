"""Compare freshly produced BENCH_*.json results against a committed baseline.

The bench-smoke CI job runs the throughput benchmarks, which record their measured
speedups to ``benchmarks/results/BENCH_<name>.json`` (see the ``record_result``
fixture in ``benchmarks/conftest.py``).  This script diffs the *gated* metrics —
the speedup ratios each benchmark asserts a floor on, plus the absolute rates of
the default EM, sampler, walk and Sinkhorn W2 paths — against the values committed in
``benchmarks/baselines/smoke.json`` and exits non-zero when any of them regressed
by more than the baseline's ``max_regression`` (default 30%).  Every gated metric
is higher-is-better.

Speedups are ratios of two timings on the same machine, so they transfer between
runners far better than absolute rates do; the 30% tolerance absorbs the rest of
the machine-to-machine noise while still catching a real architectural regression
(a de-vectorised hot path typically costs an order of magnitude, not 30%).

Usage::

    python benchmarks/compare_baseline.py \
        [--results benchmarks/results] [--baseline benchmarks/baselines/smoke.json]

A missing result file or metric is a failure too — a benchmark silently not
producing its JSON is exactly the kind of rot this check exists to catch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_RESULTS = Path(__file__).parent / "results"
DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "smoke.json"


def compare(results_dir: Path, baseline_path: Path) -> list[str]:
    """Return a list of human-readable failures (empty when everything holds)."""
    baseline = json.loads(baseline_path.read_text())
    max_regression = float(baseline.get("max_regression", 0.30))
    failures: list[str] = []
    print(f"baseline: {baseline_path} (profile {baseline.get('profile', '?')}, "
          f"tolerance -{max_regression:.0%})")
    for bench_name, expected_metrics in sorted(baseline["gated"].items()):
        result_path = results_dir / f"BENCH_{bench_name}.json"
        if not result_path.exists():
            failures.append(f"{bench_name}: missing {result_path}")
            print(f"  {bench_name}: MISSING ({result_path})")
            continue
        payload = json.loads(result_path.read_text())
        expected_profile = baseline.get("profile")
        if expected_profile and payload.get("profile") != expected_profile:
            failures.append(
                f"{bench_name}: result profile {payload.get('profile')!r} does not "
                f"match baseline profile {expected_profile!r} (stale file?)"
            )
            print(f"  {bench_name}: WRONG PROFILE ({payload.get('profile')!r}, "
                  f"expected {expected_profile!r})")
            continue
        metrics = payload.get("metrics", {})
        for metric, reference in sorted(expected_metrics.items()):
            floor = reference * (1.0 - max_regression)
            current = metrics.get(metric)
            if current is None:
                failures.append(f"{bench_name}.{metric}: metric not recorded")
                print(f"  {bench_name}.{metric}: NOT RECORDED")
            elif current < floor:
                failures.append(
                    f"{bench_name}.{metric}: {current:.4g} < floor {floor:.4g} "
                    f"(baseline {reference:.4g})"
                )
                print(f"  {bench_name}.{metric}: {current:.4g}  REGRESSED "
                      f"(baseline {reference:.4g}, floor {floor:.4g})")
            else:
                print(f"  {bench_name}.{metric}: {current:.4g}  ok "
                      f"(baseline {reference:.4g}, floor {floor:.4g})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        type=Path,
        default=DEFAULT_RESULTS,
        help="directory holding the BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline JSON to compare against",
    )
    args = parser.parse_args(argv)
    failures = compare(args.results, args.baseline)
    if failures:
        print(
            f"\n{len(failures)} gated speedup(s) regressed >"
            f" allowed tolerance:",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall gated speedups within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
