"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  The profile is
selected with the ``REPRO_BENCH_PROFILE`` environment variable:

* ``laptop`` (default) — down-scaled datasets, 1-2 repetitions; every figure finishes
  in minutes and the qualitative trends match the paper;
* ``paper``  — the full Table IV/V settings (hours of runtime);
* ``smoke``  — tiny settings used to exercise the harness itself.

Two further environment variables tune execution without changing any measured
number: ``REPRO_BENCH_WORKERS`` fans sweep cells out to a process pool, and
``REPRO_BENCH_CACHE_DIR`` memoises every sweep cell in a content-addressed on-disk
cache so interrupted or repeated benchmark runs only compute missing cells.

Every benchmark reports through :func:`record_result`, which echoes the regenerated
series and writes a machine-readable ``benchmarks/results/BENCH_<name>.json`` —
profile, python version and the benchmark's numeric ``metrics`` dict (speedups,
parities, queries/sec).  CI uploads these as workflow artifacts and diffs the gated
speedups against the committed baseline in ``benchmarks/baselines/``
(``benchmarks/compare_baseline.py``), so a silent performance regression fails the
bench job instead of scrolling past in a log.  The ``BENCH_*.json`` files are
gitignored.

The human-readable series behind ``docs/BENCHMARKS.md`` live in the tracked
``benchmarks/results/<name>.txt`` files.  They are rewritten only when
``REPRO_BENCH_RECORD=1`` is set, so an ordinary test run leaves the tree clean.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    TrajectoryConfig,
    laptop_config,
    laptop_trajectory_config,
    paper_config,
    paper_trajectory_config,
    smoke_config,
)

RESULTS_DIR = Path(__file__).parent / "results"


def _profile() -> str:
    profile = os.environ.get("REPRO_BENCH_PROFILE", "laptop").lower()
    if profile not in ("laptop", "paper", "smoke"):
        raise ValueError(f"unknown REPRO_BENCH_PROFILE {profile!r}")
    return profile


@pytest.fixture(scope="session")
def bench_profile() -> str:
    return _profile()


def _execution_overrides() -> dict:
    """Worker-pool size and cache directory from the environment (execution-only)."""
    overrides: dict = {}
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    if workers:
        overrides["workers"] = max(int(workers), 1)
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if cache_dir:
        overrides["cache_dir"] = cache_dir
    return overrides


@pytest.fixture(scope="session")
def bench_config(bench_profile) -> ExperimentConfig:
    if bench_profile == "paper":
        config = paper_config()
    elif bench_profile == "smoke":
        config = smoke_config()
    else:
        config = laptop_config()
    return config.with_overrides(**_execution_overrides())


@pytest.fixture(scope="session")
def bench_trajectory_config(bench_profile) -> TrajectoryConfig:
    if bench_profile == "paper":
        return paper_trajectory_config()
    if bench_profile == "smoke":
        return laptop_trajectory_config().with_overrides(
            n_trajectories=30, max_length=15, routing_d=30, default_d=5
        )
    return laptop_trajectory_config()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_result(results_dir, bench_profile):
    """Echo a named result blob and write it as machine-readable JSON.

    ``metrics`` is an optional flat dict of the benchmark's measured numbers
    (speedups, parities, rates).  It lands in ``BENCH_<name>.json`` — the artifact
    the CI regression compare consumes — so pass every number a regression check
    could care about.  With ``REPRO_BENCH_RECORD=1`` the text also replaces the
    tracked ``<name>.txt``.
    """
    write_text = os.environ.get("REPRO_BENCH_RECORD") == "1"

    def _record(name: str, text: str, metrics: dict | None = None) -> None:
        if write_text:
            header = f"# profile: {bench_profile}\n"
            (results_dir / f"{name}.txt").write_text(header + text + "\n")
        payload = {
            "name": name,
            "profile": bench_profile,
            "python_version": platform.python_version(),
            "metrics": dict(metrics or {}),
        }
        json_path = results_dir / f"BENCH_{name}.json"
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _record
