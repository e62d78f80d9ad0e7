"""Formatting of experiment results into the rows and series the paper reports.

The benchmark suite prints these tables so a run of ``pytest benchmarks/`` produces,
for every figure, the same "dataset x mechanism x parameter -> W2" series the paper
plots — archived under ``benchmarks/results/`` (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.figures import DatasetPartStatistics
from repro.experiments.runner import SweepResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Simple fixed-width text table (no external dependencies)."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * widths[i] for i in range(len(headers)))
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    ]
    return "\n".join([line, separator, *body])


def format_sweep(result: SweepResult, *, precision: int = 4) -> str:
    """Format a sweep as a wide table: one (dataset, parameter) row per mechanism column."""
    mechanisms = result.mechanisms()
    headers = [
        "dataset", result.points[0].parameter_name if result.points else "param", *mechanisms
    ]
    rows = []
    for dataset in result.datasets():
        values = sorted({p.parameter_value for p in result.points if p.dataset == dataset})
        for value in values:
            row: list[object] = [dataset, _format_value(value)]
            for mechanism in mechanisms:
                matches = [
                    p.w2_mean
                    for p in result.points
                    if p.dataset == dataset
                    and p.mechanism == mechanism
                    and p.parameter_value == value
                ]
                row.append(f"{matches[0]:.{precision}f}" if matches else "-")
            rows.append(row)
    return format_table(headers, rows)


def _format_value(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:g}"


def format_series(result: SweepResult, dataset: str, mechanism: str, *, precision: int = 4) -> str:
    """One mechanism's series on one dataset as ``x: y`` pairs (a single plotted curve)."""
    pairs = result.series(dataset, mechanism)
    return ", ".join(f"{_format_value(x)}: {y:.{precision}f}" for x, y in pairs)


def format_table3(rows: Sequence[DatasetPartStatistics]) -> str:
    """Render the Table III reproduction."""
    return format_table(
        ["dataset", "part", "lat range", "lon range", "paper points", "surrogate points"],
        [
            (
                row.dataset,
                row.part,
                f"[{row.lat_range[0]:.2f}, {row.lat_range[1]:.2f}]",
                f"[{row.lon_range[0]:.2f}, {row.lon_range[1]:.2f}]",
                row.paper_points,
                row.surrogate_points,
            )
            for row in rows
        ],
    )


def summarize_winner(result: SweepResult) -> dict[str, str]:
    """For each dataset, the mechanism with the lowest average W2 across the sweep.

    Benchmarks use this to assert the paper's headline orderings ("DAM is always better
    than MDSW") without depending on absolute values.
    """
    winners: dict[str, str] = {}
    for dataset in result.datasets():
        best_mechanism = None
        best_value = float("inf")
        for mechanism in result.mechanisms():
            series = result.series(dataset, mechanism)
            if not series:
                continue
            mean_error = sum(y for _, y in series) / len(series)
            if mean_error < best_value:
                best_value = mean_error
                best_mechanism = mechanism
        if best_mechanism is not None:
            winners[dataset] = best_mechanism
    return winners


def mean_error(result: SweepResult, dataset: str, mechanism: str) -> float:
    """Average W2 of one mechanism over a sweep on one dataset."""
    series = result.series(dataset, mechanism)
    if not series:
        raise ValueError(f"no measurements for {mechanism} on {dataset}")
    return sum(y for _, y in series) / len(series)
