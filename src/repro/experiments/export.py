"""Export of experiment results to CSV / JSON and markdown summaries.

The benchmark suite prints fixed-width tables; downstream users (and the CLI) usually
want machine-readable output instead.  These helpers serialise
:class:`~repro.experiments.runner.SweepResult` objects losslessly and render the
compact markdown summary of a sweep (the reference runs themselves live under
``benchmarks/results/``; see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable

from repro.experiments.reporting import sweep_table
from repro.experiments.runner import MeasurementPoint, SweepResult

_CSV_FIELDS = (
    "dataset",
    "mechanism",
    "parameter_name",
    "parameter_value",
    "w2_mean",
    "w2_std",
    "n_repeats",
)


def sweep_to_records(result: SweepResult) -> list[dict]:
    """Flatten a sweep into plain dictionaries (one per measurement point)."""
    records = []
    for point in result.points:
        record = {field: getattr(point, field) for field in _CSV_FIELDS}
        record["sweep"] = result.name
        record.update({f"detail_{k}": v for k, v in sorted(point.details.items())})
        records.append(record)
    return records


def sweep_to_csv(result: SweepResult, path: str | Path | None = None) -> str:
    """Serialise a sweep to CSV; optionally write it to ``path``.  Returns the CSV text."""
    records = sweep_to_records(result)
    fieldnames: list[str] = ["sweep", *(_CSV_FIELDS)]
    extra = sorted({key for record in records for key in record} - set(fieldnames))
    fieldnames += extra
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def sweep_to_json(result: SweepResult, path: str | Path | None = None, *, indent: int = 2) -> str:
    """Serialise a sweep to JSON; optionally write it to ``path``.  Returns the JSON text."""
    payload = {"sweep": result.name, "points": sweep_to_records(result)}
    text = json.dumps(payload, indent=indent, sort_keys=True)
    if path is not None:
        Path(path).write_text(text)
    return text


def sweep_from_json(text: str) -> SweepResult:
    """Inverse of :func:`sweep_to_json` (used to reload archived runs)."""
    payload = json.loads(text)
    points = []
    for record in payload.get("points", []):
        details = {
            key[len("detail_"):]: value
            for key, value in record.items()
            if key.startswith("detail_")
        }
        points.append(
            MeasurementPoint(
                dataset=record["dataset"],
                mechanism=record["mechanism"],
                parameter_name=record["parameter_name"],
                parameter_value=float(record["parameter_value"]),
                w2_mean=float(record["w2_mean"]),
                w2_std=float(record["w2_std"]),
                n_repeats=int(record["n_repeats"]),
                details=details,
            )
        )
    return SweepResult(name=payload.get("sweep", "sweep"), points=points)


def sweep_to_markdown(result: SweepResult, *, precision: int = 4) -> str:
    """Render a sweep as a GitHub-flavoured markdown table (datasets x mechanisms)."""
    headers, rows = sweep_table(result, precision=precision)
    lines = ["| " + " | ".join(row) + " |" for row in (headers, *rows)]
    lines.insert(1, "|" + "---|" * len(headers))
    return "\n".join(lines)


def write_all(results: Iterable[SweepResult], directory: str | Path) -> list[Path]:
    """Write CSV + JSON for every sweep into a directory; returns the created paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    created = []
    for result in results:
        stem = result.name.replace("/", "-") or "sweep"
        csv_path = directory / f"{stem}.csv"
        json_path = directory / f"{stem}.json"
        sweep_to_csv(result, csv_path)
        sweep_to_json(result, json_path)
        created.extend([csv_path, json_path])
    return created
