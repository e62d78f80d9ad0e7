"""The query kinds, and the one table that says how each is asked and answered.

:class:`~repro.queries.engine.WorkloadReplay`, the wire schema
(:mod:`repro.serving.wire`) and the HTTP front (:mod:`repro.serving.http`) read
a kind's engine method, fields and answer shaping from :data:`KINDS`.  Methods
are named, not stored: callers look ``spec.method`` up on the engine they serve
from when they call it, so a method replaced on an engine class after import
(a tracing probe, a test double) is the one that answers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


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


@dataclass(frozen=True)
class KindSpec:
    """How one :class:`QueryKind` is asked, logged and answered.

    ``arguments`` turns the value of the request payload's ``field`` (or a
    batch of the log's ``log_field``) into the positional arguments of the
    engine ``method``; ``shape`` turns the method's answer into JSON-ready
    values.  ``per_item`` kinds carry a list of items (rows, points, levels)
    that count as one operation each; ``columns`` is the row width of a kind
    with a row frame; ``trajectory`` kinds need a
    :class:`~repro.queries.engine.TrajectoryQueryEngine`.
    """

    method: str
    field: str | None
    log_field: str
    arguments: Callable[[Any], tuple]
    shape: Callable[[Any], Any]
    per_item: bool = False
    columns: int | None = None
    trajectory: bool = False


def _rows(value) -> tuple:
    return (np.asarray(value, dtype=float),)


def _size(value) -> tuple:
    return (int(value),)


def _levels(value) -> tuple:
    return ([float(level) for level in value],)


def _unchanged(answer):
    """Row answers stay arrays: the wire writes them as JSON lists or raw rows."""
    return answer


def _attributes(*names: str) -> Callable[[Any], dict]:
    """Shape a result record as ``{name: record.name.tolist()}`` in ``names`` order."""
    return lambda answer: {name: getattr(answer, name).tolist() for name in names}


def _parts(*names: str) -> Callable[[Any], dict]:
    """Shape a tuple of arrays as ``{name: part.tolist()}`` in ``names`` order."""
    return lambda answer: {name: part.tolist() for name, part in zip(names, answer)}


def _contours(contours) -> list[dict]:
    return [
        {
            "level": contour.level,
            "threshold": contour.threshold,
            "covered_mass": contour.covered_mass,
            "n_cells": contour.n_cells,
            "mask": contour.mask.astype(int).tolist(),
        }
        for contour in contours
    ]


_HOTSPOTS = _attributes("flat_indices", "rows", "cols", "masses", "centers")
_PAIRS = _attributes("from_cells", "to_cells", "counts", "fractions")
_MARGINALS = _parts("x", "y")
_HISTOGRAM = _parts("counts", "edges")

#: Every kind, in replay order (which is also :class:`QueryKind`'s order).
KINDS: dict[QueryKind, KindSpec] = {
    QueryKind.RANGE_MASS: KindSpec(
        "range_mass", "queries", "range_queries", _rows, _unchanged, per_item=True, columns=4
    ),
    QueryKind.POINT_DENSITY: KindSpec(
        "point_density", "points", "density_points", _rows, _unchanged, per_item=True, columns=2
    ),
    QueryKind.TOP_K: KindSpec("top_k_cells", "k", "top_k", _size, _HOTSPOTS),
    QueryKind.QUANTILES: KindSpec(
        "quantile_contours", "levels", "quantile_levels", _levels, _contours, per_item=True
    ),
    QueryKind.MARGINALS: KindSpec(
        "axis_marginals", None, "n_marginal_requests", lambda _: (), _MARGINALS
    ),
    QueryKind.OD_TOP_K: KindSpec("od_top_k", "k", "od_top_k", _size, _PAIRS, trajectory=True),
    QueryKind.TRANSITION_TOP_K: KindSpec(
        "transition_top_k", "k", "transition_top_k", _size, _PAIRS, trajectory=True
    ),
    QueryKind.LENGTH_HISTOGRAM: KindSpec(
        "length_histogram", "bins", "length_histogram_bins", _size, _HISTOGRAM, trajectory=True
    ),
}
