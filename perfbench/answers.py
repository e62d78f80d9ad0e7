"""Reference answers: what the serial in-process engine says a request returns.

Every answer served over HTTP is compared with the answer this module
computes from a :class:`~repro.queries.engine.QueryEngine` (or
:class:`~repro.queries.engine.TrajectoryQueryEngine`) holding the same
snapshot.  The JSON shaping is written out here independently of the HTTP
front, so a front that serialises a field wrongly fails the check instead of
agreeing with itself.  The comparison is on canonical JSON text, and Python's
``json`` writes shortest round-trip floats, so equal text means equal bits
(including the sign of zero).
"""

from __future__ import annotations

import json

import numpy as np


def expected_result(engine, kind: str, payload: dict):
    """The JSON-ready answer the serial engine gives for ``(kind, payload)``."""
    if kind == "range_mass":
        return engine.range_mass(np.asarray(payload["queries"], dtype=float)).tolist()
    if kind == "point_density":
        return engine.point_density(np.asarray(payload["points"], dtype=float)).tolist()
    if kind == "top_k":
        cells = engine.top_k_cells(int(payload["k"]))
        return {
            "flat_indices": cells.flat_indices.tolist(),
            "rows": cells.rows.tolist(),
            "cols": cells.cols.tolist(),
            "masses": cells.masses.tolist(),
            "centers": cells.centers.tolist(),
        }
    if kind == "quantiles":
        return [
            {
                "level": contour.level,
                "threshold": contour.threshold,
                "covered_mass": contour.covered_mass,
                "n_cells": contour.n_cells,
                "mask": contour.mask.astype(int).tolist(),
            }
            for contour in engine.quantile_contours([float(v) for v in payload["levels"]])
        ]
    if kind == "marginals":
        x_marginal, y_marginal = engine.axis_marginals()
        return {"x": x_marginal.tolist(), "y": y_marginal.tolist()}
    if kind == "length_histogram":
        counts, edges = engine.length_histogram(int(payload["bins"]))
        return {"counts": counts.tolist(), "edges": edges.tolist()}
    if kind in ("od_top_k", "transition_top_k"):
        top = getattr(engine, kind)(int(payload["k"]))
        return {
            "from_cells": top.from_cells.tolist(),
            "to_cells": top.to_cells.tolist(),
            "counts": top.counts.tolist(),
            "fractions": top.fractions.tolist(),
        }
    raise ValueError(f"no reference answer for kind {kind!r}")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def same_answer(served, expected) -> bool:
    """Bit-for-bit equality of a served JSON answer and the reference answer."""
    return canonical(served) == canonical(expected)
