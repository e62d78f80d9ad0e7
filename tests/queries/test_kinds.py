"""The query-kind table: every kind once, in enum order, naming its engine method.

The replay, the wire expansion and the HTTP front all read a kind's method from
:data:`~repro.queries.kinds.KINDS` and look it up on the engine when they call
it.  These tests pin the table against a hand-written list of methods and pin
the call-time lookup that tracing probes (which swap methods on the engine
classes) rely on.
"""

import numpy as np
import pytest

from repro.core.domain import GridSpec
from repro.queries import QueryEngine, QueryLog, TrajectoryQueryEngine, WorkloadReplay
from repro.queries.kinds import KINDS, QueryKind
from repro.serving.wire import POINT_KINDS, TRAJECTORY_KINDS

GRID = GridSpec.unit(6)

#: Each kind's engine method and the engine class that first defines it.
METHODS = {
    QueryKind.RANGE_MASS: ("range_mass", QueryEngine),
    QueryKind.POINT_DENSITY: ("point_density", QueryEngine),
    QueryKind.TOP_K: ("top_k_cells", QueryEngine),
    QueryKind.QUANTILES: ("quantile_contours", QueryEngine),
    QueryKind.MARGINALS: ("axis_marginals", QueryEngine),
    QueryKind.OD_TOP_K: ("od_top_k", TrajectoryQueryEngine),
    QueryKind.TRANSITION_TOP_K: ("transition_top_k", TrajectoryQueryEngine),
    QueryKind.LENGTH_HISTOGRAM: ("length_histogram", TrajectoryQueryEngine),
}


def trajectory_engine() -> TrajectoryQueryEngine:
    rng = np.random.default_rng(0)
    return TrajectoryQueryEngine([rng.random((5, 2)) for _ in range(20)], GRID)


class TestKindTable:
    def test_table_lists_every_kind_in_enum_order(self):
        """Replay order, wire-expansion order and the derived kind sets follow the enum."""
        assert list(KINDS) == list(QueryKind)
        assert POINT_KINDS | TRAJECTORY_KINDS == frozenset(QueryKind)
        assert POINT_KINDS & TRAJECTORY_KINDS == frozenset()

    def test_methods_live_on_the_engine_the_trajectory_flag_names(self):
        for kind, spec in KINDS.items():
            name, owner = METHODS[kind]
            assert spec.method == name, kind
            assert callable(getattr(owner, name)), kind
            assert spec.trajectory is (owner is TrajectoryQueryEngine), kind
            assert hasattr(QueryEngine, name) is not spec.trajectory, kind

    @pytest.mark.parametrize("kind", list(QueryKind), ids=lambda kind: kind.value)
    def test_replay_calls_a_method_patched_after_import(self, kind, monkeypatch):
        name, owner = METHODS[kind]
        original = getattr(owner, name)
        calls = []

        def probe(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(owner, name, probe)
        log = QueryLog.random(
            GRID.domain,
            n_range=2,
            n_density=2,
            n_top_k=2,
            n_quantiles=2,
            n_marginals=2,
            n_od_top_k=2,
            n_transition_top_k=2,
            n_length_histograms=2,
            seed=1,
        )
        report, _ = WorkloadReplay(trajectory_engine()).replay(log)
        assert report.per_kind[kind.value]["count"] == 2
        assert len(calls) == 2
