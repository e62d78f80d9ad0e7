"""Figure 14 — trajectory point-density estimation: LDPTrace vs PivotTrace vs DAM.

Appendix D converts trajectory statistics to point statistics (the seven-step
procedure) and reports W2 versus the grid side d and versus the budget eps on NYC
trajectories.  The paper's findings: W2 grows with d for all three mechanisms, and DAM
consistently outperforms both trajectory mechanisms, which spend most of their budget
on directionality rather than density.
"""

from __future__ import annotations

from repro.experiments.figures import figure14_trajectory


def _series_text(results) -> str:
    lines = []
    for sweep_name, sweep in results.items():
        lines.append(f"[{sweep_name}]")
        mechanisms = sorted({p.mechanism for p in sweep.points})
        for mechanism in mechanisms:
            pairs = sweep.series("NYC-trajectories", mechanism)
            series = ", ".join(f"{x:g}: {y:.4f}" for x, y in pairs)
            lines.append(f"  {mechanism:11s} {series}")
    return "\n".join(lines)


def test_figure14_trajectory(benchmark, bench_trajectory_config, record_result):
    results = benchmark.pedantic(
        lambda: figure14_trajectory(bench_trajectory_config, sweep="both"),
        rounds=1,
        iterations=1,
    )
    d_sweep = results["d"]
    eps_sweep = results["epsilon"]

    def mean_of(sweep, mechanism):
        series = sweep.series("NYC-trajectories", mechanism)
        return sum(y for _, y in series) / len(series)

    record_result(
        "figure14_trajectory",
        _series_text(results),
        metrics={
            f"{mechanism.lower()}_eps_mean_w2": mean_of(eps_sweep, mechanism)
            for mechanism in ("LDPTrace", "PivotTrace", "DAM")
        },
    )

    # W2 grows with d for every mechanism (compare the endpoints; d=1 is degenerate).
    for mechanism in ("LDPTrace", "PivotTrace", "DAM"):
        series = dict(d_sweep.series("NYC-trajectories", mechanism))
        assert series[20.0] >= series[5.0] * 0.7

    # DAM beats (or ties) both trajectory mechanisms on average over the eps sweep.
    dam = mean_of(eps_sweep, "DAM")
    assert dam <= mean_of(eps_sweep, "LDPTrace") * 1.05 + 0.01
    assert dam <= mean_of(eps_sweep, "PivotTrace") * 1.05 + 0.01
