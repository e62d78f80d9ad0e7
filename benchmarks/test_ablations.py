"""Ablation benchmarks for the design choices the paper argues for.

Not figures from the paper, but measurements that back its design arguments:

* **Shrinkage** (Section VI-A): border-cell shrinkage reduces DAM's error on the
  road-network surrogates (the paper's DAM vs DAM-NS comparison isolated).
* **Radius rule** (Section V-C): the closed-form b_check is close to the empirically
  best radius.
* **Post-processing** (Algorithm 1): EM beats plain least-squares inversion.
* **Metric choice** (Section I): TV cannot separate near- from far-misplacement while
  W2 can — the motivation for the Wasserstein objective.
"""

from __future__ import annotations

import numpy as np

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridDistribution, GridSpec, SpatialDomain
from repro.core.radius import grid_radius
from repro.datasets.loader import load_dataset
from repro.experiments.reporting import format_table
from repro.experiments.runner import evaluate_on_part
from repro.metrics.divergence import total_variation
from repro.metrics.wasserstein import wasserstein2_grid


def _crime_part(config):
    dataset = load_dataset("Crime", scale=config.dataset_scale, seed=config.seed)
    _, points, domain = dataset.parts[0]
    return points, domain


def test_ablation_shrinkage(benchmark, bench_config, record_result):
    points, domain = _crime_part(bench_config)

    def run():
        rows = []
        for d in (5, 10, 15):
            errors = {}
            for name in ("DAM", "DAM-NS"):
                errors[name] = float(
                    np.mean(
                        [
                            evaluate_on_part(
                                name,
                                points,
                                domain,
                                d,
                                bench_config.default_epsilon,
                                seed=seed,
                                max_users=bench_config.max_users_per_part,
                            )
                            for seed in range(max(bench_config.n_repeats, 2))
                        ]
                    )
                )
            rows.append((d, round(errors["DAM"], 4), round(errors["DAM-NS"], 4)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    dam_mean = float(np.mean([row[1] for row in rows]))
    ns_mean = float(np.mean([row[2] for row in rows]))
    record_result(
        "ablation_shrinkage",
        format_table(["d", "DAM", "DAM-NS"], rows),
        metrics={"dam_mean_w2": dam_mean, "dam_ns_mean_w2": ns_mean},
    )
    # Shrinkage never hurts materially, and the average over granularities favours it.
    assert dam_mean <= ns_mean * 1.05 + 0.005


def test_ablation_radius_rule(benchmark, bench_config, record_result):
    points, domain = _crime_part(bench_config)
    d, epsilon = 10, bench_config.default_epsilon
    optimal = grid_radius(epsilon, d, 1.0)
    candidates = sorted({1, max(optimal - 1, 1), optimal, optimal + 1, optimal + 3})

    def run():
        rows = []
        for b_hat in candidates:
            error = float(
                np.mean(
                    [
                        evaluate_on_part(
                            "DAM",
                            points,
                            domain,
                            d,
                            epsilon,
                            b_hat=b_hat,
                            seed=seed,
                            max_users=bench_config.max_users_per_part,
                        )
                        for seed in range(max(bench_config.n_repeats, 2))
                    ]
                )
            )
            rows.append((b_hat, "closed-form" if b_hat == optimal else "", round(error, 4)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    errors = {row[0]: row[2] for row in rows}
    record_result(
        "ablation_radius_rule",
        format_table(["b_hat", "", "W2"], rows),
        metrics={
            "closed_form_w2": float(errors[optimal]),
            "best_candidate_w2": float(min(errors.values())),
            "closed_form_b_hat": float(optimal),
        },
    )
    assert errors[optimal] <= min(errors.values()) * 1.35 + 0.02


def test_ablation_postprocessing(benchmark, bench_config, record_result):
    points, domain = _crime_part(bench_config)
    grid = GridSpec(SpatialDomain.unit(), 8)
    unit_points = domain.normalise(points)

    def run():
        rows = []
        true = grid.distribution(unit_points)
        for mode in ("ems", "em", "ls"):
            mech = DiscreteDAM(grid, bench_config.default_epsilon, postprocess=mode)
            errors = [
                wasserstein2_grid(true, mech.run(unit_points, seed=seed).estimate)
                for seed in range(max(bench_config.n_repeats, 2))
            ]
            rows.append((mode, round(float(np.mean(errors)), 4)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "ablation_postprocessing",
        format_table(["post-process", "W2"], rows),
        metrics={f"{mode}_w2": float(error) for mode, error in rows},
    )
    errors = dict(rows)
    # EM-family post-processing beats (or ties) the least-squares inversion.
    assert min(errors["ems"], errors["em"]) <= errors["ls"] * 1.05 + 0.005


def test_ablation_metric_choice(benchmark, bench_config, record_result):
    """TV treats near and far misplacement identically; W2 does not (Section I)."""
    grid = GridSpec.unit(9)

    def run():
        truth = np.zeros((9, 9))
        truth[4, 4] = 1.0
        near = np.zeros((9, 9))
        near[4, 5] = 1.0
        far = np.zeros((9, 9))
        far[8, 8] = 1.0
        t = GridDistribution(grid, truth)
        rows = []
        for label, other in (("one cell away", near), ("far corner", far)):
            o = GridDistribution(grid, other)
            rows.append(
                (label, round(total_variation(t, o), 4), round(wasserstein2_grid(t, o), 4))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    (near_label, near_tv, near_w2), (far_label, far_tv, far_w2) = rows
    record_result(
        "ablation_metric_choice",
        format_table(["estimate", "TV", "W2"], rows),
        metrics={
            "near_tv": float(near_tv),
            "far_tv": float(far_tv),
            "near_w2": float(near_w2),
            "far_w2": float(far_w2),
        },
    )
    assert near_tv == far_tv
    assert near_w2 < far_w2
