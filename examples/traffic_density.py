"""Traffic-density estimation: the privacy/utility trade-off for a ride-hailing fleet.

A ride-hailing platform wants the pickup-density map of New York (to route drivers
around hot spots) while each driver's reported location stays epsilon-LDP private.
This example sweeps the privacy budget and the grid resolution on the NYC Green Taxi
surrogate and prints how the estimation error responds — the practical "how much budget
do I need for my resolution?" question a deployment has to answer.

Run with:  python examples/traffic_density.py
"""

from __future__ import annotations

from repro.core.parallel import ParallelPipeline
from repro.core.radius import grid_radius, optimal_radius
from repro.datasets.loader import load_dataset
from repro.metrics import wasserstein2_auto

BUDGETS = (0.7, 1.4, 2.8, 5.0)
RESOLUTIONS = (5, 10, 15)


def main() -> None:
    dataset = load_dataset("NYC", scale=0.05, seed=0, full_domain=True)
    part_name, points, domain = dataset.parts[0]
    print(f"NYC pickup surrogate: {points.shape[0]} pickups in {domain.bounds}")

    print("\noptimal high-probability radius b* (continuous, unit square):")
    for epsilon in BUDGETS:
        print(f"  eps = {epsilon:>3}: b* = {optimal_radius(epsilon):.3f}"
              f"  -> grid radius at d=15: {grid_radius(epsilon, 15, 1.0)} cells")

    print("\nW2 error of the DAM pipeline (rows: resolution d, columns: budget eps):")
    header = "d \\ eps " + "".join(f"{eps:>9}" for eps in BUDGETS)
    print(header)
    unit_points = domain.normalise(points)
    from repro.core.domain import SpatialDomain

    unit_domain = SpatialDomain.unit("nyc")
    for d in RESOLUTIONS:
        row = [f"{d:<8}"]
        for epsilon in BUDGETS:
            pipeline = ParallelPipeline(unit_domain, d=d, epsilon=epsilon)
            result = pipeline.run(unit_points, seed=2)
            error = wasserstein2_auto(result.true_distribution, result.estimate)
            row.append(f"{error:>9.4f}")
        print("".join(row))

    print("\nReading the table: more budget always helps; finer grids need more budget "
          "to reach the same error — the trend the paper's Figure 9 reports.")


if __name__ == "__main__":
    main()
