"""Quickstart: privately estimate a spatial density map in a few lines.

A service holds users' 2-D locations and wants a density map without ever seeing the
true coordinates.  Each location is perturbed on the user's device with the Disk Area
Mechanism (DAM) under epsilon-LDP; the analyst reconstructs the density from the noisy
reports only.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import estimate_spatial_distribution, wasserstein2_auto


def ascii_heatmap(probabilities: np.ndarray, title: str) -> None:
    """Print a small ASCII heat map of a (d, d) probability grid."""
    shades = " .:-=+*#%@"
    scale = probabilities.max() or 1.0
    print(f"\n{title}")
    for row in probabilities[::-1]:  # highest y band on top
        line = "".join(shades[int(v / scale * (len(shades) - 1))] for v in row)
        print("  " + line)


def main() -> None:
    rng = np.random.default_rng(7)

    # Simulated user locations: a dense downtown cluster plus a lighter suburb.
    downtown = rng.normal([0.35, 0.60], 0.06, size=(12_000, 2))
    suburb = rng.normal([0.70, 0.25], 0.10, size=(6_000, 2))
    locations = np.clip(np.vstack([downtown, suburb]), 0.0, 1.0)

    # One call: bucketise onto a 12x12 grid, perturb every report under eps = 2 LDP,
    # and reconstruct the density map with the EM post-processing of the paper.
    result = estimate_spatial_distribution(locations, epsilon=2.0, d=12, seed=0)

    error = wasserstein2_auto(result.true_distribution, result.estimate)
    print(f"users reporting      : {result.n_users}")
    print(f"mechanism            : {result.mechanism} (b_hat = {result.b_hat})")
    print(f"privacy budget       : eps = {result.info['epsilon']}")
    print(f"2-Wasserstein error  : {error:.4f} (unit-square scale)")

    ascii_heatmap(result.true_distribution.probabilities, "true density (never leaves the users)")
    ascii_heatmap(result.estimate.probabilities, "privately estimated density")

    # The pipeline runs on the structured transition-operator engine, so
    # randomisation and EM never materialise the dense (d^2, m) transition matrix.
    # The call above runs a one-worker ParallelPipeline.  For datasets too large to
    # hold in memory, stream chunks through it instead: each chunk is privatized as
    # it arrives, and with a fixed seed the result is identical to the one-batch call:
    #
    #   from repro import ParallelPipeline, SpatialDomain
    #   pipeline = ParallelPipeline(SpatialDomain.unit(), d=12, epsilon=2.0)
    #   result = pipeline.run_stream(chunk_iterator(), seed=0)
    #
    # And to privatize the shards on a process pool — still bit-identical to the
    # serial run at any worker count:
    #
    #   pipeline = ParallelPipeline(SpatialDomain.unit(), d=12, epsilon=2.0, workers=4)
    #   result = pipeline.run(locations, seed=0)


if __name__ == "__main__":
    main()
