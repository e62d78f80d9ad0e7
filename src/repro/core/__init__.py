"""The paper's primary contribution: SAM, HUEM and the Disk Area Mechanism.

Public surface:

* domain model — :class:`SpatialDomain`, :class:`GridSpec`, :class:`GridDistribution`;
* continuous mechanisms — :class:`DiskWave`, :class:`ExponentialWave`,
  :class:`ContinuousSAM`;
* discrete mechanisms — :class:`DiscreteDAM`, :class:`DiscreteDAMNoShrink`,
  :class:`DiscreteHUEM`, :class:`GridAreaResponse`;
* structured engine — :class:`DiskTransitionOperator`, :func:`build_disk_operator`,
  :class:`StreamingAggregator`;
* radius selection — :func:`optimal_radius`, :func:`grid_radius`;
* post-processing — :func:`expectation_maximization`, :func:`matrix_inversion_estimate`;
* end-to-end pipeline — :class:`ParallelPipeline` (Algorithm 1 over sharded
  privatization, on one worker or a process pool) and
  :func:`estimate_spatial_distribution`.
"""

from repro.core.dam import DiscreteDAM, DiscreteDAMNoShrink, DiskOutputDomain
from repro.core.domain import (
    GridDistribution,
    GridSpec,
    SpatialDomain,
    marginals,
    outer_product_distribution,
)
from repro.core.estimator import (
    MechanismReport,
    ShardAggregate,
    SpatialMechanism,
    StreamingAggregator,
    TransitionMatrixMechanism,
)
from repro.core.grid_response import GridAreaResponse
from repro.core.huem import DiscreteHUEM, huem_cell_masses, huem_cell_masses_fan_rings
from repro.core.operator import (
    DenseTransitionOperator,
    DiskTransitionOperator,
    build_disk_operator,
)
from repro.core.parallel import ParallelPipeline, PipelineResult, estimate_spatial_distribution
from repro.core.postprocess import (
    EMResult,
    adaptive_smoothing_strength,
    expectation_maximization,
    make_grid_smoother,
    make_line_smoother,
    matrix_inversion_estimate,
    project_to_simplex,
)
from repro.core.radius import (
    grid_radius,
    mutual_information_bound,
    numeric_optimal_radius,
    optimal_radius,
    scaled_grid_radius,
    small_epsilon_limit_radius,
)
from repro.core.sam import (
    ContinuousSAM,
    DamProbabilities,
    DiskWave,
    ExponentialWave,
    WaveFunction,
    audit_sam_conditions,
    dam_probabilities,
    huem_base_density,
    rounded_square_area,
)

__all__ = [
    "DiscreteDAM",
    "DiscreteDAMNoShrink",
    "DiskOutputDomain",
    "GridDistribution",
    "GridSpec",
    "SpatialDomain",
    "marginals",
    "outer_product_distribution",
    "MechanismReport",
    "ShardAggregate",
    "SpatialMechanism",
    "StreamingAggregator",
    "TransitionMatrixMechanism",
    "DenseTransitionOperator",
    "DiskTransitionOperator",
    "build_disk_operator",
    "GridAreaResponse",
    "DiscreteHUEM",
    "huem_cell_masses",
    "huem_cell_masses_fan_rings",
    "ParallelPipeline",
    "PipelineResult",
    "estimate_spatial_distribution",
    "EMResult",
    "adaptive_smoothing_strength",
    "expectation_maximization",
    "make_grid_smoother",
    "make_line_smoother",
    "matrix_inversion_estimate",
    "project_to_simplex",
    "grid_radius",
    "mutual_information_bound",
    "numeric_optimal_radius",
    "optimal_radius",
    "scaled_grid_radius",
    "small_epsilon_limit_radius",
    "ContinuousSAM",
    "DamProbabilities",
    "DiskWave",
    "ExponentialWave",
    "WaveFunction",
    "audit_sam_conditions",
    "dam_probabilities",
    "huem_base_density",
    "rounded_square_area",
]
