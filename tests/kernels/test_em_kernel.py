"""Unit tests of the disk operator's EM matvec sides and the rule that picks one.

Every disk operator runs its EM matvecs on one of two sides: one sparse delta
matrix, or an FFT convolution with the offset stencil.  The side is a pure
function of shape (``d^2 * k`` against :data:`FFT_MIN_ENTRIES`), never of a
timing, so one operator — pickled to a worker or not — always gives the same
bits.  Both sides must agree to the float64 rounding floor.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.dam import DiscreteDAM
from repro.core.domain import GridSpec
from repro.core.geometry import disk_offset_array
from repro.core.operator import FFT_MIN_ENTRIES, DiskTransitionOperator, build_disk_operator
from repro.core.postprocess import expectation_maximization


def _dam_masses(b_hat: int, epsilon: float) -> np.ndarray:
    offsets = disk_offset_array(b_hat)
    masses = offsets.copy()
    masses[:, 2] = offsets[:, 2] * math.exp(epsilon) + (1.0 - offsets[:, 2])
    return masses


def _operator(d: int = 12, b_hat: int = 3, epsilon: float = 3.5):
    return build_disk_operator(GridSpec.unit(d), b_hat, _dam_masses(b_hat, epsilon))


class TestSideRule:
    @pytest.mark.parametrize("d,fft_side", [(16, False), (64, True)])
    def test_side_is_a_function_of_shape(self, d, fft_side):
        operator = DiscreteDAM(GridSpec.unit(d), 3.5).operator
        entries = operator.n_inputs * operator.n_offsets
        assert (entries >= FFT_MIN_ENTRIES) is fft_side
        assert operator._fft_side is fft_side
        # A second build of the same shape takes the same side.
        assert DiscreteDAM(GridSpec.unit(d), 3.5).operator._fft_side is fft_side

    @pytest.mark.parametrize("d", [16, 64])
    def test_pickled_operator_keeps_its_side(self, d):
        operator = DiscreteDAM(GridSpec.unit(d), 3.5).operator
        rng = np.random.default_rng(4)
        theta = rng.dirichlet(np.ones(operator.n_inputs))
        weights = rng.random(operator.n_outputs)
        operator.forward(theta)  # build the side's structures before pickling
        clone = pickle.loads(pickle.dumps(operator))
        assert clone._fft_side is operator._fft_side
        np.testing.assert_array_equal(clone.forward(theta), operator.forward(theta))
        np.testing.assert_array_equal(clone.backward(weights), operator.backward(weights))


class TestMatvecParity:
    @pytest.mark.parametrize("d,b_hat", [(1, 2), (2, 1), (5, 2), (12, 3), (20, 5)])
    def test_forward_backward_match_operator(self, d, b_hat):
        """The FFT side against the sparse side of the same operator."""
        operator = _operator(d=d, b_hat=b_hat)
        rng = np.random.default_rng(d * 31 + b_hat)
        theta = rng.dirichlet(np.ones(operator.n_inputs))
        weights = rng.random(operator.n_outputs)
        np.testing.assert_allclose(
            operator._fft_forward(theta), operator._sparse_forward(theta), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            operator._fft_backward(weights),
            operator._sparse_backward(weights),
            rtol=0,
            atol=1e-12 * weights.sum(),
        )

    def test_wrong_lengths_rejected(self):
        for operator in (_operator(d=6, b_hat=2), DiscreteDAM(GridSpec.unit(20), 1.4).operator):
            with pytest.raises(ValueError, match="theta must have length"):
                operator.forward(np.ones(3))
            with pytest.raises(ValueError, match="weights must have length"):
                operator.backward(np.ones(3))

    def test_fft_side_on_an_asymmetric_stencil(self):
        # Disk stencils are point-symmetric, so only an asymmetric one shows that
        # backward correlates with the flipped stencil rather than convolving.
        cols, rows = np.meshgrid(np.arange(4), np.arange(4))
        keep = (cols < 3) | (rows < 3)
        operator = DiskTransitionOperator(
            grid=GridSpec.unit(3),
            b_hat=1,
            offsets=np.array([[0, 0], [1, 0], [0, 1]]),
            values=np.array([0.1, 0.12, 0.18]),
            background=0.05,
            output_cells=np.column_stack([cols[keep], rows[keep]]),
            normaliser=20.0,
        )
        dense = operator.to_dense()
        rng = np.random.default_rng(6)
        theta = rng.dirichlet(np.ones(operator.n_inputs))
        weights = rng.random(operator.n_outputs)
        np.testing.assert_allclose(operator._fft_forward(theta), theta @ dense, atol=1e-15)
        np.testing.assert_allclose(operator._fft_backward(weights), dense @ weights, atol=1e-14)

    def test_fft_side_requires_the_stencil_bounding_square(self):
        # One output column left of the grid that no offset reaches: the output
        # domain's corner is not the stencil's, so the convolution cannot be read
        # off the padded plane.
        cols, rows = np.meshgrid(np.arange(-1, 3), np.arange(2))
        operator = DiskTransitionOperator(
            grid=GridSpec.unit(2),
            b_hat=1,
            offsets=np.array([[0, 0], [1, 0]]),
            values=np.array([0.2, 0.2]),
            background=0.1,
            output_cells=np.column_stack([cols.ravel(), rows.ravel()]),
            normaliser=10.0,
        )
        np.testing.assert_allclose(
            operator.forward(np.full(4, 0.25)), np.full(4, 0.25) @ operator.to_dense()
        )
        with pytest.raises(ValueError, match="union of offset shifts"):
            operator._fft_forward(np.full(4, 0.25))


class TestExpectationMaximizationIntegration:
    def test_fft_solve_matches_sparse(self):
        grid = GridSpec.unit(12)
        operator = build_disk_operator(grid, 3, _dam_masses(3, 3.5))
        rng = np.random.default_rng(9)
        cells = rng.integers(0, grid.n_cells, 20_000)
        counts = np.bincount(
            operator.sample(cells, np.random.default_rng(1)),
            minlength=operator.n_outputs,
        ).astype(float)
        sparse = expectation_maximization(operator, counts, max_iterations=60, tolerance=0.0)
        operator._fft_side = True
        fft = expectation_maximization(operator, counts, max_iterations=60, tolerance=0.0)
        np.testing.assert_allclose(fft.estimate, sparse.estimate, rtol=0, atol=1e-10)
        assert fft.log_likelihood == pytest.approx(sparse.log_likelihood, rel=1e-9)
