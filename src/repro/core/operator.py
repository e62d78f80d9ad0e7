"""Structured transition operators — the high-throughput privatization engine.

Every disk-shaped mechanism (DAM, DAM-NS, HUEM) has a transition matrix with a very
particular structure: each row places a constant background probability ``q_hat`` on
all ``m`` output cells except the ``k`` cells of the disk neighbourhood of the input
cell, which receive the same ``k`` offset-specific values in every row (just shifted
to a different position).  Materialising that as a dense ``(d^2, m)`` matrix costs
``O(d^2 * m)`` memory and makes every EM iteration an ``O(d^2 * m)`` matmul, which
collapses at fine grid resolutions.

:class:`DiskTransitionOperator` exploits the structure directly:

* **matvecs** (``forward``/``backward``, the E- and M-step products of EM) split the
  matrix into the constant ``q_hat`` plus the offset deltas ``values - q_hat``, and
  apply the deltas one of two ways: as one sparse ``(d^2, m)`` matvec with ``k``
  entries per row, or — because the offsets form a contiguous stencil — as one 2-D
  FFT convolution (``forward``) or correlation (``backward``) of the ``d x d`` grid
  with the ``(2b+1) x (2b+1)`` delta stencil.  Each operator takes one side, fixed
  by :data:`FFT_MIN_ENTRIES` on the sparse matrix's entry count ``d^2 * k``;
* **sampling** (:meth:`DiskTransitionOperator.sample`) answers a whole batch of users
  from a single uniform draw: the disk part through one ``searchsorted`` on the
  cumulative offset masses, the background part through an order-statistics mapping
  onto the complement of the disk (:func:`background_rank_map`) — no per-user Python
  loop and no dense row in sight;
* **auditing** (:meth:`DiskTransitionOperator.ldp_ratio`) reproduces the worst-case
  column ratio of the dense audit, including the ``inf`` verdict for columns that mix
  zero and positive probabilities (a hard ε-LDP violation);
* ``to_dense()`` materialises the classical matrix when a caller genuinely needs it
  (least-squares post-processing, the Local Privacy calibration, and the tests,
  where it is the oracle) — it is never required on the hot path.

:func:`expectation_maximization <repro.core.postprocess.expectation_maximization>`
accepts either a dense matrix or any object implementing the small
``shape``/``forward``/``backward`` protocol, so the disk operator and the dense
matrices of the other mechanisms (Geo-I, SEM-Geo-I, Square Wave) share one EM loop.
Property tests assert both matvec sides are numerically indistinguishable from the
dense matrix they represent.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.fft import next_fast_len

from repro.core.domain import GridSpec
from repro.core.geometry import output_domain_cells

#: Entry count ``d^2 * k`` of the sparse delta matrix from which an operator runs its
#: EM matvecs as FFT stencil convolutions.  The sparse matvec costs in proportion to
#: its entries; the FFT pays a fixed cost per transform and grows with the padded
#: ``(d + 2b)^2`` plane, so it wins once the stencil is large.  The crossover table
#: behind this value is in ``docs/ARCHITECTURE.md``.  The side depends on the shape
#: alone, never on a timing: one operator always gives the same bits, which the
#: experiment result cache and repeated sweep cells rely on.
FFT_MIN_ENTRIES = 100_000


class DenseTransitionOperator:
    """Adapter giving a dense row-stochastic matrix the operator protocol.

    Used internally by :func:`repro.core.postprocess.expectation_maximization` so the
    EM loop is written once against ``forward``/``backward``, for dense matrices and
    structured operators alike.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=float)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def forward(self, theta: np.ndarray) -> np.ndarray:
        """``theta @ matrix`` — predicted output distribution under ``theta``."""
        return theta @ self.matrix

    def backward(self, weights: np.ndarray) -> np.ndarray:
        """``matrix @ weights`` — per-input aggregation of output weights."""
        return self.matrix @ weights

    def to_dense(self) -> np.ndarray:
        return self.matrix


class DiskTransitionOperator:
    """A disk-structured transition matrix stored as background + offsets.

    Parameters
    ----------
    grid:
        Input grid specification (``d x d`` cells, row-major flattening).
    b_hat:
        Integer high-probability radius in cell units.
    offsets:
        ``(k, 2)`` integer array of ``(dx, dy)`` disk-neighbourhood offsets.
    values:
        ``(k,)`` reporting probability of each offset cell (identical in every row).
    background:
        The probability ``q_hat`` of every output cell not in the row's disk.
    output_cells:
        ``(m, 2)`` integer ``(col, row)`` coordinates of the extended output domain.
    normaliser:
        The common row normalisation constant (``q_hat = low_mass / normaliser``),
        kept for mechanism bookkeeping (``p_hat``/``q_hat`` of Eq. 13).

    Notes
    -----
    The operator precomputes ``out_indices[j, i]`` — the flat output index that offset
    ``j`` of input cell ``i`` lands on — as a ``(k, d^2)`` int32 array.  That is the
    ``O(d^2 * k)`` footprint everything else builds on; the dense matrix would be
    ``O(d^2 * m)`` with ``m ~ (d + 2*b_hat)^2``.

    The EM matvecs run on one of two sides, chosen at construction from the shape
    alone (``d^2 * k >= FFT_MIN_ENTRIES`` takes the FFT side):

    * **sparse** — the first matvec builds the delta matrix ``S``: a ``(d^2, m)``
      CSR matrix whose row ``i`` holds ``values - background`` at
      ``out_indices[:, i]``, so that ``T = S + background`` everywhere.
      ``backward`` is ``S @ w`` and ``forward`` is ``S.T @ theta`` through the CSC
      view of the same arrays.  ``S`` holds 12 bytes (a float64 value and an int32
      column index) per (offset, cell) pair for the operator's life;
    * **FFT** — the first matvec builds the real-FFT spectra of the
      ``(2b+1) x (2b+1)`` delta stencil and of its flip, at a padded fast size.
      ``forward`` is the full 2-D convolution of the ``d x d`` estimate with the
      stencil over the bounding square of the output domain, gathered onto the
      ``m`` output cells; ``backward`` is the correlation, read off where it
      overlays the input grid.  Each call allocates its own padded plane (72 KB at
      d=64); nothing is kept between calls.

    Both sides add the rank-one ``background * sum`` term and agree with
    :meth:`to_dense` to the float64 rounding floor.
    """

    def __init__(
        self,
        grid: GridSpec,
        b_hat: int,
        offsets: np.ndarray,
        values: np.ndarray,
        background: float,
        output_cells: np.ndarray,
        normaliser: float,
    ) -> None:
        self.grid = grid
        self.b_hat = int(b_hat)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        self.background = float(background)
        self.output_cells = np.asarray(output_cells, dtype=np.int64)
        self.normaliser = float(normaliser)
        if self.offsets.ndim != 2 or self.offsets.shape[1] != 2:
            raise ValueError(f"offsets must have shape (k, 2), got {self.offsets.shape}")
        if self.values.shape != (self.offsets.shape[0],):
            raise ValueError("values must have one entry per offset")
        if np.any(self.values < 0) or self.background < 0:
            raise ValueError("transition probabilities must be non-negative")
        self._out_indices = self._build_out_indices()
        self._deltas = self.values - self.background
        # Row-sum sanity: background everywhere + offset corrections must give 1.
        # The tolerance scales with the output-domain size: `background * m` and
        # the k-term delta sum each accumulate rounding proportional to the
        # number of summands, so a fixed 1e-6 that is generous at d=16 would
        # false-positive at planet-scale domains (d >= 256).
        row_sum = self.background * self.n_outputs + float(self._deltas.sum())
        atol = max(1e-6, 1e-9 * self.n_outputs)
        if not np.isclose(row_sum, 1.0, atol=atol):
            raise ValueError(
                f"operator rows must sum to 1, got {row_sum} "
                f"(tolerance {atol} at {self.n_outputs} outputs)"
            )
        self._fft_side = self.n_inputs * self.n_offsets >= FFT_MIN_ENTRIES
        # Sparse side: the delta matrix and its CSC view, built on its first matvec.
        self._delta_matrix: sparse.csr_matrix | None = None
        self._delta_matrix_t: sparse.csc_matrix | None = None
        # FFT side: stencil spectra and plane index maps, built on its first matvec.
        self._plan_shape: tuple[int, int] | None = None
        self._stencil_fwd: np.ndarray | None = None
        self._stencil_bwd: np.ndarray | None = None
        self._out_plane_idx: np.ndarray | None = None
        self._in_plane_idx: np.ndarray | None = None
        # Sampling caches, built lazily on the first sample() call.
        self._cum_values: np.ndarray | None = None
        self._sorted_disk: np.ndarray | None = None
        self._rank_shift: np.ndarray | None = None

    # ------------------------------------------------------------- structure
    @property
    def n_inputs(self) -> int:
        return self.grid.n_cells

    @property
    def n_outputs(self) -> int:
        return int(self.output_cells.shape[0])

    @property
    def n_offsets(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_inputs, self.n_outputs)

    def _build_out_indices(self) -> np.ndarray:
        """``(k, d^2)`` flat output index of every (offset, input cell) pair."""
        cols = self.output_cells[:, 0]
        rows = self.output_cells[:, 1]
        col_lo, row_lo = int(cols.min()), int(rows.min())
        index_map = np.full(
            (int(rows.max()) - row_lo + 1, int(cols.max()) - col_lo + 1), -1, dtype=np.int32
        )
        index_map[rows - row_lo, cols - col_lo] = np.arange(self.n_outputs, dtype=np.int32)

        d = self.grid.d
        in_rows, in_cols = np.divmod(np.arange(self.grid.n_cells), d)
        dx = self.offsets[:, 0][:, None]
        dy = self.offsets[:, 1][:, None]
        out = index_map[in_rows[None, :] + dy - row_lo, in_cols[None, :] + dx - col_lo]
        if np.any(out < 0):
            raise ValueError("an offset maps outside the output domain")
        return out

    # --------------------------------------------------------------- matvecs
    def forward(self, theta: np.ndarray) -> np.ndarray:
        """``theta @ T`` — predicted output distribution under ``theta``."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape[0] != self.n_inputs:
            raise ValueError(f"theta must have length {self.n_inputs}, got {theta.shape[0]}")
        return self._fft_forward(theta) if self._fft_side else self._sparse_forward(theta)

    def backward(self, weights: np.ndarray) -> np.ndarray:
        """``T @ w`` — per-input aggregation of output weights."""
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.shape[0] != self.n_outputs:
            raise ValueError(f"weights must have length {self.n_outputs}, got {weights.shape[0]}")
        return self._fft_backward(weights) if self._fft_side else self._sparse_backward(weights)

    def _build_delta_matrix(self) -> None:
        n, k = self.n_inputs, self.n_offsets
        self._delta_matrix = sparse.csr_matrix(
            (np.tile(self._deltas, n), self._out_indices.T.ravel(), np.arange(n + 1) * k),
            shape=self.shape,
        )
        # The transpose shares the CSR's three arrays; it is a view, not a copy.
        self._delta_matrix_t = self._delta_matrix.T

    def _sparse_forward(self, theta: np.ndarray) -> np.ndarray:
        """``S.T @ theta`` plus the uniform background, in ``O(d^2 * k)``."""
        if self._delta_matrix_t is None:
            self._build_delta_matrix()
        out = self._delta_matrix_t @ theta
        out += self.background * theta.sum()
        return out

    def _sparse_backward(self, weights: np.ndarray) -> np.ndarray:
        """``S @ w`` plus the uniform background, in ``O(d^2 * k)``."""
        if self._delta_matrix is None:
            self._build_delta_matrix()
        out = self._delta_matrix @ weights
        out += self.background * weights.sum()
        return out

    def _build_fft_plan(self) -> None:
        cols, rows = self.output_cells[:, 0], self.output_cells[:, 1]
        col_lo, row_lo = int(cols.min()), int(rows.min())
        dx_lo, dy_lo = int(self.offsets[:, 0].min()), int(self.offsets[:, 1].min())
        if (col_lo, row_lo) != (dx_lo, dy_lo):
            raise ValueError(
                "output domain is not the union of offset shifts of the input grid "
                f"(corner {(col_lo, row_lo)} vs stencil corner {(dx_lo, dy_lo)})"
            )
        kh = int(self.offsets[:, 1].max()) - dy_lo + 1
        kw = int(self.offsets[:, 0].max()) - dx_lo + 1
        stencil = np.zeros((kh, kw))
        stencil[self.offsets[:, 1] - dy_lo, self.offsets[:, 0] - dx_lo] = self._deltas
        d = self.grid.d
        fw = next_fast_len(d + kw - 1, real=True)
        shape = (next_fast_len(d + kh - 1, real=True), fw)
        # Forward is the convolution, backward the correlation (the flipped
        # stencil), whose valid region starts at (kh-1, kw-1).  Circular
        # wrap-around of the padded transform only lands in rows/columns below
        # kh-1 (resp. kw-1), outside both read regions, because the padded
        # height is >= d + kh - 1 (resp. the width >= d + kw - 1).
        self._stencil_fwd = np.fft.rfft2(stencil, s=shape)
        self._stencil_bwd = np.fft.rfft2(stencil[::-1, ::-1], s=shape)
        self._out_plane_idx = (rows - row_lo) * fw + (cols - col_lo)
        in_rows, in_cols = np.divmod(np.arange(self.n_inputs), d)
        self._in_plane_idx = (in_rows + kh - 1) * fw + (in_cols + kw - 1)
        self._plan_shape = shape

    def _fft_forward(self, theta: np.ndarray) -> np.ndarray:
        """``theta @ T`` as a 2-D convolution with the delta stencil, plus background."""
        if self._plan_shape is None:
            self._build_fft_plan()
        d = self.grid.d
        spectrum = np.fft.rfft2(theta.reshape(d, d), s=self._plan_shape) * self._stencil_fwd
        square = np.fft.irfft2(spectrum, s=self._plan_shape)
        out = square.reshape(-1)[self._out_plane_idx]
        out += self.background * theta.sum()
        return out

    def _fft_backward(self, weights: np.ndarray) -> np.ndarray:
        """``T @ w`` as a 2-D correlation with the delta stencil, plus background."""
        if self._plan_shape is None:
            self._build_fft_plan()
        plane = np.zeros(self._plan_shape)
        plane.reshape(-1)[self._out_plane_idx] = weights
        square = np.fft.irfft2(np.fft.rfft2(plane) * self._stencil_bwd, s=self._plan_shape)
        out = square.reshape(-1)[self._in_plane_idx]
        out += self.background * weights.sum()
        return out

    def to_dense(self) -> np.ndarray:
        """Materialise the classical ``(d^2, m)`` transition matrix."""
        matrix = np.full((self.n_inputs, self.n_outputs), self.background)
        matrix[np.arange(self.n_inputs)[None, :], self._out_indices] = self.values[:, None]
        return matrix

    def row(self, input_cell: int) -> np.ndarray:
        """One dense transition row (diagnostics only)."""
        row = np.full(self.n_outputs, self.background)
        row[self._out_indices[:, input_cell]] = self.values
        return row

    # -------------------------------------------------------------- sampling
    def _build_sampling_caches(self) -> None:
        self._cum_values = np.cumsum(self.values)
        # Per input cell: the disk's output indices in sorted order, and the
        # order-statistics shift t[j] = sorted_disk[j] - j.  The r-th background
        # (complement) index of a row is then r + searchsorted(t, r, 'right').
        self._sorted_disk = np.sort(self._out_indices, axis=0)
        self._rank_shift = self._sorted_disk - np.arange(self.n_offsets, dtype=np.int32)[:, None]

    def sample(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Randomise a batch of input cells with one uniform draw per user.

        Each user consumes exactly one ``rng.random()`` double, in input order, so
        chunked (streaming) privatization with a shared generator reproduces the
        single-batch reports bit for bit.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if self._cum_values is None:
            self._build_sampling_caches()
        n = cells.shape[0]
        reports = np.empty(n, dtype=np.int64)
        if n == 0:
            return reports
        u = rng.random(n)

        special_mass = float(self._cum_values[-1])
        n_background = self.n_outputs - self.n_offsets
        if n_background > 0 and self.background > 0:
            in_disk = u < special_mass
        else:
            # No background cells (or they carry zero mass): every draw is a disk draw.
            in_disk = np.ones(n, dtype=bool)

        if in_disk.any():
            j = np.searchsorted(self._cum_values, u[in_disk], side="right")
            np.clip(j, 0, self.n_offsets - 1, out=j)
            reports[in_disk] = self._out_indices[j, cells[in_disk]]

        outside = ~in_disk
        if outside.any():
            # Background rank in [0, m - k), then mapped onto the complement of the
            # row's disk via the cached order-statistics shift.
            rank = ((u[outside] - special_mass) / self.background).astype(np.int64)
            np.clip(rank, 0, n_background - 1, out=rank)
            reports[outside] = background_rank_map(self._rank_shift, cells[outside], rank)
        return reports

    # -------------------------------------------------------------- auditing
    def ldp_ratio(self) -> float:
        """Worst-case column probability ratio, computed without the dense matrix.

        Matches :meth:`repro.core.estimator.TransitionMatrixMechanism.ldp_ratio`:
        a column mixing zero and positive entries is an infinite ratio (a hard ε-LDP
        violation), and all-zero columns are ignored.
        """
        m = self.n_outputs
        flat = self._out_indices.ravel()
        per_entry = np.broadcast_to(self.values[:, None], self._out_indices.shape).ravel()
        col_max = np.full(m, -np.inf)
        col_min = np.full(m, np.inf)
        np.maximum.at(col_max, flat, per_entry)
        np.minimum.at(col_min, flat, per_entry)
        covered = np.bincount(flat, minlength=m)
        # Columns not covered by every row also contain the background value.
        partial = covered < self.n_inputs
        col_max[partial] = np.maximum(col_max[partial], self.background)
        col_min[partial] = np.minimum(col_min[partial], self.background)
        if np.any((col_min <= 0.0) & (col_max > 0.0)):
            return float("inf")
        active = col_min > 0.0
        if not active.any():
            return float("inf")
        return float((col_max[active] / col_min[active]).max())


def background_rank_map(rank_shift: np.ndarray, cells: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Map background ranks onto disk-complement output indices, batch-at-once.

    A background draw of :meth:`DiskTransitionOperator.sample` maps a uniform rank
    ``r`` in ``[0, m - k)`` onto the ``r``-th output cell *not* in the user's disk:
    ``r + searchsorted(rank_shift[:, cell], r, side="right")``.  Every search runs
    over a column of the same length ``k``, so one upper-bound bisection of
    ``k.bit_length()`` whole-batch rounds (a gather and a compare each) answers every
    draw at once.  Integer comparisons make it bit-identical to one ``searchsorted``
    per draw.

    Parameters
    ----------
    rank_shift:
        The operator's ``(k, d^2)`` order-statistics cache: column ``c`` holds
        ``sorted_disk[:, c] - arange(k)``, non-decreasing down the column.
    cells:
        True input cell of each background draw (length ``n``).
    rank:
        Background rank of each draw (length ``n``, in ``[0, m - k)``).

    Returns
    -------
    The flat output index ``rank + shift`` of each draw, where ``shift`` is the
    count of disk cells at or below the rank.
    """
    n = rank.shape[0]
    result = np.empty(n, dtype=np.int64)
    if n == 0:
        return result
    k = int(rank_shift.shape[0])
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, k, dtype=np.int64)
    # While a draw is active (lo < hi) its midpoint is < k, so clipping only
    # protects the gather of already-converged lanes.
    for _ in range(k.bit_length()):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        go_right = active & (rank_shift[np.minimum(mid, k - 1), cells] <= rank)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    np.add(rank, lo, out=result)
    return result


def build_disk_operator(
    grid: GridSpec,
    b_hat: int,
    offset_masses: np.ndarray,
    *,
    low_mass: float = 1.0,
) -> DiskTransitionOperator:
    """Build a :class:`DiskTransitionOperator` from relative per-offset masses.

    The inputs mirror :func:`repro.core.dam.build_disk_transition`: ``offset_masses``
    is a ``(k, 3)`` array of ``(dx, dy, mass)`` in units of the baseline ``q`` and
    ``low_mass`` the relative mass of a pure-low cell.  Because the offsets and the
    output-domain size are identical for every input cell, all rows share one
    normalisation constant — the argument for why the discretisation preserves ε-LDP.
    """
    masses = np.asarray(offset_masses, dtype=float)
    if masses.ndim != 2 or masses.shape[1] != 3:
        raise ValueError(f"offset_masses must have shape (k, 3), got {masses.shape}")
    output_cells = output_domain_cells(grid.d, b_hat)
    total_offsets_mass = float(masses[:, 2].sum())
    normaliser = total_offsets_mass + low_mass * (output_cells.shape[0] - masses.shape[0])
    return DiskTransitionOperator(
        grid=grid,
        b_hat=b_hat,
        offsets=masses[:, :2].astype(np.int64),
        values=masses[:, 2] / normaliser,
        background=low_mass / normaliser,
        output_cells=output_cells,
        normaliser=normaliser,
    )
