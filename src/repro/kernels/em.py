"""The EM matvec kernel: fused, buffer-reusing forward/backward/EM-step.

The structured :class:`~repro.core.operator.DiskTransitionOperator` already cut
the EM matvecs from ``O(d^2 * m)`` dense matmuls to ``O(d^2 * k)`` sparse
matvecs with one ``(d^2, m)`` CSR matrix of the offset deltas — but that matrix
stores every (offset, cell) pair explicitly (33 MB at d=64) and each EM
iteration still allocates five ``m``- and ``d^2``-sized temporaries.
:class:`EMKernel` is the ``backend="native"`` replacement, exploiting one more
layer of structure: the offsets form a contiguous stencil, so

* ``forward`` (``theta @ T``) is exactly a **2-D full convolution** of the
  ``d x d`` estimate with the ``(2b+1) x (2b+1)`` delta stencil, evaluated over
  the ``(d+2b) x (d+2b)`` bounding square of the rounded-square output domain
  and gathered onto the ``m`` output cells by a precomputed flat index, plus the
  rank-one ``background * theta.sum()`` term;
* ``backward`` (``T @ w``) is the matching **correlation** (convolution with the
  flipped stencil), read off at the valid region that overlays the input grid.

Two interchangeable implementations are selected at build time and recorded in
:class:`KernelBuild` (surfaced all the way up to
:attr:`repro.core.postprocess.EMResult.kernel`):

* ``"numba"`` — a cache-blocked, genuinely allocation-free JIT scatter/gather
  pair.  Chosen only when :mod:`numba` imports *and* passes a build-time parity
  self-check against the pure-numpy path; any failure falls back silently with
  the reason recorded.
* ``"fft"`` — the pure-numpy fallback: both stencil applications run through
  precomputed real-FFT stencil spectra at a padded fast size.  numpy's pocketfft
  allocates its own transform workspaces internally, but every operator-sized
  array (the padded planes, the gather/scatter index maps, the ``m``- and
  ``d^2``-sized outputs, the EM double buffer) is preallocated once per kernel.

``accumulate="float32"`` narrows the scatter/gather accumulation buffers to
float32 — a genuine halving of memory traffic under the numba path; under the
FFT fallback the transforms themselves still run in double (numpy's FFT always
does) and only the gathered results are squeezed, so the mode is a
precision/parity experiment there rather than a speedup.  See the "Kernel tier"
section of ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ACCUMULATE_MODES = ("float64", "float32")
_JIT_MODES = ("auto", "numba", "numpy")

#: Relative tolerance of the numba build-time self-check against the FFT path.
_SELF_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class KernelBuild:
    """What the build-time kernel selection decided, and why.

    ``kind`` is the implementation that actually runs (``"numba"`` or
    ``"fft"``); ``jit`` the caller's request; ``fallback_reason`` is ``None``
    when the request was honoured and a short human-readable reason otherwise
    (e.g. numba not importable, or the JIT failed its parity self-check).
    """

    kind: str
    accumulate: str
    jit: str
    fallback_reason: str | None = None

    def describe(self) -> str:
        """The compact ``kind/accumulate`` label recorded in result metadata."""
        return f"{self.kind}/{self.accumulate}"


def numba_available() -> bool:
    """Whether the optional numba JIT dependency imports in this environment."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def native_kernel_signature(
    *, accumulate: str = "float64", jit: str = "auto"
) -> str:
    """The ``kind/accumulate`` label :class:`EMKernel` would select right now.

    Used by the experiment runner's cache keys: two containers that resolve the
    ``backend="native"`` tier to different implementations (numba present vs
    absent) produce results differing at the kernel's parity floor, so their
    cache entries must not alias.
    """
    if accumulate not in _ACCUMULATE_MODES:
        raise ValueError(f"accumulate must be one of {_ACCUMULATE_MODES}, got {accumulate!r}")
    if jit not in _JIT_MODES:
        raise ValueError(f"jit must be one of {_JIT_MODES}, got {jit!r}")
    kind = "numba" if jit in ("auto", "numba") and numba_available() else "fft"
    return f"{kind}/{accumulate}"


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth (2^a * 3^b * 5^c) integer >= n — a fast FFT length."""
    if n <= 1:
        return 1
    best = 1 << (n - 1).bit_length()  # power of two fallback is always valid
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # Round p35 up to the next power-of-two multiple >= n.
            quotient = -(-n // p35)
            candidate = p35 << max(0, (quotient - 1).bit_length())
            if candidate >= n:
                best = min(best, candidate)
            p35 *= 3
        p5 *= 5
    return best


def _build_numba_pair(out_indices, deltas, background, n_outputs):
    """Compile the blocked scatter/gather pair; raises if numba is unusable."""
    import numba

    n_offsets, n_inputs = out_indices.shape

    @numba.njit(cache=False)
    def nb_forward(theta, out):  # pragma: no cover - requires numba
        total = 0.0
        for i in range(n_inputs):
            total += theta[i]
        for j in range(n_outputs):
            out[j] = background * total
        for i in range(n_inputs):
            ti = theta[i]
            if ti == 0.0:
                continue
            for j in range(n_offsets):
                out[out_indices[j, i]] += deltas[j] * ti

    @numba.njit(cache=False)
    def nb_backward(weights, out):  # pragma: no cover - requires numba
        total = 0.0
        for j in range(n_outputs):
            total += weights[j]
        base = background * total
        for i in range(n_inputs):
            acc = base
            for j in range(n_offsets):
                acc += deltas[j] * weights[out_indices[j, i]]
            out[i] = acc

    return nb_forward, nb_backward


class EMKernel:
    """Preallocated forward/backward/EM-step kernels for one disk operator.

    Build one per operator (``NativeDiskOperator`` does this lazily) and reuse
    it across EM solves: all operator-sized scratch lives on the kernel, so a
    long-lived streaming session re-solves every epoch without re-allocating.

    Parameters
    ----------
    operator:
        A built :class:`~repro.core.operator.DiskTransitionOperator` (or
        anything carrying its ``grid`` / ``offsets`` / ``values`` /
        ``background`` / ``output_cells`` structure).
    accumulate:
        ``"float64"`` (default) or ``"float32"`` accumulation buffers — see the
        module docstring for what float32 does and does not buy per backend.
    jit:
        ``"auto"`` (numba when importable and self-check clean, FFT otherwise),
        ``"numba"`` (prefer the JIT, still falling back cleanly when absent) or
        ``"numpy"`` (force the FFT path).
    """

    def __init__(self, operator, *, accumulate: str = "float64", jit: str = "auto") -> None:
        if accumulate not in _ACCUMULATE_MODES:
            raise ValueError(
                f"accumulate must be one of {_ACCUMULATE_MODES}, got {accumulate!r}"
            )
        if jit not in _JIT_MODES:
            raise ValueError(f"jit must be one of {_JIT_MODES}, got {jit!r}")
        self.accumulate = accumulate
        self.n_inputs, self.n_outputs = operator.shape
        self._d = int(operator.grid.d)
        self._dtype = np.float64 if accumulate == "float64" else np.float32
        self.background = float(operator.background)

        offsets = np.asarray(operator.offsets, dtype=np.int64)
        deltas = np.asarray(operator.values, dtype=float) - self.background
        cols = np.asarray(operator.output_cells[:, 0], dtype=np.int64)
        rows = np.asarray(operator.output_cells[:, 1], dtype=np.int64)
        col_lo, row_lo = int(cols.min()), int(rows.min())
        dx_lo, dy_lo = int(offsets[:, 0].min()), int(offsets[:, 1].min())
        if (col_lo, row_lo) != (dx_lo, dy_lo):
            raise ValueError(
                "output domain is not the union of offset shifts of the input grid "
                f"(corner {(col_lo, row_lo)} vs stencil corner {(dx_lo, dy_lo)})"
            )
        kh = int(offsets[:, 1].max()) - dy_lo + 1
        kw = int(offsets[:, 0].max()) - dx_lo + 1
        stencil = np.zeros((kh, kw))
        stencil[offsets[:, 1] - dy_lo, offsets[:, 0] - dx_lo] = deltas

        d = self._d
        fh = _next_fast_len(d + kh - 1)
        fw = _next_fast_len(d + kw - 1)
        self._plan_shape = (fh, fw)
        # Stencil spectra: forward = convolution, backward = correlation (the
        # flipped stencil).  The backward valid region starts at (kh-1, kw-1);
        # circular wrap-around from the padded transform only ever lands in
        # rows/columns < kh-1 (resp. kw-1), strictly outside both read regions,
        # because fh >= d + kh - 1.
        self._stencil_fwd = np.fft.rfft2(stencil, s=self._plan_shape)
        self._stencil_bwd = np.fft.rfft2(stencil[::-1, ::-1], s=self._plan_shape)
        # Flat gather/scatter maps into the padded planes.
        self._out_plane_idx = (rows - row_lo) * fw + (cols - col_lo)
        input_rows, input_cols = np.divmod(np.arange(self.n_inputs), d)
        self._in_plane_idx = (input_rows + kh - 1) * fw + (input_cols + kw - 1)

        # Preallocated operator-sized scratch, reused across every call.
        self._theta_plane = np.zeros(self._plan_shape)
        self._weight_plane = np.zeros(self._plan_shape)
        self._gather_m = np.empty(self.n_outputs)
        self._gather_n = np.empty(self.n_inputs)
        self._out_m = np.empty(self.n_outputs, dtype=self._dtype)
        self._ratio_m = np.empty(self.n_outputs, dtype=self._dtype)
        self._back_n = np.empty(self.n_inputs, dtype=self._dtype)
        self._theta_pair = (
            np.empty(self.n_inputs, dtype=self._dtype),
            np.empty(self.n_inputs, dtype=self._dtype),
        )
        self._flips = 0

        self._nb_forward = self._nb_backward = None
        self._nb_sources = None
        kind, reason = "fft", None
        if jit in ("auto", "numba"):
            kind, reason = self._try_build_numba(operator)
        self.build = KernelBuild(
            kind=kind, accumulate=accumulate, jit=jit, fallback_reason=reason
        )

    # ----------------------------------------------------------- construction
    def _try_build_numba(self, operator) -> tuple[str, str | None]:
        """Build + self-check the JIT pair; fall back to FFT with a reason."""
        if not numba_available():
            return "fft", "numba not importable; using the pure-numpy FFT kernel"
        out_indices = np.asarray(operator._out_indices)
        deltas = np.asarray(operator.values, dtype=self._dtype) - self._dtype(
            self.background
        )
        try:
            nb_forward, nb_backward = _build_numba_pair(
                out_indices, deltas, self._dtype(self.background), self.n_outputs
            )
            # Deterministic, non-degenerate probe (no RNG: the self-check must
            # be reproducible and seedless by construction).
            probe = np.abs(np.sin(np.arange(1.0, self.n_inputs + 1.0)))
            probe /= probe.sum()
            reference = self._fft_forward(probe.astype(self._dtype), self._out_m)
            candidate = np.empty(self.n_outputs, dtype=self._dtype)
            nb_forward(probe.astype(self._dtype), candidate)
            scale = float(np.abs(reference).max()) or 1.0
            if float(np.abs(candidate - reference).max()) > _SELF_CHECK_RTOL * scale:
                return "fft", "numba kernel failed its build-time parity self-check"
        except Exception as exc:  # pragma: no cover - depends on numba version
            return "fft", f"numba kernel build failed ({type(exc).__name__}: {exc})"
        self._nb_forward, self._nb_backward = nb_forward, nb_backward
        self._nb_sources = (out_indices, deltas)
        return "numba", None

    def __getstate__(self) -> dict:
        # Compiled numba dispatchers are not picklable; drop them (and their
        # sources) and let the unpickled copy rebuild lazily through the same
        # selection recorded in `build` — run_sharded ships mechanisms to
        # worker processes, so this must round-trip.
        state = self.__dict__.copy()
        state["_nb_forward"] = state["_nb_backward"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.build.kind == "numba" and self._nb_sources is not None:
            try:
                out_indices, deltas = self._nb_sources
                self._nb_forward, self._nb_backward = _build_numba_pair(
                    out_indices, deltas, self._dtype(self.background), self.n_outputs
                )
            except Exception:  # pragma: no cover - numba absent on the worker
                self.build = KernelBuild(
                    kind="fft",
                    accumulate=self.accumulate,
                    jit=self.build.jit,
                    fallback_reason="numba unavailable after unpickling; FFT fallback",
                )

    # ---------------------------------------------------------------- matvecs
    def _fft_forward(self, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
        d = self._d
        plane = self._theta_plane
        plane[:d, :d] = theta.reshape(d, d)
        square = np.fft.irfft2(np.fft.rfft2(plane) * self._stencil_fwd, s=self._plan_shape)
        np.take(square.reshape(-1), self._out_plane_idx, out=self._gather_m)
        out[:] = self._gather_m
        out += self._dtype(self.background * float(theta.sum()))
        return out

    def _fft_backward(self, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        plane = self._weight_plane
        plane.reshape(-1)[self._out_plane_idx] = weights
        square = np.fft.irfft2(np.fft.rfft2(plane) * self._stencil_bwd, s=self._plan_shape)
        np.take(square.reshape(-1), self._in_plane_idx, out=self._gather_n)
        out[:] = self._gather_n
        out += self._dtype(self.background * float(weights.sum()))
        return out

    def forward(self, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``theta @ T`` into a preallocated buffer (valid until the next call)."""
        theta = np.asarray(theta, dtype=self._dtype).reshape(-1)
        if theta.shape[0] != self.n_inputs:
            raise ValueError(
                f"theta must have length {self.n_inputs}, got {theta.shape[0]}"
            )
        out = self._out_m if out is None else out
        if self._nb_forward is not None:
            self._nb_forward(theta, out)
            return out
        return self._fft_forward(theta, out)

    def backward(self, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``T @ w`` into a preallocated buffer (valid until the next call)."""
        weights = np.asarray(weights, dtype=self._dtype).reshape(-1)
        if weights.shape[0] != self.n_outputs:
            raise ValueError(
                f"weights must have length {self.n_outputs}, got {weights.shape[0]}"
            )
        out = self._back_n if out is None else out
        if self._nb_backward is not None:
            self._nb_backward(weights, out)
            return out
        return self._fft_backward(weights, out)

    # ---------------------------------------------------------------- EM step
    def em_step(self, theta: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """One fused EM iteration: E-step, M-step, clip and normalise.

        Returns the new estimate in one of the kernel's two internal double
        buffers (never the one ``theta`` may occupy), so callers alternate
        ``theta = kernel.em_step(theta, counts)`` without copies; anything that
        must outlive the next two steps needs ``.copy()``.
        """
        predicted = self.forward(theta)
        np.clip(predicted, 1e-300, None, out=predicted)
        ratio = self._ratio_m
        with np.errstate(over="ignore"):
            np.divide(counts, predicted, out=ratio, casting="same_kind")
        if not np.isfinite(ratio).all():
            # Mirror of the overflow rescue in
            # :func:`repro.core.postprocess.expectation_maximization`: rescaling
            # the numerator cancels in the final normalisation.
            np.divide(counts, counts.max(), out=ratio, casting="same_kind")
            ratio /= predicted
        back = self.backward(ratio)
        self._flips ^= 1
        new_theta = self._theta_pair[self._flips]
        np.multiply(theta, back, out=new_theta, casting="same_kind")
        np.clip(new_theta, 0.0, None, out=new_theta)
        new_theta /= new_theta.sum()
        return new_theta
