"""One home for transition-backend validation.

Before this module, the ``backend=`` kwarg was validated independently by
``DiscreteDAM``, ``DiscreteDAMNoShrink`` (via inheritance), ``DiscreteHUEM``,
``TrajectoryEngine`` and the CLI's argparse ``choices`` — five places to drift
when a backend is added.  :func:`resolve_backend` is the single gate: every
entry point calls it, every caller gets the same error message listing the
valid names, and the CLI sources its ``choices`` from the same tuples.
"""

from __future__ import annotations

#: Transition backends of the disk mechanisms: ``"operator"`` — the structured
#: sparse-delta operator; ``"dense"`` — the materialised matrix (ablations);
#: ``"native"`` — the :mod:`repro.kernels` tier (stencil-convolution EM matvecs
#: with numba-or-FFT selection, whole-batch background sampling).
VALID_BACKENDS: tuple[str, ...] = ("operator", "dense", "native")

#: Backends of the trajectory synthesis walk — no dense tier exists there (the
#: Markov model is already materialised; "dense" would alias "operator").
WALK_BACKENDS: tuple[str, ...] = ("operator", "native")


def resolve_backend(
    backend: str, *, allowed: tuple[str, ...] = VALID_BACKENDS, what: str = "backend"
) -> str:
    """Validate a ``backend=`` kwarg; the one unknown-backend error in the repo.

    Returns the backend unchanged when valid so call sites can write
    ``self.backend = resolve_backend(backend)``.
    """
    if backend not in allowed:
        raise ValueError(
            f"unknown {what} {backend!r}; valid backends: {', '.join(allowed)}"
        )
    return backend
