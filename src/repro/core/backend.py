"""One home for transition-backend validation.

Before this module, the ``backend=`` kwarg was validated independently by
``DiscreteDAM``, ``DiscreteDAMNoShrink`` (via inheritance), ``DiscreteHUEM`` and
the CLI's argparse ``choices`` — places to drift when the vocabulary changes.
:func:`resolve_backend` is the single gate: every entry point calls it, every
caller gets the same error message listing the valid names, and the CLI sources
its ``choices`` from the same tuple.
"""

from __future__ import annotations

#: Transition backends of the disk mechanisms: ``"operator"`` — the structured
#: disk operator (whole-batch sampling; sparse or FFT EM matvecs, chosen by
#: shape); ``"dense"`` — the materialised matrix (ablations and the test oracle).
VALID_BACKENDS: tuple[str, ...] = ("operator", "dense")


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` kwarg; the one unknown-backend error in the repo.

    Returns the backend unchanged when valid so call sites can write
    ``self.backend = resolve_backend(backend)``.
    """
    if backend not in VALID_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; valid backends: {', '.join(VALID_BACKENDS)}"
        )
    return backend
