"""Random-number-generator plumbing.

All stochastic code in the library takes a ``seed`` argument that may be

* ``None`` — fresh OS entropy,
* an ``int`` — deterministic seed,
* an existing :class:`numpy.random.Generator` — used as-is (shared state), or
* a :class:`numpy.random.SeedSequence`.

:func:`ensure_rng` normalises all four into a :class:`numpy.random.Generator` so the
rest of the code never branches on the seed type.  :func:`spawn_rngs` derives
statistically independent child generators, which the experiment runner uses to give
each repetition of an experiment its own stream.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None``, an integer, a ``Generator`` or a ``SeedSequence``.

    Returns
    -------
    numpy.random.Generator
        A generator.  If ``seed`` is already a generator it is returned unchanged,
        so callers can deliberately share one stream across components.

    Raises
    ------
    TypeError
        If ``seed`` is of an unsupported type (e.g. a float or a legacy
        ``RandomState``).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, a numpy Generator or a SeedSequence; "
        f"got {type(seed).__name__}"
    )


def spawn_seed_sequences(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """Derive ``count`` independent child :class:`~numpy.random.SeedSequence` objects.

    This is the picklable half of :func:`spawn_rngs`: a ``SeedSequence`` travels
    across process boundaries, so the trajectory engine and the experiment runner
    ship one child per shard or repetition to their worker pools and every worker
    builds its own generator locally.
    The derivation is exactly the one :func:`spawn_rngs` uses, so a serial run over
    ``spawn_rngs(seed, count)`` and a parallel run over
    ``spawn_seed_sequences(seed, count)`` consume identical random streams.

    Parameters
    ----------
    seed:
        Any accepted seed form (see :func:`ensure_rng`).
    count:
        Number of child sequences, must be positive.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence deterministically from the parent generator.
        entropy = int(seed.integers(0, 2**63 - 1))
        sequence = np.random.SeedSequence(entropy)
    elif isinstance(seed, np.random.SeedSequence):
        sequence = seed
    elif seed is None:
        sequence = np.random.SeedSequence()
    else:
        sequence = np.random.SeedSequence(int(seed))
    return sequence.spawn(count)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    The child streams are produced with :meth:`numpy.random.SeedSequence.spawn` (via
    :func:`spawn_seed_sequences`), so they are statistically independent regardless of
    ``count``.  When ``seed`` is a ``Generator``, children are derived from fresh
    entropy drawn from it, which keeps the call deterministic for a seeded parent.

    Parameters
    ----------
    seed:
        Any accepted seed form (see :func:`ensure_rng`).
    count:
        Number of child generators, must be positive.
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, count)]


def supports_stream_splitting(rng: np.random.Generator) -> bool:
    """Whether ``rng``'s bit generator can be split positionally with ``advance``.

    PCG64 (the ``default_rng`` family), PCG64DXSM and Philox expose ``advance``;
    MT19937 does not.  The parallel engine's shared-stream shards need it.
    """
    return hasattr(rng.bit_generator, "advance")


def generator_state(rng: np.random.Generator) -> dict:
    """Snapshot a generator's bit-generator state (a picklable plain dict)."""
    return rng.bit_generator.state


def generator_from_state(state: dict, advance_by: int = 0) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot, optionally advanced.

    ``advance_by`` is measured in 64-bit draws.  Because every batch sampler in this
    library consumes exactly one ``rng.random()`` double (one 64-bit draw) per user in
    input order, a worker that advances a shared base state by the number of users in
    all preceding shards reproduces, bit for bit, the uniforms a serial pass would
    have handed to its shard — this is what makes the parallel pipeline exactly
    equivalent to the serial one.
    """
    name = state["bit_generator"]
    try:
        bit_generator = getattr(np.random, name)()
    except AttributeError as exc:  # pragma: no cover - exotic third-party bit generators
        raise ValueError(f"unknown bit generator {name!r} in state snapshot") from exc
    bit_generator.state = state
    if advance_by:
        if not hasattr(bit_generator, "advance"):
            raise ValueError(
                f"bit generator {name!r} does not support advance(); "
                "use a PCG64-backed seed for parallel execution instead"
            )
        bit_generator.advance(int(advance_by))
    return np.random.Generator(bit_generator)


def sample_categorical(
    rng: np.random.Generator,
    probabilities: np.ndarray,
    size: Optional[int] = None,
) -> Union[int, np.ndarray]:
    """Draw indices from a categorical distribution given by ``probabilities``.

    A thin wrapper over ``rng.choice`` that first re-normalises the vector to guard
    against tiny floating-point drift (sums such as 0.999999999 would otherwise raise
    inside NumPy).

    Parameters
    ----------
    rng:
        Source of randomness.
    probabilities:
        1-D non-negative array.  Must have a strictly positive sum.
    size:
        ``None`` for a single integer draw, otherwise the number of i.i.d. draws.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1:
        raise ValueError(f"probabilities must be 1-D, got shape {probs.shape}")
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("probabilities must have a positive finite sum")
    probs = probs / total
    return rng.choice(len(probs), size=size, p=probs)


def weighted_sample_index(rng: np.random.Generator, weights: Sequence[float]) -> int:
    """Sample one index proportionally to ``weights`` (Algorithm 2, lines 6 and 14)."""
    return int(sample_categorical(rng, np.asarray(list(weights), dtype=float)))


def iter_value_groups(values: np.ndarray):
    """Yield ``(value, index_array)`` for each distinct value of an integer array.

    One stable argsort groups all occurrences; the index arrays partition
    ``arange(len(values))``.  Shared by the batch samplers so per-distinct-cell work
    (one ``searchsorted`` per row) is paid once regardless of batch size.
    """
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
    for group in np.split(order, boundaries):
        yield int(values[group[0]]), group


def sample_grouped_inverse_cdf(
    rng: np.random.Generator,
    cells: np.ndarray,
    cdf_for_cell,
    n_out: int,
) -> np.ndarray:
    """Batch inverse-CDF sampling: one uniform per user, one searchsorted per row.

    ``cdf_for_cell(cell)`` must return the cumulative distribution of that cell's
    response row.  Each user consumes exactly one ``rng.random()`` double in input
    order, which is what makes chunked (streaming) privatization with a shared
    generator bit-identical to one batch call.  Results are clipped into
    ``[0, n_out)`` to guard against a final CDF entry just below 1.
    """
    reports = np.empty(cells.shape[0], dtype=np.int64)
    if cells.shape[0] == 0:
        return reports
    u = rng.random(cells.shape[0])
    for cell, group in iter_value_groups(cells):
        reports[group] = np.searchsorted(cdf_for_cell(cell), u[group], side="right")
    np.clip(reports, 0, n_out - 1, out=reports)
    return reports
