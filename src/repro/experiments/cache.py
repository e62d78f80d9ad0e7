"""Content-addressed on-disk cache for experiment measurements.

A full sweep is a grid of independent (dataset, mechanism, parameter, seed) cells,
each of which is expensive (repetitions x parts x EM solves) and perfectly
deterministic given its parameters.  :class:`ResultCache` keys every cell by the
SHA-256 digest of a canonical JSON rendering of *all* result-affecting parameters, so

* re-running a sweep after an interruption only computes the missing cells;
* changing any parameter (scale, repeats, seed, metric, ...) changes the key and
  misses cleanly — there is no staleness to invalidate by hand;
* the cache can be shared between serial and parallel runs, between the CLI and the
  benchmark suite, and across processes (writes are atomic renames).

Execution-only knobs (worker count, cache directory itself) must never enter the key:
cells are bit-reproducible across worker counts, and the cache relies on that.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

#: Bump when the semantics of cached payloads change incompatibly.
CACHE_VERSION = 1


def cache_key(payload: dict) -> str:
    """SHA-256 digest of a canonical JSON rendering of ``payload``.

    The payload must be JSON-serialisable (plain dicts/lists/str/int/float/None).
    Key order is canonicalised; floats render via ``repr`` shortest-roundtrip, so
    equal floats always digest equally.
    """
    canonical = json.dumps(
        {"cache_version": CACHE_VERSION, **payload},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed store of JSON payloads under one directory.

    Parameters
    ----------
    directory:
        Where to keep the cache.  ``None`` disables the cache entirely: every
        :meth:`get` misses and :meth:`put` is a no-op, so callers never branch.
    """

    def __init__(self, directory: str | os.PathLike | None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        # Two-level fan-out keeps directory listings manageable for big sweeps.
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the cached payload for ``key``, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses (the next :meth:`put`
        overwrites them), so a truncated write can never poison a sweep.
        """
        if self.directory is None:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` (atomic rename; concurrent-writer safe)."""
        if self.directory is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as tmp:
                json.dump(payload, tmp)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.directory) if self.directory else "disabled"
        return f"ResultCache({where}, hits={self.hits}, misses={self.misses})"
