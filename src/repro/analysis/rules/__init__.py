"""Rule plugins.  Importing this package registers every built-in rule."""

from repro.analysis.rules import bench, determinism, privacy, protocol

__all__ = ["bench", "determinism", "privacy", "protocol"]
