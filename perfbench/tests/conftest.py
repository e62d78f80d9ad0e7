"""Make the benchmark's modules and the repro sources importable from its tests.

These tests live outside the tier-1 ``testpaths``; run them with
``python -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
