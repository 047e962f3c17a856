"""Make the benchmark modules and the program importable for the tests.

Run from the repository root with ``python -m pytest perf/tests``; the
tier-1 suite does not collect these (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
