"""Self-tests of the benchmark; run with ``pytest benchmarks/perf/tests``.

Not part of tier-1 (``testpaths = ["tests"]``).  The benchmark's modules
are flat scripts beside ``run.py``, so their directory goes on the path.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]

for entry in (str(ROOT / "src"), str(PERF)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
