"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first tune: importing the library,
building the registry, loading the fixture and constructing the backend.
Prints one JSON object of seconds. Usage::

    python3 bench/setup_probe.py <workload>
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import passforest  # noqa: E402,F401  (timed: the library import itself)

imported = time.perf_counter()
import workloads  # noqa: E402

ctx = workloads.setup(sys.argv[1])
end = time.perf_counter()
print(json.dumps({"setup_s": end - start, "import_s": imported - start, **ctx.timings}))
