"""One measured process: set up a workload, run it once, check it, report.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE [--tiny]

MODE is ``run`` or ``trace`` (run under the outside-in tracer).  The last
stdout line is a JSON object: ``ready`` is the ``time.perf_counter`` reading
once the process could make its first call (the parent took its own reading
just before launching, and on Linux both read the same monotonic clock),
``verdict_s`` runs from the first call to the last report byte, ``op_s`` holds
the time of each operation in the order they ran, ``peak_rss_kb`` is this
process's peak resident set.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import translation_lab  # noqa: E402,F401  (the cold import is part of set-up)

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    tiny = "--tiny" in argv[3:]
    workload = workloads.Workload(name, seed, tiny)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    start = time.perf_counter()
    outcomes = workload.run()
    result = {"ready": ready, "verdict_s": time.perf_counter() - start}
    result["op_s"] = [o.seconds for o in outcomes]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = None if tiny else workloads.load_reference()
    result["failures"] = workload.check(outcomes, reference)
    if tracer is not None:
        result["trace"] = tracer.stats()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
