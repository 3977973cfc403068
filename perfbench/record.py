"""Regenerate perfbench/reference.json, the recorded report hashes.

    python3 perfbench/record.py

Run it only for a deliberate change of the report format (or the fix of a
wrong answer) and say so in CHANGES.md: every later benchmark run counts a
report whose sha256 differs from this file as a failed operation.  It runs
each workload once at the default seed and refuses to record anything if an
exit code or verdict is not the known one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    commands: dict[str, str] = {}
    tracks: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        workload = workloads.Workload(name, workloads.DEFAULT_SEED)
        outcomes = workload.run()
        failures = workload.check(outcomes, None)
        if failures:
            for failure in failures:
                print(f"{name}: {failure}", file=sys.stderr)
            return 1
        if name == "tracks":
            doc = json.loads(outcomes[0].text)
            tracks = {
                "report": workloads.sha256(outcomes[0].text),
                "sorted_witnesses": workloads.witnesses_digest(doc),
            }
        else:
            commands.update({o.label: workloads.sha256(o.text) for o in outcomes})
    reference = {"default_seed": workloads.DEFAULT_SEED, "commands": commands, "tracks": tracks}
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
