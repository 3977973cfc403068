"""Regenerate tests/golden_reports.json, the report table that tier-1 replays.

    PYTHONPATH=src python3 tests/record_golden.py

Run it by hand, never from pytest, and only for a deliberate change of the
report format or the fix of a wrong answer; CHANGES.md then names each line
whose entry changed.  The table maps each command line to its exit code and
the sha256 of its stdout and of its stderr.  A line is written as typed at a
shell, with the benchmark's inputs ``nat.json`` and ``half.json`` (files in
``perfbench/inputs``) named by file name and an optional leading
``NAME=value`` that sets the environment for that line.  It holds:

* the line of ``test_cli.REQUIRED_FLAGS`` for each (command, what), on
  ``nat.json`` in Z and on ``half.json`` in Z/4 * Z/6;
* every command of the benchmark's ``corpus`` workload, each also in
  ``perfbench/reference.json`` under the same line;
* one line each that exits 2, 3 and 4.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from translation_lab import cli

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_reports.json"
REFERENCE = ROOT / "perfbench" / "reference.json"
INPUTS = {name: str(ROOT / "perfbench" / "inputs" / name) for name in ("nat.json", "half.json")}

ERROR_LINES = [
    "check deep --group z --subset nat.json --r 5 --R 3",  # usage: --r above --R
    "check deep --group nope --subset nat.json",  # config: no such group or file
    "TRANSLATION_LAB_MAX_BALL=5 check deep --group z --subset nat.json --r 3 --R 10",  # resource cap
]


def golden_lines() -> list[str]:
    """Every line of the table, in table order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from test_cli import REQUIRED_FLAGS

    lines = []
    for subset, group in (("nat.json", "z"), ("half.json", "z4*z6")):
        for (name, what), flags in REQUIRED_FLAGS.items():
            if "--subset" in flags:
                flags = {**flags, "--group": group, "--subset": subset}
            elif subset != "nat.json":
                continue  # a line without --subset is the same on either input
            lines.append(" ".join([name, what, *(token for item in flags.items() for token in item)]))
    lines += [command.label for command in workloads.COMMANDS["corpus"]]
    return list(dict.fromkeys(lines + ERROR_LINES))


def run_line(line: str) -> dict:
    """Run one table line in this process: its exit code and the sha256 of its stdout and stderr."""
    tokens = line.split()
    env = {}
    while "=" in tokens[0]:
        key, _, value = tokens.pop(0).partition("=")
        env[key] = value
    argv = [INPUTS.get(token, token) for token in tokens]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    table = {line: run_line(line) for line in golden_lines()}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} lines to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
