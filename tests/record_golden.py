"""Regenerate tests/golden_reports.json, the report table that tier-1 replays.

    PYTHONPATH=src python3 tests/record_golden.py

Run it by hand, never from pytest, and only for a deliberate change of the
report format or the fix of a wrong answer; CHANGES.md then names each line
whose entry changed.  The table maps each command line to its exit code and
the sha256 of its stdout and of its stderr.  A line is written as typed at a
shell, with its config files named by file name and an optional leading
``NAME=value`` that sets the environment for that line.  The files are the
benchmark's inputs ``nat.json`` and ``half.json`` (in ``perfbench/inputs``)
and those in ``tests/inputs``.  The table holds:

* the line of ``test_cli.REQUIRED_FLAGS`` for each (command, what), on
  ``nat.json`` in Z and on ``half.json`` in Z/4 * Z/6;
* every command of the benchmark's ``corpus`` workload, each also in
  ``perfbench/reference.json`` under the same line;
* the benchmark's ``convexity`` line at ``--L 3``, and BS(1,3)'s whole-group
  convexity at ``--L 3``, which its twist relations, spelled in the letters
  a^±1, a^±2, verify;
* BS(3,5)'s whole-group convexity at ``--L 4`` (``bs35.json``): no letter
  a^±1, a^±2 lies in 3Z or 5Z, so the twist relations are written for the
  generators a^3 and a^5, spelled on both sides, and they verify;
* the left stabilisers of the G half-space of ``k8-amalgam.json`` at
  ``--r 2``: Z/2^3 glued to Z/2^3 along {e, x, y, xy}, where the glued xy
  has length 3 in either factor but 2 as x times y across them;
* one falsified and one inconclusive-within-bound line for each check
  that gives such a verdict on valid input, where no line above does.
  Convexity has none: no loader subset that holds e was found
  inconclusive on the built-in groups or those in ``tests/inputs`` at
  ``--L 4``, so its inconclusive verdict is tested in
  ``tests/test_geometry.py``, on a presentation with relations taken out;
* one config per group kind of the loader through ``check deep``,
  ``check stabilisers`` and ``check convexity --L 2``, on the whole group,
  with two amalgams: ``s3-z4.json`` glued over Z/2, and ``c2-c3.json``
  (Z/2 * Z/3 with ``"pairs": []``), whose trivial gluing runs the
  free-product kernel;
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE = HERE / "golden_reports.json"
REFERENCE = ROOT / "perfbench" / "reference.json"
INPUT_FOLDERS = (ROOT / "perfbench" / "inputs", HERE / "inputs")
INPUTS = {path.name: str(path) for folder in INPUT_FOLDERS for path in folder.iterdir()}

VERDICT_LINES = [
    "check convexity --group z4*z6 --subset half.json --L 3",  # the benchmark's convexity line, at L 3
    "check deep --group z --subset odd.json --r 1 --R 8",  # inconclusive: no ball of radius 1 in the odd numbers
    "check almost-invariant --group f2 --subset cone.json --element A --R 3",  # inconclusive
    "check coseparable --group z --subset nat.json --r 0",  # falsified: B and its translate by -1 agree on the ball of radius 0
    "check coseparable --group z --subset nat.json --max-size 0",  # inconclusive
    "check isolation --group z --subset nat.json --r 0",  # falsified
    "check isolation --group z --subset all.json --r 0 --R 0",  # inconclusive: nothing splits
    "check convexity --group bs13.json --subset all.json --L 3",  # verified: t a t^-1 a^-3 is written with a^-1 a^-2
    "check convexity --group bs35.json --subset all.json --L 4",  # verified: a^3 and a^5 are twisted, though no letter
    "check stabilisers --group k8-amalgam.json --subset half.json --r 2",  # confirms e, h[x], h[y] and h[xy]
    "module ph --group z --subset nat.json --r 0",  # falsified
    "module ph --group z --subset all.json --r 0 --R 0",  # inconclusive
    "module coset-decomp --group f2 --subset cone.json --element a --R 3",  # inconclusive
    "universal verify --r 2 --R 10",  # inconclusive: the scan bound is too small
    "universal independence --r 1 --R 3",  # inconclusive
]
LOADER_KINDS = ("bs13.json", "klein-hnn.json", "z4-negation-hnn.json", "s3-z4.json", "c2-c3.json", "c6.json", "z3.json")
LOADER_ROWS = (
    "check deep --group {} --subset all.json --r 1 --R 3",
    "check stabilisers --group {} --subset all.json",
    "check convexity --group {} --subset all.json --L 2",
)

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
    lines += VERDICT_LINES + [row.format(kind) for kind in LOADER_KINDS for row in LOADER_ROWS]
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
