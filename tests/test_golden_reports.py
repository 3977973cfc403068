"""Report bytes and exit codes stay as recorded in tests/golden_reports.json.

The table is written by ``tests/record_golden.py``, run by hand; see there for
what it holds and when to re-record it.
"""

import json

from record_golden import REFERENCE, TABLE, golden_lines, run_line

GOLDEN = json.loads(TABLE.read_text())


def test_every_line_reproduces_its_recorded_report():
    changed = [line for line, recorded in GOLDEN.items() if run_line(line) != recorded]
    assert changed == []


def test_the_table_holds_the_lines_the_recorder_writes():
    assert list(GOLDEN) == golden_lines()
    assert sorted({entry["exit"] for entry in GOLDEN.values()}) == [0, 1, 2, 3, 4]


def test_lines_shared_with_the_benchmark_reference_have_its_hashes():
    reference = json.loads(REFERENCE.read_text())["commands"]
    shared = sorted(set(GOLDEN) & set(reference))
    assert len(shared) >= 18  # every command of the corpus workload
    assert [line for line in shared if GOLDEN[line]["stdout"] != reference[line]] == []
