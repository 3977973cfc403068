"""Report bytes and exit codes stay as recorded in tests/golden_reports.json.

The table is written by ``tests/record_golden.py``, run by hand; see there for
what it holds and when to re-record it.
"""

import json

import pytest
from record_golden import REFERENCE, TABLE, golden_lines, run_line

from translation_lab.configs import load_group
from translation_lab.reports import CheckReport, dumps

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


def test_reports_hold_elements_and_render_them_at_emission():
    f2 = load_group("f2")
    report = CheckReport("c", {"g": f2.parse("aB")}, witnesses=[f2.parse("b"), (f2.identity(),)])
    assert report.witnesses[0] == f2.parse("b")
    assert dumps(report.to_dict()) == (
        '{"compared_count":null,"details":{},"name":"c","params":{"g":"aB"},'
        '"verdict":"inconclusive-within-bound","witnesses":["b",["e"]]}'
    )


@pytest.mark.parametrize("value", [object(), {1, 2}, b"e"], ids=["object", "set", "bytes"])
def test_a_value_with_no_rendering_is_refused(value):
    """Printed as its repr, such a value could differ from run to run."""
    with pytest.raises(TypeError, match=f"a report cannot hold a {type(value).__name__}"):
        dumps({"witnesses": [value]})
