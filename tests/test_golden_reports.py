"""Report bytes and exit codes stay as recorded in tests/golden_reports.json.

The table is written by ``tests/record_golden.py``, run by hand; see there for
what it holds and when to re-record it.
"""

import collections
import gc
import json

import pytest
from record_golden import REFERENCE, TABLE, golden_lines, run_line

from translation_lab.configs import load_group
from translation_lab.reports import CheckReport, dumps

GOLDEN = json.loads(TABLE.read_text())


def test_every_line_reproduces_its_recorded_report():
    """The replay also runs with the cyclic collector off, as ``cli.dispatch``
    runs every command: reference counting must free all that the lines
    built, so a collection afterwards finds no cycle."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        changed = [line for line, recorded in GOLDEN.items() if run_line(line) != recorded]
        found = gc.collect()
        kinds = collections.Counter(type(x).__name__ for x in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert changed == []
    assert found == 0, f"cyclic garbage left by the table's lines: {kinds.most_common()}"


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
