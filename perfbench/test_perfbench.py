"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

They are not part of the repository's tier-1 suite (``testpaths`` names
``tests`` only) and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SEED = 7


def traced_child(name: str) -> dict:
    result = run.launch(name, SEED, "trace", hash_seed=1234, timeout=120, tiny=True)
    assert result is not None
    assert result["failures"] == []
    return result


def counts_of(result: dict) -> dict:
    trace = result["trace"]
    return {"calls": {n: s["calls"] for n, s in trace["spans"].items()}, "counts": trace["counts"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_and_self_times_fit(name):
    first = traced_child(name)
    second = traced_child(name)
    assert counts_of(first) == counts_of(second)
    assert counts_of(first)["calls"], "the tracer saw no calls"
    for result in (first, second):
        self_total = sum(s["self_s"] for s in result["trace"]["spans"].values())
        assert self_total <= result["verdict_s"]


def test_every_layer_metric_is_reported():
    metrics = run.Run("corpus", SEED, seconds=0, trace=True, tiny=True).per_layer()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics)
    assert {m["name"]: m["unit"] for m in declared} == {k: unit for k, (_, unit) in metrics.items()}


def test_end_to_end_times_are_scaled_by_the_yardstick():
    tiny = run.Run("lance", SEED, seconds=0, trace=False, tiny=True)
    metrics = tiny.end_to_end()
    assert tiny.correct and tiny.yardsticks
    scale = run.REFERENCE_YARDSTICK_S / min(tiny.yardsticks)
    assert metrics["verdict_s"][0] == pytest.approx(min(r["op_s"][0] for r in tiny.plain) * scale)
    assert metrics["setup_s"][0] == pytest.approx(min(r["setup_s"] for r in tiny.plain) * scale)


def test_reports_match_reference_and_tampering_counts_as_failure():
    workload = workloads.Workload("corpus", SEED)
    reference = workloads.load_reference()
    outcomes = workload.run()
    assert workload.check(outcomes, reference) == []

    # change one digit, so the report still parses and has the same verdict
    victim = outcomes[3]
    i = next(i for i, ch in enumerate(victim.text) if ch.isdigit())
    victim.text = victim.text[:i] + str((int(victim.text[i]) + 1) % 10) + victim.text[i + 1 :]
    failures = workload.check(outcomes, reference)
    assert len(failures) == 1 and "reference" in failures[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
