"""Three-valued check reports and canonical JSON emission.

Every bounded check in this package is a semi-decision: it either verifies a
statement at an explicit scale, falsifies it with a concrete witness, or runs
out of budget.  Reports record which of the three happened together with every
parameter that influenced the run, so that reruns are byte-reproducible.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

VERIFIED = "verified-at-scale"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive-within-bound"


class ConfigError(ValueError):
    """An input that the loader or a check cannot take; the command line exits 3 on it."""


def canonical_value(value):
    """Recursively convert a report value into canonical JSON-ready form.

    This is where a report's values become text: fractions become
    [numerator, denominator], tuples become lists in their order, and objects
    exposing ``report_form()`` (group elements, tracks, operators, reports)
    delegate.  Any other object raises ``TypeError``, since its repr would
    differ from run to run.
    """
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if hasattr(value, "report_form"):
        return canonical_value(value.report_form())
    raise TypeError(f"a report cannot hold a {type(value).__name__}")


def dumps(tree) -> str:
    """Canonical JSON: sorted keys, compact separators, deterministic bytes."""
    return json.dumps(canonical_value(tree), sort_keys=True, separators=(",", ":"))


class CheckReport:
    """One check's verdict with the parameters, witnesses and details behind it.

    ``params``, ``witnesses`` and ``details`` start empty, a new dict or list
    for each report, when not given.  ``elapsed`` is the check's wall time,
    set by ``SuiteReport.add``; it is emitted only with timings.
    """

    elapsed: float = 0.0

    def __init__(
        self,
        name: str,
        params: dict | None = None,
        verdict: str = INCONCLUSIVE,
        witnesses: list | None = None,
        compared_count: int | None = None,
        details: dict | None = None,
    ):
        self.name = name
        self.params = {} if params is None else params
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.compared_count = compared_count
        self.details = {} if details is None else details

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "params": canonical_value(self.params),
            "verdict": self.verdict,
            "witnesses": canonical_value(self.witnesses),
            "compared_count": self.compared_count,
            "details": canonical_value(self.details),
        }
        if include_timing:
            out["elapsed_seconds"] = round(self.elapsed, 6)
        return out

    def report_form(self):
        return self.to_dict()


class SuiteReport:
    """A named list of check reports; its verdict is the worst of theirs.

    ``params`` and ``checks`` start empty, a new dict or list for each suite,
    when not given.  The clock that times each ``add`` starts at construction.
    """

    __slots__ = ("name", "params", "checks", "_last_add")

    def __init__(self, name: str, params: dict | None = None, checks: list | None = None):
        self.name = name
        self.params = {} if params is None else params
        self.checks = [] if checks is None else checks
        self._last_add = time.perf_counter()

    @property
    def verdict(self) -> str:
        verdicts = [c.verdict for c in self.checks]
        if FALSIFIED in verdicts:
            return FALSIFIED
        if INCONCLUSIVE in verdicts:
            return INCONCLUSIVE
        return VERIFIED

    def add(self, check: CheckReport) -> CheckReport:
        """Append ``check``, timed from the suite's start or the previous add."""
        now = time.perf_counter()
        check.elapsed = now - self._last_add
        self._last_add = now
        self.checks.append(check)
        return check

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "params": canonical_value(self.params),
            "verdict": self.verdict,
            "checks": [c.to_dict(include_timing) for c in self.checks],
        }
        if include_timing:
            # the checks' times chain from the suite's start to its last add
            out["elapsed_seconds"] = round(sum(c.elapsed for c in self.checks), 6)
        return out
