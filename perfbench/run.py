"""translation-lab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh child processes, one at a time and without
warm-up, until the next one would overrun ``--seconds``; at least one always
runs.  Every CLI user pays the cold cost, so each measured run is a new
interpreter.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the fastest
set-up of the run's children and ``verdict_s`` the sum over the workload's
operations of each one's fastest time in them, both in reference seconds:
before each child the runner times ``yardstick.py``, and both times are
scaled by ``REFERENCE_YARDSTICK_S`` over the fastest yardstick time of the
run.  The host slows every process down by up to 1.7x, for seconds to many
minutes, and this takes most of that out (see perfbench/README.md).
``peak_rss_mb`` is the median over the children.  ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics of the traced
ones plus the tracing overhead.  Human readable lines go first; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn and prints their
metrics under ``<workload>.<metric>``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "translation_lab"
CHILD = HERE / "child.py"
YARDSTICK = HERE / "yardstick.py"
# about the fastest yardstick time seen on the 2-vCPU VM the benchmark was
# sized on; it only sets the scale of the reported times, so that they read
# close to wall seconds on a quiet host
REFERENCE_YARDSTICK_S = 0.035
HARD_LIMIT_S = 170.0


def launch(workload: str, seed: int, mode: str, hash_seed: int, timeout: float, tiny: bool = False):
    """Run one child; returns its parsed result, or None if it failed."""
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"{workload}: unreadable child output", file=sys.stderr)
        return None
    result["setup_s"] = result["ready"] - launched
    return result


def time_yardstick(timeout: float):
    """Seconds one cold yardstick process took, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(YARDSTICK)], stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
        )
        return float(proc.stdout) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


class Run:
    """The children of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.tiny = tiny
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.yardsticks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.crashed = 0
        self._hash_seeds = iter(workloads.hash_seeds(workload, seed, 10_000))
        self._ops = workloads.operation_count(workload, tiny)
        self._measure(seconds)

    def _child(self, mode: str, deadline: float):
        result = launch(
            self.workload, self.seed, mode, next(self._hash_seeds), deadline - time.perf_counter(), self.tiny
        )
        self.attempted += self._ops
        if result is None:
            self.crashed += 1
            self.failed += self._ops
            return None
        for failure in result["failures"]:
            print(f"{self.workload}: FAILED {failure}", file=sys.stderr)
        self.failed += len(result["failures"])
        return result

    def _measure(self, seconds: float) -> None:
        start = time.perf_counter()
        hard = start + HARD_LIMIT_S
        modes = ("run", "trace") if self.trace else ("run",)
        round_s: list[float] = []
        while True:
            began = time.perf_counter()
            if not self.trace:
                yardstick = time_yardstick(hard - time.perf_counter())
                if yardstick is None:
                    print(f"{self.workload}: the yardstick failed", file=sys.stderr)
                    self.crashed += 1
                else:
                    self.yardsticks.append(yardstick)
            for mode in modes:
                result = self._child(mode, hard)
                if result is not None:
                    (self.traced if mode == "trace" else self.plain).append(result)
            round_s.append(time.perf_counter() - began)
            now = time.perf_counter()
            if now - start + max(round_s) > seconds or now + max(round_s) > hard:
                break

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.crashed == 0 and bool(self.plain)

    @property
    def host_scale(self) -> float:
        """Reference seconds per second measured in this run."""
        return REFERENCE_YARDSTICK_S / _fastest(self.yardsticks) if self.yardsticks else 0.0

    def end_to_end(self) -> dict:
        return {
            "verdict_s": (_fastest_total(self.plain) * self.host_scale, "s"),
            "setup_s": (_fastest(r["setup_s"] for r in self.plain) * self.host_scale, "s"),
            "peak_rss_mb": (_median(r["peak_rss_kb"] / 1024 for r in self.plain), "MiB"),
        }

    def per_layer(self) -> dict:
        if not self.traced:
            return {}
        per_child = [layer_metrics(r["trace"]) for r in self.traced]
        out = {name: (_median(m[name][0] for m in per_child), unit) for name, (_, unit) in per_child[0].items()}
        traced_s = _fastest_total(self.traced)
        out["trace.verdict_s"] = (traced_s, "s")
        out["trace.overhead_s"] = (traced_s - _fastest_total(self.plain), "s")
        out["error_rate"] = (self.failed / self.attempted, "ratio")
        return out

    def summary_lines(self) -> list[str]:
        lines = [
            f"# {self.workload} seed {self.seed}: {len(self.plain)} untraced and {len(self.traced)} traced runs, "
            f"{self.failed} of {self.attempted} operations failed "
            f"(error_rate {self.failed / self.attempted:.4f})"
        ]
        if self.plain:
            v = sorted(r["verdict_s"] for r in self.plain)
            lines.append(
                f"#   whole-workload time: fastest {v[0]:.4f} s, median {_median(v):.4f}, slowest {v[-1]:.4f}"
                f" over {len(v)} runs"
            )
        if self.yardsticks:
            lines.append(
                f"#   measured seconds: verdict {_fastest_total(self.plain):.4f}, set-up "
                f"{_fastest(r['setup_s'] for r in self.plain):.4f}, yardstick {_fastest(self.yardsticks):.4f} "
                f"of {len(self.yardsticks)}; reference seconds per second {self.host_scale:.4f}"
            )
        return lines

    def spans_table(self) -> list[str]:
        if not self.traced:
            return []
        spans = self.traced[0]["trace"]["spans"]
        rows = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
        return [
            f"#   {s['self_s']:10.4f} s self {s['total_s']:10.4f} s total {s['calls']:>10} calls  {name}"
            for name, s in rows
        ]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _fastest(values) -> float:
    return min(values, default=0.0)


def _fastest_total(results: list[dict]) -> float:
    """Sum over the operations of each one's fastest time across the children."""
    return sum(min(times) for times in zip(*(r["op_s"] for r in results)))


def run_metadata() -> dict:
    """Recorded beside the metrics, never gated."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE_DIR.glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"cannot find the translation_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once, outside any measurement, as an installed package would be
    if not compileall.compile_dir(str(PACKAGE_DIR), quiet=1) or not compileall.compile_dir(
        str(HERE), quiet=1, maxlevels=0
    ):
        print("byte-compilation failed", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        for line in run.summary_lines():
            print(line)
        for line in run.spans_table():
            print(line, file=sys.stderr)
        values = run.per_layer() if args.trace else run.end_to_end()
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in values.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"#   {prefix}{metric} = {shown} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        correct = correct and run.correct
        attempted += run.attempted
        failed += run.failed
    print(f"# meta {json.dumps(run_metadata(), sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
