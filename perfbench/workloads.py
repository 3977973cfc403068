"""The benchmark's workloads, their inputs and their reference answers.

A workload is a list of operations that one fresh process runs in order.  An
operation is either one CLI invocation through ``cli.dispatch`` or one call of
``universal.track_independence_check``; either way it yields an exit code and
the canonical report text.  Every operation is checked three ways: its exit
code, the verdict of every suite or check in its report, and the sha256 of its
report bytes against ``reference.json`` (recorded at commit 8b797bc;
regenerate with ``python3 perfbench/record.py`` after a deliberate format
change).  The ``tracks`` workload is also checked for rank = |T|.

``--seed`` fixes the inputs: the order of the track set for ``tracks``, the
order of the commands for ``corpus``, and for every workload the
``PYTHONHASHSEED`` of each process (see ``hash_seeds``).  The report bytes do
not depend on the hash seed, so every seed is checked against the same hashes.

Each workload also has a tiny form for the benchmark's self-tests; tiny
operations are checked for exit code and verdict only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
INPUTS = HERE / "inputs"
DEFAULT_SEED = 0
VERIFIED = "verified-at-scale"
FALSIFIED = "falsified"
TRACK_SCAN_BOUND = 3_000_000

NAT = str(INPUTS / "nat.json")
HALF = str(INPUTS / "half.json")


@dataclass(frozen=True)
class Command:
    """One CLI invocation with its known exit code and verdict."""

    argv: tuple[str, ...]
    exit_code: int = 0
    verdict: str = VERIFIED

    @property
    def label(self) -> str:
        # input files are named relative to the benchmark so labels do not
        # depend on where the checkout lives
        return " ".join(Path(a).name if a.startswith(str(INPUTS)) else a for a in self.argv)


def _cmd(text: str, exit_code: int = 0, verdict: str = VERIFIED) -> Command:
    argv = tuple({"nat.json": NAT, "half.json": HALF}.get(a, a) for a in text.split())
    return Command(argv, exit_code, verdict)


COMMANDS = {
    "lance": [_cmd("gallery lance --R 4")],
    "cuntz": [_cmd("gallery cuntz --L 9")],
    "convexity": [_cmd("check convexity --group z4*z6 --subset half.json --L 4")],
    "corpus": [
        # the eight suites of ``gallery all``, at its sizes, one call each so
        # that each is timed alone (see perfbench/README.md)
        *(
            _cmd(f"gallery {suite}")
            for suite in ("toeplitz", "pv", "cuntz", "relations", "lance", "hnn", "quotient", "generation")
        ),
        _cmd("universal demo"),
        _cmd("gallery hnn --R 5"),
        _cmd("check deep --group z --subset nat.json --r 3 --R 10"),
        _cmd("check coseparable --group z --subset nat.json --r 1 --R 10"),
        _cmd("check isolation --group z --subset nat.json --r 1 --R 10"),
        _cmd("check stabilisers --group z4*z6 --subset half.json --r 3"),
        _cmd("op eq --group z --subset nat.json --lhs track:(0,{0,1}) --rhs id", 1, FALSIFIED),
        _cmd("op rank --group z --subset nat.json --lhs gen:1"),
        _cmd("module ph --group z4*z6 --subset half.json --r 1 --R 6"),
        _cmd("module ideal --group z --subset nat.json -g 1 --R 12"),
    ],
}

TINY_COMMANDS = {
    "lance": [_cmd("gallery lance --R 3")],
    "cuntz": [_cmd("gallery cuntz --L 4")],
    "convexity": [_cmd("check convexity --group z4*z6 --subset half.json --L 2")],
    "corpus": [
        _cmd("gallery toeplitz --R 8"),
        _cmd("check deep --group z --subset nat.json --r 3 --R 10"),
        _cmd("op eq --group z --subset nat.json --lhs track:(0,{0,1}) --rhs id", 1, FALSIFIED),
        _cmd("module ideal --group z --subset nat.json -g 1 --R 12"),
    ],
}

WORKLOADS = ("lance", "cuntz", "convexity", "tracks", "corpus")
TRACK_STEPS = (1, -1, 2, -2)


def operation_count(name: str, tiny: bool = False) -> int:
    return 1 if name == "tracks" else len((TINY_COMMANDS if tiny else COMMANDS)[name])


def hash_seeds(workload: str, seed: int, count: int) -> list[int]:
    """PYTHONHASHSEED of each process of a run, as a fresh CLI user would get."""
    rng = random.Random(f"{workload}/{seed}/hash")
    return [rng.randrange(2**32) for _ in range(count)]


def track_pool(ctx, tracks_module, max_len: int, radius: int) -> list:
    """Distinct tracks of step sequences over {±1, ±2}, visited points within ``radius``."""
    pool = {}
    for n in range(1, max_len + 1):
        for seq in itertools.product(TRACK_STEPS, repeat=n):
            t = tracks_module.track_of_sequence(ctx, [ctx.integer(k) for k in seq])
            if all(abs(h.word[0]) <= radius for h in t.visited):
                pool.setdefault((t.total.word, tuple(h.word for h in t.visited)), t)
    return list(pool.values())


@dataclass
class Outcome:
    label: str
    exit_code: int
    text: str
    seconds: float


class Workload:
    """Inputs of one workload for one seed, built in the measured process."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        from translation_lab import cli, groups, reports, tracks, universal

        self.name = name
        self.seed = seed
        self.operations = operation_count(name, tiny)
        self._cli = cli
        self._reports = reports
        self._universal = universal
        rng = random.Random(f"{name}/{seed}")
        if name == "tracks":
            z = groups.integers()
            pool = track_pool(z, tracks, 2 if tiny else 4, 2 if tiny else 5)
            rng.shuffle(pool)
            self.track_set = pool
            self._z = z
            self.commands = []
        else:
            self.commands = list((TINY_COMMANDS if tiny else COMMANDS)[name])
            rng.shuffle(self.commands)

    def run(self) -> list[Outcome]:
        """Run every operation; look the entry points up now, so a tracer sees them."""
        if self.name == "tracks":
            start = time.perf_counter()
            spec = self._universal.universal_z_spec(self._z)
            report = self._universal.track_independence_check(spec, self.track_set, TRACK_SCAN_BOUND)
            text = self._reports.dumps(report)
            code = 1 if report.verdict == FALSIFIED else 0
            return [Outcome("tracks", code, text, time.perf_counter() - start)]
        out = []
        for command in self.commands:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = self._cli.dispatch(list(command.argv))
            out.append(Outcome(command.label, code, buf.getvalue(), time.perf_counter() - start))
        return out

    def check(self, outcomes: list[Outcome], reference: dict | None) -> list[str]:
        """One message per failed operation; ``reference`` None skips the hashes."""
        if len(outcomes) != self.operations:
            return [f"expected {self.operations} operations, got {len(outcomes)}"] * self.operations
        if self.name == "tracks":
            return [m for m in [self._check_tracks(outcomes[0], reference)] if m]
        failures = []
        for command, outcome in zip(self.commands, outcomes):
            problem = _check_command(command, outcome, reference)
            if problem:
                failures.append(f"{command.label}: {problem}")
        return failures

    def _check_tracks(self, outcome: Outcome, reference: dict | None) -> str | None:
        n = len(self.track_set)
        if outcome.exit_code != 0:
            return f"tracks: falsified, expected {VERIFIED}"
        try:
            doc = json.loads(outcome.text)
            verdict, rank, compared = doc["verdict"], doc["details"].get("rank"), doc["compared_count"]
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            return f"tracks: unreadable report ({err!r})"
        if (verdict, rank, compared) != (VERIFIED, n, n):
            return f"tracks: verdict {verdict}, rank {rank}, compared {compared}; expected {VERIFIED} and {n}"
        if reference is None:
            return None
        expected = reference["tracks"]
        if witnesses_digest(doc) != expected["sorted_witnesses"]:
            return "tracks: witnesses differ from the reference"
        if self.seed == DEFAULT_SEED and sha256(outcome.text) != expected["report"]:
            return "tracks: report bytes differ from the reference"
        return None


def _check_command(command: Command, outcome: Outcome, reference: dict | None) -> str | None:
    if outcome.exit_code != command.exit_code:
        return f"exit code {outcome.exit_code}, expected {command.exit_code}"
    try:
        verdicts = {s["verdict"] for s in json.loads(outcome.text)["suites"]}
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report ({err!r})"
    if command.verdict == FALSIFIED:
        ok = FALSIFIED in verdicts
    else:
        ok = verdicts == {command.verdict}
    if not ok:
        return f"verdicts {sorted(verdicts)}, expected {command.verdict}"
    if reference is not None and sha256(outcome.text) != reference["commands"].get(command.label):
        return "report bytes differ from the reference"
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def witnesses_digest(doc: dict) -> str:
    """sha256 of a track-independence report's witnesses, which follow the
    seed's track order; sorted they are the same for every seed."""
    return sha256(json.dumps(sorted(doc["witnesses"], key=json.dumps)))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
