"""Command-line front end: load configs, dispatch checks, emit canonical JSON.

``COMMANDS`` has one row per (command, what): the flags that ``what`` reads,
each with its default or the ``REQUIRED`` mark, its runner, and a usage rule
tested before anything is loaded.  ``dispatch`` parses the line against the
row, applies the rule, refuses a missing required flag, loads ``--group``,
``--subset`` and ``--ambient`` once, and hands the loaded namespace to the
runner.

Exit codes: 0 success (verified or inconclusive verdicts only), 1 at least
one falsified verdict, 2 usage error (such as a negative radius), 3 malformed
configuration (such as an unparseable element or a bad ball cap), 4 resource
cap exceeded.  Exit code 1 is never used for a crash.
"""

from __future__ import annotations

import re
import sys
import time
from types import SimpleNamespace
from typing import Callable

from .configs import load_group, load_subset
from .gallery import SUITES, run_all
from .geometry import (
    SPLIT_RADIUS,
    almost_invariant_check,
    boundary_set,
    convexity_bounded_check,
    coseparability_search,
    deep_witness,
    h_isolation_sets,
    presentation_for,
    relatively_deep_check,
    verify_h_isolation,
)
from .group_algebra import (
    SigmaVector,
    coset_decomposition_check,
    isolation_projection,
    module_inner_product,
    verify_ph_in_ideal,
)
from .groups import BallCapExceeded, BallCapInvalid, FreeGroupContext, MalformedWord, ball_cap
from .operators import (
    adjoint,
    compose,
    coset_projection,
    generator_operator,
    guarded_equal,
    identity_operator,
    make_window,
    matrix_rank,
    track_operator,
)
from .reports import FALSIFIED, INCONCLUSIVE, VERIFIED, CheckReport, ConfigError, SuiteReport, dumps
from .subsets import trivial_subgroup, verify_stabilisers, whole_group
from .tracks import make_track, track_of_sequence
from .universal import (
    appendix_contrast_demo,
    track_independence_check,
    universality_check,
    universal_z_spec,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4

REQUIRED = object()  # a row's mark for a flag with no default: leaving it out is a config error


def _stabiliser(spec):
    return spec.left_stabiliser or trivial_subgroup(spec.ctx)


def _parse_operator(ctx, w, text: str):
    text = text.strip()
    if text == "id":
        return identity_operator(w)
    if text.startswith("gen:"):
        return generator_operator(w, ctx.parse(text[4:]))
    if text.startswith("adj:"):
        return adjoint(_parse_operator(ctx, w, text[4:]))
    if text.startswith("track:"):
        body = text[6:].strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        head, brace, rest = body.partition("{")
        total = ctx.parse(head.rstrip(", "))
        if not brace:
            raise ConfigError("track needs a {..} visited part")
        visited_text, close, tail = rest.partition("}")
        if not close or tail.strip():
            raise ConfigError(f"track needs its {{..}} visited part closed at the end, got {text!r}")
        visited = [ctx.parse(tok) for tok in visited_text.split(",") if tok.strip()]
        return track_operator(w, make_track(ctx, total, visited))
    raise ConfigError(f"cannot parse operator expression {text!r}")


def _operand(args, w, flag: str = "lhs"):
    """The operator that ``--lhs`` (or ``--rhs``) names, on the window ``w``."""
    return _parse_operator(args.group, w, getattr(args, flag))


def _suite(make: Callable, *params: str) -> Callable:
    """A runner whose one suite, COMMAND-WHAT, records the flags ``params`` and
    holds the checks of ``make(args)``, each timed as it is made."""

    def run(args) -> list[SuiteReport]:
        suite = SuiteReport(name=f"{args.command}-{args.what}", params={flag: getattr(args, flag) for flag in params})
        for check in make(args):
            suite.add(check)
        return [suite]

    return run


def _isolation(args, h, name: str, finish: Callable):
    """The co-separability search, then ``finish(families)`` on the F1 and F2 split
    from its witnesses.  A split that fails gives an inconclusive ``name`` check
    naming the radius."""
    b = args.subset
    search = coseparability_search(b, h, args.r, args.R, args.max_size)
    yield search
    if search.verdict != VERIFIED:
        return
    families = h_isolation_sets(b, search.witnesses)
    if families is None:
        note = f"no point within radius {SPLIT_RADIUS} splits the distinguishing set across the subset's boundary"
        yield CheckReport(name=name, params={"B": b.name, "H": h.name}, verdict=INCONCLUSIVE, details={"note": note})
    else:
        yield finish(families)


def _h_isolation(args):
    h = _stabiliser(args.subset)
    return _isolation(args, h, "h-isolation", lambda families: verify_h_isolation(args.subset, h, *families, args.R))


def _projection(args):
    """P_H built from the isolation families against the coset projection onto H."""
    b, h = args.subset, _stabiliser(args.subset)
    if not all(b.contains(x) for x in h.elements_in_ball(args.R)):
        raise ConfigError("the claimed stabiliser must lie inside the subset for the projection construction")

    def finish(families):
        w = make_window(b, args.R)
        match = guarded_equal(isolation_projection(w, *families), coset_projection(w, h, args.group.identity()))
        return match.report("isolation-projection")

    yield from _isolation(args, h, "isolation-projection", finish)


def _listing(name: str, params: dict, points: list, details=None) -> list[CheckReport]:
    """A verified check whose witnesses are ``points``."""
    return [CheckReport(name, params, VERIFIED, points, len(points), details)]


def _boundary(args):
    return _listing("boundary-set", {"B": args.subset.name, "R": args.R}, boundary_set(args.subset, args.R))


def _op(check: Callable) -> Callable:
    """An ``op`` runner: its suite records R and holds ``check(args, window)``."""
    return _suite(lambda a: [check(a, make_window(a.subset, a.R))], "R")


def _operator(name: str, make: Callable, details=lambda op: {"operator": op}) -> Callable:
    """An ``op`` runner reporting ``details`` of the operator ``make(args, window)`` as the check ``name``."""
    return _op(lambda a, w: CheckReport(name=name, verdict=VERIFIED, details=details(make(a, w))))


def _equality(args, w):
    match = guarded_equal(_operand(args, w), _operand(args, w, "rhs"))
    return match.report("equality", {"lhs": args.lhs, "rhs": args.rhs})


def _inner(args):
    ctx, b = args.group, args.subset
    lhs, rhs = SigmaVector.basis(b, ctx.parse(args.lhs)), SigmaVector.basis(b, ctx.parse(args.rhs))
    value = module_inner_product(_stabiliser(b), lhs, rhs)
    params, details = {"lhs": args.lhs, "rhs": args.rhs}, {"value": value}
    return [CheckReport(name="inner-product", params=params, verdict=VERIFIED, details=details)]


def _translate(args):
    """B, X, H, g and R of a check on B's translate by g: H is B's stabiliser and g the ``--element``."""
    return args.subset, args.ambient, _stabiliser(args.subset), args.group.parse(args.element), args.R


def _universal_set(args):
    """``--subset``, or the integer universal subset, which needs Z."""
    return universal_z_spec(args.group) if args.subset is None else args.subset


def _universal_window(args):
    spec = _universal_set(args)
    window = spec.elements_in_ball(args.R)
    details = {"placements": spec.placed} if hasattr(spec, "placed") else None
    return _listing("universal-window", {"R": args.R}, window, details)


def _independence(args):
    spec = _universal_set(args)
    tracks = [track_of_sequence(args.group, [g]) for g in args.group.ball(args.r)]
    return [track_independence_check(spec, tracks, args.R)]


def _gallery(name: str, suite) -> What:
    """A suite's row: its sizes at their defaults, each refused below its least,
    and ``--n`` refused above the number of generator names."""
    sizes = {flag: default for flag, (default, _least) in suite.sizes.items()}
    most = len(FreeGroupContext.default_names)  # --n names each generator of a free-group suite

    def rule(args):
        for flag, (_default, least) in suite.sizes.items():
            if getattr(args, flag) < least:
                return f"gallery {name} needs --{flag} >= {least}"
        return f"gallery {name} needs --n <= {most}" if getattr(args, "n", 0) > most else None

    return What(sizes, lambda a: suite.run(**{flag: getattr(a, flag) for flag in sizes}), rule)


class UsageError(Exception):
    """A command line that the command table refuses; ``dispatch`` exits 2."""


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be nonnegative, got {value}")
    return value


class Flag:
    """``Flag(help, type=str)``: a flag's help line and the function that
    converts its value; ``type`` None marks a switch that takes no value."""

    __slots__ = ("help", "type")

    def __init__(self, help: str, type: Callable[[str], object] | None = str):
        self.help = help
        self.type = type


# A flag's spelling is its name with "-" for "_"; "-g" also spells --element.
FLAGS = {
    "group": Flag("builtin name or JSON file"),
    "subset": Flag("subset JSON file"),
    "ambient": Flag("ambient subset JSON file"),
    "element": Flag("group element (context notation)"),
    "lhs": Flag("operator expression"),
    "rhs": Flag("operator expression"),
    "R": Flag("window / search radius", nonnegative_int),
    "r": Flag("inner radius", nonnegative_int),
    "L": Flag("word length bound", nonnegative_int),
    "n": Flag("rank parameter", nonnegative_int),
    "max_size": Flag("largest distinguishing set searched", nonnegative_int),
    "out": Flag("write the report to this path"),
    "timings": Flag("include timings (breaks byte reproducibility)", None),
}
COMMON = ("out", "timings")  # every ``what`` takes these


def _spelling(flag: str) -> str:
    return "--" + flag.replace("_", "-")


SPELLINGS = {_spelling(flag): flag for flag in FLAGS} | {"-g": "element"}


class What:
    """``What(flags, run, rule)``: one (command, what) row.

    ``flags`` maps each flag the row reads to its default, to None (optional
    and "not given") or to ``REQUIRED``.  ``run`` takes the parsed namespace
    with --group, --subset and --ambient loaded and returns the suites.
    ``rule`` returns a usage error, or None, before anything is loaded; by
    default there is none.
    """

    __slots__ = ("flags", "run", "rule")

    def __init__(
        self,
        flags: dict[str, object],
        run: Callable[[SimpleNamespace], list[SuiteReport]],
        rule: Callable[[SimpleNamespace], str | None] = lambda args: None,
    ):
        self.flags = flags
        self.run = run
        self.rule = rule


class Command:
    """``Command(help, whats)``: one subcommand's help line and its row for each ``what``."""

    __slots__ = ("help", "whats")

    def __init__(self, help: str, whats: dict[str, What]):
        self.help = help
        self.whats = whats


ON_B = {"group": REQUIRED, "subset": REQUIRED}  # every check, op and module row reads a subset B of a group
SEARCH = {"r": 3, "R": 8, "max_size": 3}  # the co-separability search
TRANSLATE = {"ambient": None, "element": REQUIRED, "R": 8}  # B, its translate by g and an ambient set X
OP = ON_B | {"R": 8}  # every op row builds the window of radius R on B
UNIVERSAL = {"group": "z", "subset": None}  # no --subset: Z's own universal subset

# The flags each runner reads; any other flag is a usage error.  Universal's --R is the
# window radius of build and the scan bound of verify and independence.
COMMANDS = {
    "check": Command(
        "geometric checks",
        {
            "deep": What(
                ON_B | {"r": 3, "R": 8},
                _suite(lambda a: [deep_witness(a.subset, a.r, a.R)]),
                lambda a: "check deep needs --r <= --R" if a.r > a.R else None,
            ),
            "rel-deep": What(
                ON_B | {"ambient": None, "r": 3, "R": 8},
                _suite(lambda a: [relatively_deep_check(a.subset, a.ambient, _stabiliser(a.ambient), a.r, a.R)]),
            ),
            "almost-invariant": What(ON_B | TRANSLATE, _suite(lambda a: [almost_invariant_check(*_translate(a))])),
            "coseparable": What(
                ON_B | SEARCH,
                _suite(lambda a: [coseparability_search(a.subset, _stabiliser(a.subset), a.r, a.R, a.max_size)]),
            ),
            "isolation": What(ON_B | SEARCH, _suite(_h_isolation)),
            "boundary": What(ON_B | {"R": 8}, _suite(_boundary)),
            "convexity": What(
                ON_B | {"L": 3}, _suite(lambda a: [convexity_bounded_check(a.subset, presentation_for(a.group), a.L)])
            ),
            "stabilisers": What(ON_B | {"r": 3}, _suite(lambda a: [verify_stabilisers(a.subset, a.r)])),
        },
    ),
    "op": Command(
        "windowed operator arithmetic",
        {
            "build": What(
                OP | {"element": REQUIRED},
                _operator("operator", lambda a, w: generator_operator(w, a.group.parse(a.element))),
            ),
            "mul": What(
                OP | {"lhs": REQUIRED, "rhs": REQUIRED},
                _operator("product", lambda a, w: compose(_operand(a, w), _operand(a, w, "rhs"))),
            ),
            "adjoint": What(OP | {"lhs": REQUIRED}, _operator("adjoint", lambda a, w: adjoint(_operand(a, w)))),
            "eq": What(OP | {"lhs": REQUIRED, "rhs": REQUIRED}, _op(_equality)),
            "rank": What(OP | {"lhs": REQUIRED}, _operator("rank", _operand, lambda op: {"rank": matrix_rank(op)})),
        },
    ),
    "module": Command(
        "subgroup-module identities",
        {
            "inner": What(ON_B | {"lhs": REQUIRED, "rhs": REQUIRED}, _suite(_inner)),
            "ph": What(ON_B | SEARCH, _suite(_projection)),
            "ideal": What(ON_B | TRANSLATE, _suite(lambda a: [verify_ph_in_ideal(*_translate(a))])),
            "coset-decomp": What(ON_B | TRANSLATE, _suite(lambda a: [coset_decomposition_check(*_translate(a))])),
        },
    ),
    "gallery": Command(
        "named extension suites",
        {name: _gallery(name, suite) for name, suite in SUITES.items()} | {"all": What({}, lambda a: run_all())},
    ),
    "universal": Command(
        "universal subsets",
        {
            "build": What(UNIVERSAL | {"R": 12}, _suite(_universal_window)),
            "verify": What(
                UNIVERSAL | {"r": 2, "R": 5000}, _suite(lambda a: [universality_check(_universal_set(a), a.r, a.R)])
            ),
            "independence": What(UNIVERSAL | {"r": 2, "R": 5000}, _suite(_independence)),
            "demo": What({}, lambda a: [appendix_contrast_demo()]),
        },
    ),
}


def _is_flag(token: str) -> bool:
    """A token starting with "-" names a flag, unless it is "-", a negative
    number, or holds a space outside a ``--name=value`` (so ``--lhs -1`` parses)."""
    if token.partition("=")[0] in SPELLINGS:
        return True
    return token[:1] == "-" and token != "-" and " " not in token and not re.fullmatch(r"-\d+|-\d*\.\d+", token)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``COMMAND WHAT [flags]`` against ``COMMANDS`` and ``FLAGS``.

    ``what`` may stand anywhere after the command.  A flag is spelled exactly,
    as ``--name value`` or ``--name=value``, and the last of a repeated flag
    wins.  The result holds ``command``, ``what``, every flag of the row (its
    default when not given, None for a required one), ``out`` and ``timings``.
    Raises ``UsageError`` for anything else.
    """
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"the command must be one of {', '.join(COMMANDS)}")
    name, command = argv[0], COMMANDS[argv[0]]
    whats, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_flag(token):
            whats.append(token)
            continue
        spelling, eq, value = token.partition("=")
        flag = SPELLINGS.get(spelling)
        if flag is None:
            raise UsageError(f"unrecognized argument {token}")
        convert = FLAGS[flag].type
        if convert is None:
            if eq:
                raise UsageError(f"{spelling} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise UsageError(f"{spelling} needs a value")
        try:
            given[flag] = convert(value)
        except ValueError as err:
            raise UsageError(f"{spelling}: {err}") from None
    if len(whats) != 1 or whats[0] not in command.whats:
        raise UsageError(f"{name} takes one of {', '.join(command.whats)}, got {' '.join(whats) or 'none'}")
    what = whats[0]
    flags = command.whats[what].flags
    extra = [_spelling(flag) for flag in given if flag not in flags and flag not in COMMON]
    if extra:
        raise UsageError(f"{name} {what} takes no {', '.join(extra)}")
    defaults = {flag: None if default is REQUIRED else default for flag, default in flags.items()}
    return SimpleNamespace(**{"command": name, "what": what, **defaults, "out": None, "timings": False, **given})


def _load(args: SimpleNamespace, flags: dict[str, object]) -> SimpleNamespace:
    """Refuse a missing required flag, then load ``--group``, ``--subset`` and
    ``--ambient`` (the whole group when absent) in place of their text."""
    for flag, default in flags.items():
        if default is REQUIRED and getattr(args, flag) is None:
            raise ConfigError(f"--{flag} is required for this command")
    if "group" in flags:
        args.group = load_group(args.group)
    if "subset" in flags and args.subset is not None:
        args.subset = load_subset(args.group, args.subset)
    if "ambient" in flags:
        args.ambient = whole_group(args.group) if args.ambient is None else load_subset(args.group, args.ambient)
    return args


def _usage(name: str | None) -> str:
    head = f"{name} {{{','.join(COMMANDS[name].whats)}}}" if name else f"{{{','.join(COMMANDS)}}} WHAT"
    return f"usage: translation-lab {head} [--FLAG VALUE ...] [--out PATH] [--timings]"


def _shown(flag: str, default) -> str:
    return _spelling(flag) + ("" if default in (None, REQUIRED) else f" (default {default})")


def _help(name: str | None) -> str:
    """Usage, each command (or each ``what`` with its flags and their defaults), and each flag's help."""
    if name is None:
        rows, flags = [(n, c.help) for n, c in COMMANDS.items()], list(FLAGS)
    else:
        whats = COMMANDS[name].whats
        rows = [(what, " ".join(_shown(*item) for item in row.flags.items())) for what, row in whats.items()]
        flags = [*dict.fromkeys(flag for row in whats.values() for flag in row.flags), *COMMON]
    lines = [_usage(name), "", *(f"  {left:<18}{right}" for left, right in rows), "", "flags:"]
    for flag in flags:
        spelled = _spelling(flag) + (", -g" if flag == "element" else "")
        lines.append(f"  {spelled:<18}{FLAGS[flag].help}")
    return "\n".join(lines)


def dispatch(argv) -> int:
    argv = list(argv)
    name = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:  # "-h" is always read as a flag, never as a value
        print(_help(name))
        return EXIT_OK
    try:
        args = parse_args(argv)
        row = COMMANDS[args.command].whats[args.what]
        if problem := row.rule(args):
            raise UsageError(problem)
    except UsageError as err:
        print(f"{_usage(name)}\ntranslation-lab: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ball_cap()  # a malformed cap is a config error whether or not a ball is grown
        suites = row.run(_load(args, row.flags))
    except (ConfigError, MalformedWord, BallCapInvalid) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BallCapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE

    started = time.perf_counter()
    text = dumps({"suites": [s.to_dict(args.timings) for s in suites]})
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"config error: cannot write report {args.out}: {err.strerror}", file=sys.stderr)
            return EXIT_CONFIG
    print(text)
    if args.timings:
        sys.stdout.flush()
        print(f"emit_seconds={time.perf_counter() - started:.6f}", file=sys.stderr)
    falsified = any(s.verdict == FALSIFIED for s in suites)
    return EXIT_FALSIFIED if falsified else EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
