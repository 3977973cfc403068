"""Command-line front end: load configs, dispatch checks, emit canonical JSON.

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
from typing import Callable, NamedTuple

from .configs import ConfigError, load_group, load_subset
from .gallery import SUITES, run_all
from .geometry import (
    SPLIT_RADIUS,
    almost_invariant_check,
    boundary_set,
    convexity_bounded_check,
    coseparability_search,
    coseparability_witness,
    deep_witness,
    h_isolation_sets,
    presentation_for,
    relatively_deep_check,
    verify_h_isolation,
)
from .group_algebra import coset_decomposition_check, isolation_projection, verify_ph_in_ideal
from .groups import BallCapExceeded, BallCapInvalid, FreeAbelianContext, FreeGroupContext, MalformedWord, ball_cap
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
from .reports import FALSIFIED, INCONCLUSIVE, VERIFIED, CheckReport, SuiteReport, dumps
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


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required for this command")


def _group(args):
    _require(args, "group")
    return load_group(args.group)


def _subset(ctx, args, flag="subset"):
    _require(args, flag)
    return load_subset(ctx, getattr(args, flag))


def _stabiliser_subgroup(spec):
    return spec.left_stabiliser or trivial_subgroup(spec.ctx)


def _isolation_sets(suite, name, b, h, args):
    """Add the co-separability search; F1 and F2 split from its witness, or None.

    A split that fails adds an inconclusive ``name`` check naming the radius.
    """
    search = coseparability_search(b, h, args.r, args.R, args.max_size)
    suite.add(search)
    if search.verdict != VERIFIED:
        return None
    families = h_isolation_sets(b, coseparability_witness(search, b))
    if families is None:
        note = f"no point within radius {SPLIT_RADIUS} splits the distinguishing set across the subset's boundary"
        params = {"B": b.name, "H": h.name}
        suite.add(CheckReport(name=name, params=params, verdict=INCONCLUSIVE, details={"note": note}))
    return families


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
        visited_text = rest.rsplit("}", 1)[0]
        visited = [ctx.parse(tok) for tok in visited_text.split(",") if tok.strip()]
        return track_operator(w, make_track(ctx, total, visited))
    raise ConfigError(f"cannot parse operator expression {text!r}")


def _cmd_check(args) -> SuiteReport:
    suite = SuiteReport(name=f"check-{args.what}")
    ctx = _group(args)
    b = _subset(ctx, args)
    if args.what == "deep":
        suite.add(deep_witness(b, args.r, args.R))
    elif args.what == "rel-deep":
        x = _subset(ctx, args, "ambient") if args.ambient else whole_group(ctx)
        k = _stabiliser_subgroup(x)
        suite.add(relatively_deep_check(b, x, k, args.r, args.R))
    elif args.what == "almost-invariant":
        x = _subset(ctx, args, "ambient") if args.ambient else whole_group(ctx)
        _require(args, "element")
        h = _stabiliser_subgroup(b)
        g = ctx.parse(args.element)
        suite.add(almost_invariant_check(b, x, h, g, args.R))
    elif args.what == "coseparable":
        h = _stabiliser_subgroup(b)
        suite.add(coseparability_search(b, h, args.r, args.R, args.max_size))
    elif args.what == "isolation":
        h = _stabiliser_subgroup(b)
        families = _isolation_sets(suite, "h-isolation", b, h, args)
        if families is not None:
            suite.add(verify_h_isolation(b, h, *families, args.R))
    elif args.what == "boundary":
        pts = boundary_set(b, args.R)
        suite.add(
            CheckReport(
                name="boundary-set",
                params={"B": b.name, "R": args.R},
                verdict=VERIFIED,
                witnesses=[ctx.format(x) for x in pts],
                compared_count=len(pts),
            )
        )
    elif args.what == "convexity":
        if not b.contains(ctx.identity()):
            raise ConfigError("convexity needs the identity inside the subset")
        pres = presentation_for(ctx)
        suite.add(convexity_bounded_check(b, pres, args.L))
    elif args.what == "stabilisers":
        suite.add(verify_stabilisers(b, args.r))
    return suite


def _cmd_op(args) -> SuiteReport:
    ctx = _group(args)
    spec = _subset(ctx, args)
    w = make_window(spec, args.R)
    suite = SuiteReport(name=f"op-{args.what}", params={"R": args.R})
    binary = args.what in ("mul", "eq")
    if args.what == "build":
        _require(args, "element")
        op = generator_operator(w, ctx.parse(args.element))
    else:
        _require(args, "lhs", *(["rhs"] if binary else []))
        op = _parse_operator(ctx, w, args.lhs)
    if binary:
        rhs = _parse_operator(ctx, w, args.rhs)
    if args.what == "eq":
        match = guarded_equal(op, rhs)
        suite.add(
            CheckReport(
                name="equality",
                params={"lhs": args.lhs, "rhs": args.rhs},
                verdict=VERIFIED if match.equal else FALSIFIED,
                witnesses=[] if match.equal else [match.mismatch],
                compared_count=match.rows_compared,
            )
        )
        return suite
    if args.what == "mul":
        op = compose(op, rhs)
    elif args.what == "adjoint":
        op = adjoint(op)
    name = {"build": "operator", "mul": "product", "adjoint": "adjoint", "rank": "rank"}[args.what]
    details = {"rank": matrix_rank(op)} if args.what == "rank" else {"operator": op.report_form()}
    suite.add(CheckReport(name=name, verdict=VERIFIED, details=details))
    return suite


def _cmd_module(args) -> SuiteReport:
    ctx = _group(args)
    b = _subset(ctx, args)
    suite = SuiteReport(name=f"module-{args.what}")
    h = _stabiliser_subgroup(b)
    if args.what == "inner":
        _require(args, "lhs", "rhs")
        from .group_algebra import SigmaVector, module_inner_product

        if h.elements is None:
            raise ConfigError("inner products need a finite stabiliser subgroup")
        lhs, rhs = ctx.parse(args.lhs), ctx.parse(args.rhs)
        if not (b.contains(lhs) and b.contains(rhs)):
            raise ConfigError("--lhs and --rhs must lie in the subset")
        value = module_inner_product(h, SigmaVector.basis(b, lhs), SigmaVector.basis(b, rhs))
        suite.add(
            CheckReport(
                name="inner-product",
                params={"lhs": args.lhs, "rhs": args.rhs},
                verdict=VERIFIED,
                details={"value": value.report_form()},
            )
        )
    elif args.what == "ph":
        outside = [h_el for h_el in h.elements_in_ball(args.R) if not b.contains(h_el)]
        if outside:
            raise ConfigError(
                "the claimed stabiliser must lie inside the subset for the projection construction"
            )
        families = _isolation_sets(suite, "isolation-projection", b, h, args)
        if families is not None:
            w = make_window(b, args.R)
            proj = isolation_projection(w, *families)
            match = guarded_equal(proj, coset_projection(w, h, ctx.identity()))
            suite.add(
                CheckReport(
                    name="isolation-projection",
                    verdict=VERIFIED if match.equal else FALSIFIED,
                    compared_count=match.rows_compared,
                )
            )
    elif args.what == "ideal":
        _require(args, "element")
        x = _subset(ctx, args, "ambient") if args.ambient else whole_group(ctx)
        g = ctx.parse(args.element)
        g_inv = ctx.invert(g)
        if not x.contains(g_inv) or b.contains(g_inv):
            raise ConfigError("g^-1 (from --element) must lie in the ambient set but outside the subset")
        suite.add(verify_ph_in_ideal(b, x, h, g, args.R))
    elif args.what == "coset-decomp":
        _require(args, "element")
        x = _subset(ctx, args, "ambient") if args.ambient else whole_group(ctx)
        suite.add(coset_decomposition_check(b, x, h, ctx.parse(args.element), args.R))
    return suite


def _cmd_gallery(args) -> list[SuiteReport]:
    if args.what == "all":
        return run_all()
    suite = SUITES[args.what]
    return suite.at(**{flag: value for flag in suite.sizes if (value := getattr(args, flag)) is not None})


def _cmd_universal(args) -> SuiteReport | list[SuiteReport]:
    if args.what == "demo":
        return appendix_contrast_demo()
    suite = SuiteReport(name=f"universal-{args.what}")
    ctx = load_group(args.group)
    if args.subset:
        spec = _subset(ctx, args)
    elif isinstance(ctx, FreeAbelianContext) and ctx.rank == 1:
        spec = universal_z_spec(ctx)
    else:
        raise ConfigError("the integer universal subset needs Z; pass --subset for other groups")
    # --R is the window radius of build and the scan bound of verify and independence
    radius = (12 if args.what == "build" else 5000) if args.R is None else args.R
    if args.what == "build":
        window = spec.elements_in_ball(radius)
        details = {"placements": spec.placed.report_form()} if hasattr(spec, "placed") else {}
        suite.add(
            CheckReport(
                name="universal-window",
                params={"R": radius},
                verdict=VERIFIED,
                witnesses=[ctx.format(x) for x in window],
                compared_count=len(window),
                details=details,
            )
        )
    elif args.what == "verify":
        suite.add(universality_check(spec, args.r, radius))
    elif args.what == "independence":
        tracks = [track_of_sequence(ctx, [g]) for g in ctx.ball(args.r)]
        suite.add(track_independence_check(spec, tracks, radius))
    return suite


class UsageError(Exception):
    """A command line that the command table refuses; ``dispatch`` exits 2."""


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be nonnegative, got {value}")
    return value


class Flag(NamedTuple):
    help: str
    type: Callable[[str], object] | None = str  # converts the flag's value; None: a switch with no value


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


class Command(NamedTuple):
    """One subcommand: the flags each ``what`` reads, every flag's default, its runner."""

    help: str
    whats: dict[str, tuple[str, ...]]  # what -> the flags it reads, besides --out and --timings
    flags: dict[str, object]  # flag -> its default; None reads as "not given"
    run: Callable


def _reading(common: list[str], own: dict[str, list[str]]) -> dict[str, tuple[str, ...]]:
    """Each ``what``'s flags: the ``common`` ones, then its ``own``."""
    return {what: (*common, *flags) for what, flags in own.items()}


# The flags each runner reads; any other flag is a usage error.
COMMANDS = {
    "check": Command(
        "geometric checks",
        _reading(
            ["group", "subset"],
            {
                "deep": ["r", "R"],
                "rel-deep": ["ambient", "r", "R"],
                "almost-invariant": ["ambient", "element", "R"],
                "coseparable": ["r", "R", "max_size"],
                "isolation": ["r", "R", "max_size"],
                "boundary": ["R"],
                "convexity": ["L"],
                "stabilisers": ["r"],
            },
        ),
        dict.fromkeys(["group", "subset", "ambient", "element"]) | {"R": 8, "r": 3, "L": 3, "max_size": 3},
        _cmd_check,
    ),
    "op": Command(
        "windowed operator arithmetic",
        _reading(
            ["group", "subset", "R"],
            {"build": ["element"], "mul": ["lhs", "rhs"], "adjoint": ["lhs"], "eq": ["lhs", "rhs"], "rank": ["lhs"]},
        ),
        dict.fromkeys(["group", "subset", "element", "lhs", "rhs"]) | {"R": 8},
        _cmd_op,
    ),
    "module": Command(
        "subgroup-module identities",
        _reading(
            ["group", "subset"],
            {
                "inner": ["lhs", "rhs"],
                "ph": ["r", "R", "max_size"],
                "ideal": ["ambient", "element", "R"],
                "coset-decomp": ["ambient", "element", "R"],
            },
        ),
        dict.fromkeys(["group", "subset", "ambient", "element", "lhs", "rhs"]) | {"R": 8, "r": 3, "max_size": 3},
        _cmd_module,
    ),
    "gallery": Command(
        "named extension suites",
        {name: tuple(suite.sizes) for name, suite in SUITES.items()} | {"all": ()},
        dict.fromkeys(flag for suite in SUITES.values() for flag in suite.sizes),  # None: the suite's default
        _cmd_gallery,
    ),
    "universal": Command(
        "universal subsets",
        {
            "build": ("group", "subset", "R"),
            "verify": ("group", "subset", "r", "R"),
            "independence": ("group", "subset", "r", "R"),
            "demo": (),
        },
        {"group": "z", "subset": None, "R": None, "r": 2},  # None: the default of each ``what``
        _cmd_universal,
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
    wins.  The result holds ``command``, ``what``, every flag of the command
    (its default when not given), ``out`` and ``timings``.  Raises
    ``UsageError`` for anything else.
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
    extra = [_spelling(flag) for flag in given if flag not in command.whats[what] and flag not in COMMON]
    if extra:
        raise UsageError(f"{name} {what} takes no {', '.join(extra)}")
    return SimpleNamespace(**{"command": name, "what": what, **command.flags, "out": None, "timings": False, **given})


def _usage(name: str | None) -> str:
    head = f"{name} {{{','.join(COMMANDS[name].whats)}}}" if name else f"{{{','.join(COMMANDS)}}} WHAT"
    return f"usage: translation-lab {head} [--FLAG VALUE ...] [--out PATH] [--timings]"


def _help(name: str | None) -> str:
    """Usage, each command (or each ``what`` with its flags), and each flag's help."""
    if name is None:
        rows, flags, defaults = [(n, c.help) for n, c in COMMANDS.items()], FLAGS, {}
    else:
        command = COMMANDS[name]
        rows = [(what, " ".join(map(_spelling, flags))) for what, flags in command.whats.items()]
        flags, defaults = [*command.flags, *COMMON], command.flags
    lines = [_usage(name), "", *(f"  {left:<18}{right}" for left, right in rows), "", "flags:"]
    for flag in flags:
        spelled = _spelling(flag) + (", -g" if flag == "element" else "")
        default = "" if defaults.get(flag) is None else f" (default {defaults[flag]})"
        lines.append(f"  {spelled:<18}{FLAGS[flag].help}{default}")
    return "\n".join(lines)


def _check_gallery_sizes(args) -> None:
    """Refuse a size below the suite's least value, or more generators than have names."""
    sizes = SUITES[args.what].sizes if args.what in SUITES else {}
    for flag, (_default, least) in sizes.items():
        value = getattr(args, flag)
        if value is not None and value < least:
            raise UsageError(f"gallery {args.what} needs --{flag} >= {least}")
    most = len(FreeGroupContext.default_names)  # --n names each generator of a free-group suite
    if args.n is not None and args.n > most:
        raise UsageError(f"gallery {args.what} needs --n <= {most}")


def dispatch(argv) -> int:
    argv = list(argv)
    name = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:  # "-h" is always read as a flag, never as a value
        print(_help(name))
        return EXIT_OK
    try:
        args = parse_args(argv)
        if args.command == "check" and args.what == "deep" and args.r > args.R:
            raise UsageError("check deep needs --r <= --R")
        if args.command == "gallery":
            _check_gallery_sizes(args)
    except UsageError as err:
        print(f"{_usage(name)}\ntranslation-lab: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ball_cap()  # a malformed cap is a config error whether or not a ball is grown
        result = COMMANDS[args.command].run(args)
    except (ConfigError, MalformedWord, BallCapInvalid) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BallCapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE

    suites = result if isinstance(result, list) else [result]
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
