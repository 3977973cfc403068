"""Command-line front end: load configs, dispatch checks, emit canonical JSON.

Exit codes: 0 success (verified or inconclusive verdicts only), 1 at least
one falsified verdict, 2 usage error (such as a negative radius), 3 malformed
configuration (such as an unparseable element or a bad ball cap), 4 resource
cap exceeded.  Exit code 1 is never used for a crash.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .configs import ConfigError, load_group, load_subset
from .gallery import (
    run_all,
    run_cuntz_check,
    run_hnn_partition_check,
    run_lance_difference_check,
    run_mu_nu_generation_check,
    run_pv_check,
    run_quotient_consistency_check,
    run_relation_classification,
    run_toeplitz_check,
)
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

# Least sizes each gallery suite can run at; smaller explicit values are usage
# errors.  Toeplitz searches for a deepness witness at radius 3, the free-group
# suites need at least one generator, and the Lance window must contain the
# (e, e) block it compares.
GALLERY_MINIMUMS = {
    "toeplitz": {"R": 3},
    "pv": {"n": 1},
    "cuntz": {"n": 1},
    "lance": {"R": 1},
}


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required for this command")


def _group(args):
    if args.group is None:
        raise ConfigError("--group is required for this command")
    return load_group(args.group)


def _subset(ctx, args, flag="subset"):
    value = getattr(args, flag, None)
    if value is None:
        raise ConfigError(f"--{flag} is required for this command")
    return load_subset(ctx, value)


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
                verdict="verified-at-scale",
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
    else:
        raise ConfigError(f"unknown check {args.what!r}")
    return suite


def _cmd_op(args) -> SuiteReport:
    ctx = _group(args)
    spec = _subset(ctx, args)
    w = make_window(spec, args.R)
    suite = SuiteReport(name=f"op-{args.what}", params={"R": args.R})
    if args.what == "build":
        _require(args, "element")
        op = generator_operator(w, ctx.parse(args.element))
        suite.add(
            CheckReport(
                name="operator",
                verdict="verified-at-scale",
                details={"operator": op.report_form()},
            )
        )
    elif args.what == "mul":
        _require(args, "lhs", "rhs")
        product = compose(_parse_operator(ctx, w, args.lhs), _parse_operator(ctx, w, args.rhs))
        suite.add(
            CheckReport(
                name="product",
                verdict="verified-at-scale",
                details={"operator": product.report_form()},
            )
        )
    elif args.what == "adjoint":
        _require(args, "lhs")
        op = adjoint(_parse_operator(ctx, w, args.lhs))
        suite.add(
            CheckReport(
                name="adjoint",
                verdict="verified-at-scale",
                details={"operator": op.report_form()},
            )
        )
    elif args.what == "eq":
        _require(args, "lhs", "rhs")
        match = guarded_equal(_parse_operator(ctx, w, args.lhs), _parse_operator(ctx, w, args.rhs))
        suite.add(
            CheckReport(
                name="equality",
                params={"lhs": args.lhs, "rhs": args.rhs},
                verdict="verified-at-scale" if match.equal else FALSIFIED,
                witnesses=[] if match.equal else [match.mismatch],
                compared_count=match.rows_compared,
            )
        )
    elif args.what == "rank":
        _require(args, "lhs")
        rank = matrix_rank(_parse_operator(ctx, w, args.lhs))
        suite.add(
            CheckReport(name="rank", verdict="verified-at-scale", details={"rank": rank})
        )
    else:
        raise ConfigError(f"unknown op command {args.what!r}")
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
                verdict="verified-at-scale",
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
                    verdict="verified-at-scale" if match.equal else FALSIFIED,
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
    else:
        raise ConfigError(f"unknown module command {args.what!r}")
    return suite


def _given(value, default):
    """The flag's value, or the suite's default when the flag was not given."""
    return default if value is None else value


def _cmd_gallery(args) -> list[SuiteReport]:
    what = args.what
    if what == "toeplitz":
        return [run_toeplitz_check(_given(args.R, 20))]
    if what == "pv":
        return [run_pv_check(_given(args.n, 2), _given(args.R, 4))]
    if what == "cuntz":
        return [run_cuntz_check(_given(args.n, 2), _given(args.L, 4))]
    if what == "relations":
        return [run_relation_classification(_given(args.R, 5))]
    if what == "lance":
        return [run_lance_difference_check(_given(args.R, 4))]
    if what == "hnn":
        return [
            run_hnn_partition_check("bs12", _given(args.R, 4)),
            run_hnn_partition_check("f2", _given(args.R, 4)),
        ]
    if what == "quotient":
        return [
            run_quotient_consistency_check("toeplitz", _given(args.R, 8)),
            run_quotient_consistency_check("amalgam", 4),
        ]
    if what == "generation":
        return [run_mu_nu_generation_check(_given(args.L, 3), _given(args.R, 5))]
    if what == "all":
        return run_all()
    raise ConfigError(f"unknown gallery suite {what!r}")


def _cmd_universal(args) -> SuiteReport | list[SuiteReport]:
    if args.what == "demo":
        return appendix_contrast_demo()
    suite = SuiteReport(name=f"universal-{args.what}")
    ctx = load_group(args.group or "z")
    if args.subset:
        spec = _subset(ctx, args)
    elif isinstance(ctx, FreeAbelianContext) and ctx.rank == 1:
        spec = universal_z_spec(ctx)
    else:
        raise ConfigError("the integer universal subset needs Z; pass --subset for other groups")
    if args.what == "build":
        radius = _given(args.R, 12)
        window = spec.elements_in_ball(radius)
        details = {}
        if hasattr(spec, "placed"):
            details["placements"] = spec.placed.report_form()
        suite.add(
            CheckReport(
                name="universal-window",
                params={"R": radius},
                verdict="verified-at-scale",
                witnesses=[ctx.format(x) for x in window],
                compared_count=len(window),
                details=details,
            )
        )
    elif args.what == "verify":
        suite.add(universality_check(spec, args.r, _given(args.R, 5000)))
    elif args.what == "independence":
        tracks = []
        bound = args.r
        for g in ctx.ball(bound):
            tracks.append(track_of_sequence(ctx, [g]))
        suite.add(track_independence_check(spec, tracks, _given(args.R, 5000)))
    else:
        raise ConfigError(f"unknown universal command {args.what!r}")
    return suite


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="translation-lab",
        description="Exact finite-window checks for partial translation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", help="builtin name or JSON file")
        p.add_argument("--subset", help="subset JSON file")
        p.add_argument("--ambient", help="ambient subset JSON file")
        p.add_argument("--element", "-g", help="group element (context notation)")
        p.add_argument("--lhs", help="operator expression")
        p.add_argument("--rhs", help="operator expression")
        p.add_argument("--R", type=nonnegative_int, default=8, help="window / search radius")
        p.add_argument("--r", type=nonnegative_int, default=3, help="inner radius")
        p.add_argument("--L", type=nonnegative_int, default=3, help="word length bound")
        p.add_argument("--n", type=nonnegative_int, default=2, help="rank parameter")
        p.add_argument("--max-size", dest="max_size", type=nonnegative_int, default=3)
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--timings", action="store_true", help="include timings (breaks byte reproducibility)")

    p_check = sub.add_parser("check", help="geometric checks")
    p_check.add_argument(
        "what",
        choices=[
            "deep",
            "rel-deep",
            "almost-invariant",
            "coseparable",
            "isolation",
            "boundary",
            "convexity",
            "stabilisers",
        ],
    )
    common(p_check)

    p_op = sub.add_parser("op", help="windowed operator arithmetic")
    p_op.add_argument("what", choices=["build", "mul", "adjoint", "eq", "rank"])
    common(p_op)

    p_module = sub.add_parser("module", help="subgroup-module identities")
    p_module.add_argument("what", choices=["inner", "ph", "ideal", "coset-decomp"])
    common(p_module)

    p_gallery = sub.add_parser("gallery", help="named extension suites")
    p_gallery.add_argument(
        "what",
        choices=["toeplitz", "pv", "cuntz", "lance", "hnn", "relations", "quotient", "generation", "all"],
    )
    common(p_gallery)
    p_gallery.set_defaults(R=None, L=None, n=None)

    p_universal = sub.add_parser("universal", help="universal subsets")
    p_universal.add_argument("what", choices=["build", "verify", "independence", "demo"])
    common(p_universal)
    p_universal.set_defaults(R=None, r=2)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check" and args.what == "deep" and args.r > args.R:
            parser.error("check deep needs --r <= --R")
        if args.command == "gallery":
            for flag, least in GALLERY_MINIMUMS.get(args.what, {}).items():
                value = getattr(args, flag)
                if value is not None and value < least:
                    parser.error(f"gallery {args.what} needs --{flag} >= {least}")
            most = len(FreeGroupContext.default_names)  # the free-group suites name each generator
            if args.what in ("pv", "cuntz") and args.n is not None and args.n > most:
                parser.error(f"gallery {args.what} needs --n <= {most}")
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        ball_cap()  # a malformed cap is a config error whether or not a ball is grown
        if args.command == "check":
            result = _cmd_check(args)
        elif args.command == "op":
            result = _cmd_op(args)
        elif args.command == "module":
            result = _cmd_module(args)
        elif args.command == "gallery":
            result = _cmd_gallery(args)
        elif args.command == "universal":
            result = _cmd_universal(args)
        else:  # pragma: no cover
            return EXIT_USAGE
    except (ConfigError, MalformedWord, BallCapInvalid) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BallCapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE

    suites = result if isinstance(result, list) else [result]
    include_timing = bool(getattr(args, "timings", False))
    started = time.perf_counter()
    text = dumps({"suites": [s.to_dict(include_timing) for s in suites]})
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"config error: cannot write report {args.out}: {err.strerror}", file=sys.stderr)
            return EXIT_CONFIG
    print(text)
    if include_timing:
        sys.stdout.flush()
        print(f"emit_seconds={time.perf_counter() - started:.6f}", file=sys.stderr)
    falsified = any(s.verdict == FALSIFIED for s in suites)
    return EXIT_FALSIFIED if falsified else EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
