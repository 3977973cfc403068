"""Universal subsets: every finite local pattern occurs somewhere.

The integer model concatenates all binary strings by length then value and
uses the result as a characteristic function on the nonnegative integers; the
free-group model places each finite pattern on a sparse progression of
centers b a^m, far enough apart that every small ball meets at most one
placement.  Universality makes all track operators linearly independent, and
the placed model drives the bounded contrast demo: relatively deep and
condition-stable, yet not distinguishable from its translates by any small
finite set.
"""

from __future__ import annotations

import bisect
import collections
import itertools
from typing import Iterable, Sequence

from .geometry import (
    almost_invariant_check,
    coseparability_search,
    relatively_deep_check,
)
from .groups import FreeAbelianContext, FreeGroupContext, GroupElement
from .operators import rank_of_vectors
from .reports import FALSIFIED, INCONCLUSIVE, VERIFIED, CheckReport, ConfigError, SuiteReport
from .subsets import SubsetSpec, trivial_subgroup
from .tracks import Track, support


# _BLOCK_STARTS[L - 1]: the first digit of the length-L block, grown on demand
_BLOCK_STARTS = [0]


def bit_at(n: int) -> int:
    """Digit n of the infinite concatenation 0 1 00 01 10 11 000 ...

    Length-L strings occupy a block of L * 2^L digits; within the block the
    strings are the binary numerals of 0 .. 2^L - 1, zero-padded to L digits.
    """
    if n < 0:
        return 0
    starts = _BLOCK_STARTS
    while starts[-1] <= n:
        length = len(starts)
        starts.append(starts[-1] + length * (1 << length))
    length = bisect.bisect_right(starts, n)
    index, position = divmod(n - starts[length - 1], length)
    return (index >> (length - 1 - position)) & 1


def characteristic_prefix(n: int) -> str:
    return "".join(str(bit_at(i)) for i in range(n))


def universal_z_spec(ctx: FreeAbelianContext) -> SubsetSpec:
    """The universal subset of the integers, supported on the nonnegatives."""
    if not isinstance(ctx, FreeAbelianContext) or ctx.rank != 1:
        raise ConfigError("the integer universal subset needs Z")
    return SubsetSpec(
        ctx,
        "universal-z",
        lambda w: w[0] >= 0 and bit_at(w[0]) == 1,
        left_stabiliser=trivial_subgroup(ctx),
    )


# ---------------------------------------------------------------------------
# Placed universal subsets inside the words starting with b
# ---------------------------------------------------------------------------


class Placement:
    """``Placement(center, exponent, radius, pattern)``: one pattern placed at
    ``center``, the word b a^exponent; ``pattern`` holds its offsets within
    Ball(e, radius).  Treat instances as immutable."""

    __slots__ = ("center", "exponent", "radius", "pattern")

    def __init__(self, center: GroupElement, exponent: int, radius: int, pattern: tuple[GroupElement, ...]):
        self.center = center
        self.exponent = exponent
        self.radius = radius
        self.pattern = pattern


class PlacedUniversalWords:
    """Patterns placed along b a^m with separation 4 (r_k + r_{k+1}), at least min_step.

    Patterns are the subsets of each ball, by radius then indicator order over
    the shortlex-sorted ball; with an exponent start beyond every pattern
    radius each placed point starts with the letter b, and the separation
    keeps distinct placements from interacting on any ball that the
    construction promises to realize.
    """

    def __init__(
        self,
        ctx: FreeGroupContext,
        max_radius: int = 1,
        start: int = 2,
        min_step: int = 4,
    ):
        if not isinstance(ctx, FreeGroupContext) or ctx.rank != 2:
            raise ValueError("the placed model lives in the free group of rank 2")
        if max_radius < 0:
            raise ValueError("max_radius must be nonnegative")
        if max_radius > 1:
            # radius 2 alone places 2^17 patterns, with centre words of millions of letters
            raise ValueError("max_radius must be 0 or 1: radius 2 needs 2^17 placements")
        self.ctx = ctx
        self.max_radius = max_radius
        self.start = start
        self.min_step = min_step
        self.b = ctx.generator(2)
        self.placements: list[Placement] = []
        self._point_words: set[tuple] = set()
        # _by_length[m]: the point words of length m, in placement order
        self._by_length: dict[int, list[tuple]] = {}
        self._build()

    def _build(self):
        ctx = self.ctx
        exponent = self.start
        prev_radius = None
        for radius in range(self.max_radius + 1):
            ball = ctx.ball(radius)
            for mask in range(1 << len(ball)):
                pattern = tuple(x for i, x in enumerate(ball) if mask >> i & 1)
                if prev_radius is not None:
                    step = max(4 * (prev_radius + radius), self.min_step)
                    if step <= prev_radius + radius:
                        raise ValueError("placement parameters too tight: balls overlap")
                    exponent += step
                if exponent <= radius:
                    raise ValueError("start exponent too small: placements would lose the leading b")
                center = ctx.multiply(self.b, ctx.generator(1, exponent))
                placement = Placement(center, exponent, radius, pattern)
                for f in pattern:
                    word = ctx.multiply(center, f).word
                    if word in self._point_words:
                        raise ValueError("placement overlap detected")
                    self._point_words.add(word)
                    self._by_length.setdefault(len(word), []).append(word)
                self.placements.append(placement)
                prev_radius = radius

    def a_shift(self, word: tuple) -> int | None:
        """The k with x in a^k U, or None when no a-translate of U holds x.

        Takes the canonical word of x.  Every point of U starts with b, so x is
        in a^k U exactly when x is its leading a-run a^k followed by a point of
        U: the rest from the first b must be a point, and no B may come before
        that b.  A reduced word's a-run has one sign, so k is plus or minus its
        length.
        """
        try:
            i = word.index(2)
        except ValueError:
            return None
        if word[i:] not in self._point_words or -2 in word[:i]:
            return None
        return -i if i and word[0] == -1 else i

    def contains(self, word: tuple) -> bool:
        """Whether the canonical word lies in U; the predicate of U's subset."""
        return self.a_shift(word) == 0

    def sphere(self, k: int, low: int | None = 0, high: int | None = 0) -> list[tuple]:
        """The member words of length k of the union of a^j U over low <= j <= high.

        None leaves its end open: U is (0, 0), the cone B is (0, None) and the
        union X is (None, None).  Every point word w of U starts with b, so
        a^j w is reduced, of length |j| + len(w), and its a-shift is j (see
        ``a_shift``).  Hence the words a^j w with |j| + len(w) = k are all the
        members of length k, each listed once, though not in ball order.
        """
        out: list[tuple] = []
        for length, words in self._by_length.items():
            j = k - length
            if j < 0:
                continue
            for shift in {j, -j}:
                if (low is None or low <= shift) and (high is None or shift <= high):
                    run = (1 if shift > 0 else -1,) * abs(shift)
                    out.extend(run + w for w in words)
        return out

    def report_form(self):
        return [{"center": p.center, "radius": p.radius, "pattern": p.pattern} for p in self.placements]


def universal_b_words_spec(ctx: FreeGroupContext, *placement: int, **named: int) -> SubsetSpec:
    """The set U; the placement arguments and their defaults are ``PlacedUniversalWords``'s."""
    placed = PlacedUniversalWords(ctx, *placement, **named)
    spec = SubsetSpec(
        ctx,
        "universal-b-words",
        placed.contains,
        left_stabiliser=trivial_subgroup(ctx),
        sphere_members=placed.sphere,
    )
    spec.placed = placed
    return spec


# ---------------------------------------------------------------------------
# Universality verification
# ---------------------------------------------------------------------------


def _centres(spec: SubsetSpec, scan_bound: int, radius: int | None = None) -> Iterable[GroupElement]:
    """Candidate pattern centres in scan order.

    A placed model offers its placement centres (only those of the given
    radius, when one is given); Z offers 0..scan_bound; any other group its
    ball of radius scan_bound, one sphere at a time, so that a scan which
    stops early grows no further layers.
    """
    ctx = spec.ctx
    if hasattr(spec, "placed"):
        return [p.center for p in spec.placed.placements if radius is None or p.radius == radius]
    if isinstance(ctx, FreeAbelianContext) and ctx.rank == 1:
        return (ctx.integer(n) for n in range(scan_bound + 1))
    spheres = map(ctx.sphere, range(scan_bound + 1))
    return itertools.chain.from_iterable(itertools.takewhile(bool, spheres))


Goal = tuple[int, frozenset]


def _first_centres(
    spec: SubsetSpec,
    ball: Sequence[GroupElement],
    goals: Iterable[Goal],
    centres: Iterable[GroupElement],
) -> dict[Goal, GroupElement | None]:
    """Map each goal (n, pattern) to the first centre c with {u in ball[:n] : c u in spec} = pattern.

    Patterns are sets of ball words.  A ball lists a smaller ball as its
    prefix, so goals of every radius up to the ball's share one scan, and
    each gets the centre a scan of its own radius would give.  The local
    pattern at each centre is read through the predicate, so a centre offered
    by a construction is never trusted; a goal no centre realizes maps to
    None.  The scan stops once every goal is found.  Products are taken on
    words, once the ball and each centre are checked to lie in the subset's
    context.
    """
    ctx = spec.ctx
    ctx._check_all(*ball)
    mul, inside = ctx._mul, spec.predicate
    words = [u.word for u in ball]
    first: dict[Goal, GroupElement | None] = dict.fromkeys(goals)
    unfound = collections.Counter(n for n, _ in first)
    sizes = sorted(unfound)
    for c in centres:
        cw = ctx._check(c).word
        local: list[tuple] = []
        done = 0
        for n in sizes:
            local.extend(u for u in words[done:n] if inside(mul(cw, u)))
            done = n
            goal = (n, frozenset(local))
            if goal in first and first[goal] is None:
                first[goal] = c
                unfound[n] -= 1
        sizes = [n for n in sizes if unfound[n]]
        if not sizes:
            break
    return first


def universality_check(spec: SubsetSpec, r: int, scan_bound: int = 5000) -> CheckReport:
    """Find, for every pattern within radius r, a center realizing it exactly.

    A placed model offers only its placements of radius r, the ones built to
    realize the patterns of that radius; other subsets scan as ``_centres``
    says.
    """
    ctx = spec.ctx
    ball = ctx.ball(r)
    goals = (
        (len(ball), frozenset(ball[i].word for i in range(len(ball)) if mask >> i & 1))
        for mask in range(1 << len(ball))
    )
    patterns = _first_centres(spec, ball, goals, _centres(spec, scan_bound, r))

    missing_count = sum(v is None for v in patterns.values())
    found = {
        "|".join(sorted(map(ctx._format, key))) or "(empty)": v
        for (_n, key), v in patterns.items()
        if v is not None
    }
    return CheckReport(
        name="universality",
        params={"subset": spec.name, "r": r, "scan_bound": scan_bound},
        verdict=INCONCLUSIVE if missing_count else VERIFIED,
        witnesses=[],
        compared_count=len(patterns),
        details={"found": found, "missing_count": missing_count},
    )


# ---------------------------------------------------------------------------
# Linear independence of track operators
# ---------------------------------------------------------------------------


def track_independence_check(
    spec: SubsetSpec,
    tracks: Sequence[Track],
    scan_bound: int = 5000,
) -> CheckReport:
    """Prove the given tracks' operators linearly independent on the subset.

    For each track a witness center realizes exactly the inverse visited set
    as the local pattern, on the ball of its class radius (the largest
    visited length among same-total tracks), making the evaluation table
    against all same-total tracks the inclusion pattern of visited sets,
    which is triangular.  One scan of the candidate centres finds the
    witnesses of every class.  An exact rank computation over the witness
    evaluations cross-checks the argument.
    """
    ctx = spec.ctx
    seen = set()
    for t in tracks:
        key = (t.total.word, tuple(h.word for h in t.visited))
        if key in seen:
            raise ValueError("duplicate tracks in the input")
        seen.add(key)

    by_total: dict[tuple, list[int]] = {}
    for i, t in enumerate(tracks):
        by_total.setdefault(t.total.word, []).append(i)

    goals: dict[int, Goal] = {}
    radius = 0
    for members in by_total.values():
        class_radius = max(ctx.word_length(h) for i in members for h in tracks[i].visited)
        radius = max(radius, class_radius)
        n = len(ctx.ball(class_radius))
        for i in members:
            goals[i] = (n, frozenset(ctx.invert(h).word for h in tracks[i].visited))
    ball = ctx.ball(radius)
    first = _first_centres(spec, ball, goals.values(), _centres(spec, scan_bound))

    params = {"subset": spec.name, "tracks": len(tracks), "scan_bound": scan_bound}
    witnesses: dict[int, GroupElement] = {}
    for i, goal in goals.items():
        if first[goal] is None:
            return CheckReport(
                name="track-independence",
                params=params,
                verdict=INCONCLUSIVE,
                details={"missing_pattern_for_track": tracks[i]},
            )
        witnesses[i] = first[goal]

    fires = [support(t, spec) for t in tracks]
    # triangularity: at witness i, track j is nonzero iff visited(j) <= visited(i)
    for members in by_total.values():
        for i in members:
            x = witnesses[i]
            vis_i = {h.word for h in tracks[i].visited}
            for j in members:
                included = {h.word for h in tracks[j].visited} <= vis_i
                if fires[j](x.word) != included:
                    return CheckReport(
                        name="track-independence",
                        params=params,
                        verdict=FALSIFIED,
                        witnesses=[x],
                        details={"note": "witness pattern is not exact"},
                    )

    vectors = []
    for j, t in enumerate(tracks):
        total_inv = ctx.invert(t.total)
        vectors.append(
            {(i, ctx.multiply(x, total_inv).word): 1 for i, x in witnesses.items() if fires[j](x.word)}
        )
    rank = rank_of_vectors(vectors)
    independent = rank == len(tracks)
    return CheckReport(
        name="track-independence",
        params=params,
        verdict=VERIFIED if independent else FALSIFIED,
        witnesses=[{"track": tracks[i], "center": x} for i, x in sorted(witnesses.items())],
        compared_count=len(tracks),
        details={"rank": rank},
    )


# ---------------------------------------------------------------------------
# The bounded contrast demo
# ---------------------------------------------------------------------------


# the demo's radii: relative deepness at r within R, condition 1 at R - 3, and
# the co-separability search over candidates of radius F for translates of radius G
DEMO_DEEP_R = 2
DEMO_DEEP_RADIUS = 9
DEMO_F_RADIUS = 4
DEMO_G_RADIUS = 3


def cone_and_union(placed: PlacedUniversalWords) -> tuple[SubsetSpec, SubsetSpec]:
    """The cone B of the nonnegative a-translates of the placed set U, and the
    union X of all its a-translates, each listing its members by sphere."""
    ctx = placed.ctx

    def in_b(w: tuple) -> bool:
        k = placed.a_shift(w)
        return k is not None and k >= 0

    def in_x(w: tuple) -> bool:
        return placed.a_shift(w) is not None

    b_spec = SubsetSpec(
        ctx,
        "a-cone-of-universal",
        in_b,
        left_stabiliser=trivial_subgroup(ctx),
        sphere_members=lambda k: placed.sphere(k, 0, None),
    )
    powers_of_a = SubsetSpec(ctx, "<a>", lambda w: all(l in (1, -1) for l in w))
    x_spec = SubsetSpec(
        ctx,
        "a-translates-of-universal",
        in_x,
        left_stabiliser=powers_of_a,
        sphere_members=lambda k: placed.sphere(k, None, None),
    )
    x_spec.placed = placed  # the ambient set realizes the same local patterns
    return b_spec, x_spec


def appendix_contrast_demo() -> SuiteReport:
    """Relative deepness and condition-1 stability without co-separability.

    Builds the placed universal set U inside the b-initial words of F2 (the
    placement ``universal_b_words_spec`` makes by default), the cone B of
    nonnegative a-translates of U, and the full translate union X; then
    verifies that B is relatively deep in X and condition-1-stable while the
    co-separability search is falsified within its radius.
    """
    ctx = FreeGroupContext(2)
    u_spec = universal_b_words_spec(ctx)
    placed = u_spec.placed
    b_spec, x_spec = cone_and_union(placed)
    trivial, powers_of_a = b_spec.left_stabiliser, x_spec.left_stabiliser

    suite = SuiteReport(
        name="universal-contrast-demo",
        params={
            "max_radius": placed.max_radius,
            "start": placed.start,
            "min_step": placed.min_step,
            "deep_r": DEMO_DEEP_R,
            "deep_R": DEMO_DEEP_RADIUS,
            "f_radius": DEMO_F_RADIUS,
            "g_radius": DEMO_G_RADIUS,
        },
    )
    suite.add(universality_check(u_spec, placed.max_radius))
    suite.add(universality_check(x_spec, placed.max_radius))
    rel_deep = suite.add(relatively_deep_check(b_spec, x_spec, powers_of_a, DEMO_DEEP_R, DEMO_DEEP_RADIUS))
    ai_reports = [
        suite.add(almost_invariant_check(b_spec, x_spec, trivial, g, DEMO_DEEP_RADIUS - 3))
        for g in map(ctx.generator, (1, 2))  # a and b
    ]
    cosep = coseparability_search(b_spec, trivial, DEMO_F_RADIUS, DEMO_G_RADIUS)
    # the demo *expects* the search to fail: record it wrapped, so the suite
    # verdict reflects whether the expected contrast was reproduced
    suite.add(
        CheckReport(
            name="coseparability-expected-to-fail",
            params=cosep.params,
            verdict=VERIFIED if cosep.verdict == FALSIFIED else FALSIFIED,
            witnesses=cosep.witnesses,
            details={"search_report": cosep},
        )
    )
    contrast_ok = (
        rel_deep.verdict == VERIFIED
        and all(r.verdict == VERIFIED for r in ai_reports)
        and cosep.verdict == FALSIFIED
    )
    suite.add(
        CheckReport(
            name="contrast",
            params={},
            verdict=VERIFIED if contrast_ok else FALSIFIED,
            details={
                "relatively_deep": rel_deep.verdict,
                "condition_1": [r.verdict for r in ai_reports],
                "coseparability": cosep.verdict,
            },
        )
    )
    return suite
