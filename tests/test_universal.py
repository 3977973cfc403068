import itertools
import random

import pytest

from translation_lab import (
    BallCapExceeded,
    congruence_class,
    free_group,
    make_track,
    positive_cone,
    track_of_sequence,
)
from translation_lab import universal
from translation_lab.groups import BALL_CAP_ENV, MalformedWord, integers
from translation_lab.operators import rank_of_vectors
from translation_lab.reports import FALSIFIED, INCONCLUSIVE, VERIFIED, CheckReport
from translation_lab.subsets import whole_group
from translation_lab.tracks import support
from translation_lab.universal import (
    PlacedUniversalWords,
    _centres,
    _first_centres,
    appendix_contrast_demo,
    bit_at,
    characteristic_prefix,
    track_independence_check,
    universal_b_words_spec,
    universal_z_spec,
    universality_check,
)


def oracle_string(n: int) -> str:
    """Direct concatenation of binary strings by length then value."""
    out = []
    for length in itertools.count(1):
        for value in range(1 << length):
            out.append(format(value, f"0{length}b"))
            if sum(len(s) for s in out) >= n:
                return "".join(out)[:n]


def _bit_at_by_block_walk(n: int) -> int:
    """Reference: walk the blocks of L * 2^L digits from the start."""
    if n < 0:
        return 0
    length = 1
    start = 0
    while n >= start + length * (1 << length):
        start += length * (1 << length)
        length += 1
    index, position = divmod(n - start, length)
    return (index >> (length - 1 - position)) & 1


def test_bit_at_matches_the_block_walk():
    assert [bit_at(n) for n in range(-5, 10**5)] == [_bit_at_by_block_walk(n) for n in range(-5, 10**5)]
    start = 0
    for length in range(1, 71):
        for n in (start - 1, start, start + 1):
            assert bit_at(n) == _bit_at_by_block_walk(n)
        start += length * (1 << length)


def test_prefix_matches_direct_enumeration():
    assert characteristic_prefix(10) == "0100011011"
    assert characteristic_prefix(400) == oracle_string(400)


def test_membership_matches_prefix(z):
    u = universal_z_spec(z)
    text = oracle_string(600)
    for n in range(600):
        assert u.contains(z.integer(n)) == (text[n] == "1")
    assert not u.contains(z.integer(-1))
    assert [n for n in range(10) if u.contains(z.integer(n))] == [1, 5, 6, 8, 9]


def test_universality_radius_two(z):
    u = universal_z_spec(z)
    report = universality_check(u, 2, 5000)
    assert report.verdict == VERIFIED
    assert report.compared_count == 32
    # cross-check the found centers against the plain string
    text = oracle_string(5010)
    for pattern, center in report.details["found"].items():
        (n,) = center.word
        offsets = [] if pattern == "(empty)" else [int(tok) for tok in pattern.split("|")]
        for d in range(-2, 3):
            bit = text[n + d] == "1" if 0 <= n + d < len(text) else False
            assert bit == (d in offsets)


def test_universality_monotone_in_bound(z):
    u = universal_z_spec(z)
    early = universality_check(u, 1, 300)
    later = universality_check(u, 1, 800)
    assert early.verdict == VERIFIED and later.verdict == VERIFIED
    for pattern, center in early.details["found"].items():
        assert later.details["found"][pattern] == center


def test_evens_not_universal(z):
    evens = congruence_class(z, 2)
    report = universality_check(evens, 1, 500)
    assert report.verdict == INCONCLUSIVE
    assert report.details["missing_count"] > 0


def _small_tracks(z, bound=2):
    tracks = []
    offsets = [z.integer(k) for k in range(-bound, bound + 1)]
    for mask in range(1 << len(offsets)):
        visited = [offsets[i] for i in range(len(offsets)) if mask >> i & 1]
        words = {x.word[0] for x in visited}
        if 0 not in words:
            continue
        for total in visited:
            tracks.append(make_track(z, total, visited))
    return tracks


def test_track_independence_on_universal(z):
    u = universal_z_spec(z)
    tracks = _small_tracks(z)[:24]
    assert len(tracks) == 24
    report = track_independence_check(u, tracks, 5000)
    assert report.verdict == VERIFIED
    assert report.details["rank"] == 24
    assert len(report.witnesses) == 24


def test_single_track_always_independent(z):
    u = universal_z_spec(z)
    report = track_independence_check(u, [track_of_sequence(z, [z.integer(1)])], 500)
    assert report.verdict == VERIFIED


def test_duplicate_tracks_rejected(z):
    u = universal_z_spec(z)
    t = track_of_sequence(z, [z.integer(1)])
    with pytest.raises(ValueError):
        track_independence_check(u, [t, t], 500)


def _per_goal_first_centre(spec, ball, goal, centres):
    """Reference: the first centre whose local pattern is exactly the goal, one goal at a time."""
    ctx = spec.ctx
    for c in centres:
        if all(spec.contains(ctx.multiply(c, u)) == (u.word in goal) for u in ball):
            return c
    return None


def _all_patterns(ball):
    return [
        frozenset(ball[i].word for i in range(len(ball)) if mask >> i & 1)
        for mask in range(1 << len(ball))
    ]


@pytest.mark.parametrize("case", ["universal-z", "evens", "b-words", "f2-cone"])
def test_first_centres_match_a_per_goal_scan(z, f2, case):
    spec, scan_bound = {
        "universal-z": (universal_z_spec(z), 300),
        "evens": (congruence_class(z, 2), 40),
        "b-words": (universal_b_words_spec(f2, max_radius=1), 0),
        "f2-cone": (positive_cone(f2), 2),
    }[case]
    ball = spec.ctx.ball(1)
    patterns = [(len(ball), p) for p in _all_patterns(ball)]
    for radius in (None, 1):
        centres = list(_centres(spec, scan_bound, radius))
        for goals in (patterns, patterns[1::3]):
            first = _first_centres(spec, ball, goals, centres)
            assert list(first) == goals
            for goal in goals:
                expected = _per_goal_first_centre(spec, ball, goal[1], centres)
                assert (first[goal] is None) == (expected is None)
                if expected is not None:
                    assert first[goal].word == expected.word
    if case == "evens":
        assert None in _first_centres(spec, ball, patterns, _centres(spec, scan_bound)).values()


def test_first_centres_of_smaller_balls_match_their_own_scans(z, f2):
    for spec, scan_bound in ((universal_z_spec(z), 300), (positive_cone(f2), 2)):
        ctx = spec.ctx
        ball = ctx.ball(2)
        centres = list(_centres(spec, scan_bound))
        goals = [(len(ctx.ball(r)), p) for r in (0, 1) for p in _all_patterns(ctx.ball(r))]
        masks = random.Random(5).sample(range(1 << len(ball)), 24)
        goals += [(len(ball), frozenset(ball[i].word for i in range(len(ball)) if m >> i & 1)) for m in masks]
        first = _first_centres(spec, ball, goals, centres)
        for n, pattern in goals:
            expected = _per_goal_first_centre(spec, ball[:n], pattern, centres)
            assert first[n, pattern] == expected


def _tracks_of_mixed_class_radii(z):
    """Classes of radius 1 (totals -1, 0, 1) and of radius 2 and 3 (totals -2 and 3)."""
    n = z.integer
    return _small_tracks(z, 1) + [
        make_track(z, n(3), [n(0), n(3)]),
        make_track(z, n(3), [n(1), n(3)]),
        make_track(z, n(-2), [n(-2)]),
        make_track(z, n(-2), [n(-2), n(-1)]),
    ]


def _check_witnesses_against_a_per_track_scan(z, tracks):
    u = universal_z_spec(z)
    random.Random(3).shuffle(tracks)
    report = track_independence_check(u, tracks, 5000)
    assert report.verdict == VERIFIED
    centres = list(_centres(u, 5000))
    by_total = {}
    for t in tracks:
        by_total.setdefault(t.total.word, []).append(t)
    expected = []
    for t in tracks:
        radius = max(z.word_length(h) for s in by_total[t.total.word] for h in s.visited)
        goal = frozenset(z.invert(h).word for h in t.visited)
        expected.append(_per_goal_first_centre(u, z.ball(radius), goal, centres))
    assert [w["center"] for w in report.witnesses] == expected
    assert [w["track"] for w in report.witnesses] == tracks


def test_first_centres_check_the_context_of_the_ball_and_each_centre(z):
    """The scan multiplies raw words, so a centre or ball of another Z must raise, not be read."""
    other = integers()
    spec = universal_z_spec(z)
    goals = [(2, frozenset({(7,)}))]  # never found: the scan reaches every centre
    with pytest.raises(MalformedWord):
        _first_centres(spec, z.ball(1), goals, [z.integer(0), other.integer(0)])
    with pytest.raises(MalformedWord):
        _first_centres(spec, other.ball(1), goals, [z.integer(0)])


def test_independence_witnesses_match_a_per_track_scan(z):
    _check_witnesses_against_a_per_track_scan(z, _small_tracks(z)[:24])


def test_independence_witnesses_of_mixed_class_radii_match_a_per_track_scan(z):
    _check_witnesses_against_a_per_track_scan(z, _tracks_of_mixed_class_radii(z))


def test_centres_stop_growing_layers_once_every_goal_is_found(monkeypatch):
    monkeypatch.setenv(BALL_CAP_ENV, "20")  # ball(2) of F2 has 17 elements, ball(3) 53
    f2 = free_group(2)
    cone = positive_cone(f2)
    ball = f2.ball(1)
    goals = [
        (len(ball), frozenset(f2.parse(w).word for w in pattern))
        for pattern in ((), ("a",), ("e", "a", "b"))
    ]
    first = _first_centres(cone, ball, goals, _centres(cone, 5000))
    assert [f2.format(first[g]) for g in goals] == ["AA", "A", "e"]
    assert len(f2._layers) == 3
    with pytest.raises(BallCapExceeded):  # the cone never realizes every pattern
        _first_centres(cone, ball, [(len(ball), p) for p in _all_patterns(ball)], _centres(cone, 10))


def dependent_tracks_demo(ctx, tracks, radius: int) -> CheckReport:
    """On the whole group every relation holds: same-total tracks give equal operators."""
    whole = whole_group(ctx)
    vectors = []
    points = ctx.ball(radius)
    for t in tracks:
        fires = support(t, whole)
        total_inv = ctx.invert(t.total)
        vectors.append({(ctx.multiply(x, total_inv).word, x.word): 1 for x in points if fires(x.word)})
    rank = rank_of_vectors(vectors)
    return CheckReport(
        name="dependence-on-whole-group",
        params={"tracks": len(tracks), "R": radius},
        verdict=VERIFIED if rank < len(tracks) else FALSIFIED,
        details={"rank": rank},
    )


def test_whole_group_tracks_dependent(z):
    t1 = make_track(z, z.integer(0), [])
    t2 = make_track(z, z.integer(0), [z.integer(-1)])
    report = dependent_tracks_demo(z, [t1, t2], 6)
    assert report.verdict == VERIFIED
    assert report.details["rank"] == 1


# -- the placed model ----------------------------------------------------------


def test_placed_points_start_with_b(f2):
    placed = PlacedUniversalWords(f2, max_radius=1)
    spec = universal_b_words_spec(f2, max_radius=1)
    for placement in placed.placements:
        for offset in placement.pattern:
            point = f2.multiply(placement.center, offset)
            assert point.word[0] == 2
            assert spec.contains(point)


def test_placed_separation(f2):
    placed = PlacedUniversalWords(f2, max_radius=1)
    for p1, p2 in zip(placed.placements, placed.placements[1:]):
        gap = p2.exponent - p1.exponent
        assert gap >= max(4 * (p1.radius + p2.radius), 1)
        assert gap >= 4


def test_placed_overlap_detected(f2):
    with pytest.raises(ValueError):
        PlacedUniversalWords(f2, max_radius=1, start=2, min_step=0)


def test_placed_universality(f2):
    spec = universal_b_words_spec(f2, max_radius=1)
    report = universality_check(spec, 1)
    assert report.verdict == VERIFIED
    assert report.compared_count == 32


def test_placed_patterns_are_found_at_their_own_placements(f2):
    spec = universal_b_words_spec(f2, max_radius=1)
    found = universality_check(spec, 1).details["found"]
    own = {
        "|".join(sorted(f2.format(f) for f in p.pattern)) or "(empty)": p.center
        for p in spec.placed.placements
        if p.radius == 1
    }
    assert found == own


@pytest.mark.parametrize("max_radius,start,min_step", [(0, 2, 4), (1, 2, 4), (1, 3, 9)])
def test_placed_contains_matches_a_loop_over_placements(f2, max_radius, start, min_step):
    placed = PlacedUniversalWords(f2, max_radius, start, min_step)

    def naive(x):
        if not x.word or x.word[0] != 2:
            return False
        run = 0
        for letter in x.word[1:]:
            if abs(letter) != 1:
                break
            run += letter
        for p in placed.placements:
            if abs(p.exponent - run) <= p.radius:
                offset = f2.multiply(f2.invert(p.center), x)
                return any(offset.word == f.word for f in p.pattern)
        return False

    near = [f2.multiply(p.center, u) for p in placed.placements for u in f2.ball(p.radius + 1)]
    points = f2.ball(8) + near
    assert sum(placed.contains(x.word) for x in near) == sum(len(p.pattern) for p in placed.placements)
    assert [placed.contains(x.word) for x in points] == [naive(x) for x in points]


@pytest.mark.parametrize("max_radius,start,min_step", [(0, 2, 4), (1, 2, 4), (1, 3, 9)])
def test_a_shift_matches_stripping_the_run_and_multiplying(monkeypatch, f2, max_radius, start, min_step):
    placed = PlacedUniversalWords(f2, max_radius, start, min_step)
    u_words = {f2.multiply(p.center, f).word for p in placed.placements for f in p.pattern}

    def naive(x):
        """k with a^-k x in U, where k is the leading a-run and U is the placed centre * pattern points."""
        k = sum(itertools.takewhile(lambda letter: abs(letter) == 1, x.word))
        return k if f2.multiply(f2.generator(1, -k), x).word in u_words else None

    near = [f2.multiply(p.center, u) for p in placed.placements for u in f2.ball(p.radius + 1)]
    shifted = [f2.multiply(f2.generator(1, j), x) for j in (-3, 2) for x in near]
    points = f2.ball(8) + near + shifted
    want = [naive(x) for x in points]
    assert [placed.a_shift(x.word) for x in points] == want
    assert {k for k in want if k is not None} >= {-3, 0, 2}
    assert [placed.contains(x.word) for x in points] == [k == 0 for k in want]

    b_spec, x_spec = _demo_cone_and_union(monkeypatch, f2, max_radius, start, min_step)
    assert [b_spec.contains(x) for x in points] == [k is not None and k >= 0 for k in want]
    assert [x_spec.contains(x) for x in points] == [k is not None for k in want]


def _demo_cone_and_union(monkeypatch, f2, max_radius, start, min_step):
    """The contrast demo's nonnegative cone B and translate union X, caught at their first use."""

    class Caught(Exception):
        pass

    def catch(b_spec, x_spec, *_args):
        raise Caught(b_spec, x_spec)

    with monkeypatch.context() as patch:
        patch.setattr(universal, "relatively_deep_check", catch)
        with pytest.raises(Caught) as caught:
            appendix_contrast_demo(f2, max_radius, start, min_step)
    return caught.value.args


@pytest.mark.parametrize("max_radius,start,min_step", [(0, 2, 4), (1, 2, 4), (1, 3, 5)])
def test_listed_spheres_match_the_filtered_ball(monkeypatch, max_radius, start, min_step):
    """U, B and X list their members by sphere: the windows equal the filtered ball, unbuilt."""
    f2 = free_group(2)  # a fresh context, so the layers it grows can be counted
    u_spec = universal_b_words_spec(f2, max_radius, start, min_step)
    b_spec, x_spec = _demo_cone_and_union(monkeypatch, f2, max_radius, start, min_step)
    rng = random.Random(f"{max_radius},{start},{min_step}")
    windows = {}
    for spec in (u_spec, b_spec, x_spec):
        radii = list(range(10))
        rng.shuffle(radii)
        windows[spec.name] = {r: [x.word for x in spec.elements_in_ball(r)] for r in radii}
    assert len(f2._layers) <= max_radius + 1
    ball = f2.ball(9)
    for spec in (u_spec, b_spec, x_spec):
        members = [x for x in ball if spec.predicate(x.word)]
        for r, window in windows[spec.name].items():
            assert window == [x.word for x in members if len(x.word) <= r], (spec.name, r)
    assert 0 < len(windows[u_spec.name][9]) <= len(windows[b_spec.name][9]) <= len(windows[x_spec.name][9])

    # beyond the brute-force ball, spheres hold words of several a-shifts: a^j p for each point p of U
    big = 24
    points = [f2.multiply(p.center, f) for p in u_spec.placed.placements for f in p.pattern]
    for spec, shifts in ((u_spec, [0]), (b_spec, range(big + 1)), (x_spec, range(-big, big + 1))):
        translates = {f2.multiply(f2.generator(1, j), p) for j in shifts for p in points}
        want = sorted((x for x in translates if len(x.word) <= big), key=f2.sort_key)
        assert spec.elements_in_ball(big) == want, spec.name
    assert len(f2._layers) == 10


def test_a_shift_matches_a_scan_over_every_translate(f2):
    """a_shift against its definition: the k with a^-k x in U, scanning every k up to |x| + 1."""
    placed = PlacedUniversalWords(f2, 1, 2, 4)
    u_words = {f2.multiply(p.center, f).word for p in placed.placements for f in p.pattern}

    def scan(x):
        bound = len(x.word) + 1
        hits = [k for k in range(-bound, bound + 1) if f2.multiply(f2.generator(1, -k), x).word in u_words]
        assert len(hits) <= 1
        return hits[0] if hits else None

    points = [f2.multiply(p.center, f) for p in placed.placements[:4] for f in p.pattern]
    # B before the first b, so the rest from that b is a point of U but x is in no a-translate
    b_first = [f2.multiply(f2.parse(prefix), u) for prefix in ("Ba", "BA", "aBa", "BBA") for u in points]
    assert all(x.word[-len(u.word):] == u.word for x, u in zip(b_first, points * 4))
    shifted = [f2.multiply(f2.generator(1, j), u) for j in (-3, -1, 1, 4) for u in points]
    sample = f2.ball(6) + points + b_first + shifted
    want = [scan(x) for x in sample]
    assert [placed.a_shift(x.word) for x in sample] == want
    assert {k for k in want if k is not None} == {-3, -1, 0, 1, 4}


def test_placed_membership_is_local(f2):
    spec = universal_b_words_spec(f2, max_radius=1)
    placed = spec.placed
    nonempty = [p for p in placed.placements if p.pattern]
    sample = nonempty[0]
    center = sample.center
    for offset in f2.ball(sample.radius):
        inside = spec.contains(f2.multiply(center, offset))
        assert inside == any(offset.word == f.word for f in sample.pattern)


def test_contrast_demo():
    f2 = free_group(2)
    suite = appendix_contrast_demo(f2)
    assert suite.verdict == VERIFIED
    assert len(f2._layers) == 5  # U, B and X list their members: no ball beyond the search's radius 4
    by_name = {c.name: c for c in suite.checks}
    assert by_name["relatively-deep"].verdict == VERIFIED
    assert by_name["coseparability-expected-to-fail"].verdict == VERIFIED
    inner = by_name["coseparability-expected-to-fail"].details["search_report"]
    assert inner.verdict == FALSIFIED
    assert by_name["contrast"].verdict == VERIFIED
