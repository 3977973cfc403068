"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance and radius is pinned here; nothing is calibrated at
runtime.
"""

import time

from conftest import generator_sequences, rng

from translation_lab import (
    amalgam_subgroup,
    compose,
    congruence_class,
    coordinate_halfspace,
    coset_projection,
    guarded_equal,
    make_tree_halfspace,
    make_window,
    natural_numbers,
    positive_cone,
    track_of_sequence,
    track_operator,
    trivial_subgroup,
    whole_group,
)
from translation_lab.gallery import (
    run_all,
    run_cuntz_check,
    run_hnn_partition_check,
    run_lance_difference_check,
    run_pv_check,
    run_relation_classification,
    run_toeplitz_check,
)
from translation_lab.geometry import (
    coset_count_profile,
    coseparability_search,
    coseparability_witness,
    deep_witness,
    h_isolation_sets,
    verify_h_isolation,
)
from translation_lab.group_algebra import isolation_projection, verify_ph_in_ideal
from translation_lab.reports import FALSIFIED, VERIFIED, dumps
from translation_lab.tracks import compose_tracks, make_track, nonzero_witness
from translation_lab.universal import (
    appendix_contrast_demo,
    characteristic_prefix,
    track_independence_check,
    universal_z_spec,
    universality_check,
)


def _report(number: int, description: str, passed: bool):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_track_laws(z, z2, f2):
    started = time.monotonic()
    r = rng(101)
    gens = f2.generator_elements()
    tracks = []
    while len(tracks) < 80:
        seq = [gens[r.randrange(4)] for _ in range(r.randrange(4))]
        t = track_of_sequence(f2, seq)
        if len(t.visited) <= 4:
            tracks.append(t)
    associative = all(
        compose_tracks(f2, compose_tracks(f2, t1, t2), t3)
        == compose_tracks(f2, t1, compose_tracks(f2, t2, t3))
        for t1, t2, t3 in (
            (tracks[r.randrange(80)], tracks[r.randrange(80)], tracks[r.randrange(80)])
            for _ in range(1000)
        )
    )

    homomorphic = True
    cases = [
        (z, natural_numbers(z)),
        (z, whole_group(z)),
        (z2, coordinate_halfspace(z2, 0, 0)),
        (f2, positive_cone(f2)),
    ]
    for ctx, spec in cases:
        w = make_window(spec, 6)
        for seq in generator_sequences(ctx, 3):
            for cut in range(len(seq) + 1):
                t1 = track_of_sequence(ctx, seq[:cut])
                t2 = track_of_sequence(ctx, seq[cut:])
                joint = track_operator(w, compose_tracks(ctx, t1, t2))
                split = compose(track_operator(w, t1), track_operator(w, t2))
                if not guarded_equal(joint, split).equal:
                    homomorphic = False
    elapsed = time.monotonic() - started
    _report(
        1,
        f"track monoid laws and operator homomorphism (elapsed {elapsed:.1f}s)",
        associative and homomorphic and elapsed < 10,
    )


def test_criterion_02_deepness_equivalence(z, f2):
    started = time.monotonic()
    r = rng(103)
    family = [
        (natural_numbers(z), 40, True),
        (congruence_class(z, 2), 40, True),
        (positive_cone(f2), 8, False),
        (universal_z_spec(z), 1600, True),
    ]
    agree = True
    for spec, radius, exhaustive in family:
        ctx = spec.ctx
        for depth in range(4):
            ball = ctx.ball(depth)
            full = make_track(ctx, ctx.identity(), ball)
            deep = deep_witness(spec, depth, radius).verdict == VERIFIED
            has_full_witness = nonzero_witness(full, spec, radius) is not None
            if deep != has_full_witness:
                agree = False
            if exhaustive and len(ball) <= 7:
                subsets = range(1 << len(ball))
            else:
                subsets = [r.randrange(1 << len(ball)) for _ in range(40)]
            for mask in subsets:
                visited = [ball[i] for i in range(len(ball)) if mask >> i & 1]
                track = make_track(ctx, ctx.identity(), visited)
                witness = nonzero_witness(track, spec, radius)
                if deep and witness is None:
                    agree = False  # a deep set leaves no track without witness
                if not deep and set(h.word for h in track.visited) >= {x.word for x in ball}:
                    if witness is not None:
                        agree = False
    elapsed = time.monotonic() - started
    _report(2, f"deepness equals track nonvanishing at scale (elapsed {elapsed:.1f}s)", agree and elapsed < 30)


def test_criterion_03_toeplitz():
    suite = run_toeplitz_check(20)
    by_name = {c.name: c for c in suite.checks}
    rows_ok = (
        by_name["shift-co-isometry"].compared_count >= 19
        and by_name["shift-defect-projection"].compared_count >= 19
    )
    _report(3, "half-line shift identities at R=20", suite.verdict == VERIFIED and rows_ok)


def test_criterion_04_pv():
    suite = run_pv_check(2, 4)
    by_name = {c.name: c for c in suite.checks}
    _report(
        4,
        "free-group shift identities with rank-one defect at R=4",
        suite.verdict == VERIFIED and by_name["defect-rank-one"].details["rank"] == 1,
    )


def test_criterion_05_cuntz(f2):
    suite = run_cuntz_check(2, 4)
    by_name = {c.name: c for c in suite.checks}
    isometry_rows = by_name["letter-1-isometry"].compared_count
    range_rows = by_name["range-sum-misses-only-origin"].compared_count
    _report(
        5,
        "positive-cone and translate-union relations (15 interior rows, 31-point window)",
        suite.verdict == VERIFIED and isometry_rows == 15 and range_rows == 31,
    )


def test_criterion_06_relation_classification():
    suite = run_relation_classification(5)
    summary = next(c for c in suite.checks if c.name == "all-relations-classified")
    _report(
        6,
        "every short relation evaluates to 1 or 1 - p_H at R=5 with zero exceptions",
        suite.verdict == VERIFIED
        and summary.details["staying"] > 0
        and summary.details["crossing"] > 0,
    )


def test_criterion_07_lance():
    suite = run_lance_difference_check(4)
    by_name = {c.name: c for c in suite.checks}
    block = by_name["second-factor-difference-is-translation-block"]
    _report(
        7,
        "two-representation difference: rank-one block at (e,e), zero on the first factor",
        suite.verdict == VERIFIED
        and block.details["module_rank"] == 1
        and by_name["first-factor-difference-vanishes"].verdict == VERIFIED,
    )


def test_criterion_08_isolation_pipeline(z, z2, amalgam):
    ok = True
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    cases = [
        (natural_numbers(z), trivial_subgroup(z), whole_group(z), z.integer(1), 1, 10, 12),
        (
            coordinate_halfspace(z2, 0, 0),
            coordinate_halfspace(z2, 0, 0).left_stabiliser,
            whole_group(z2),
            z2.vector(1, 0),
            1,
            4,
            8,
        ),
        (
            make_tree_halfspace(amalgam, "G"),
            amalgam_subgroup(amalgam),
            whole_group(amalgam),
            amalgam.invert(s1),
            1,
            3,
            5,
        ),
    ]
    for spec, sub, ambient, g, f_radius, g_radius, ideal_radius in cases:
        search = coseparability_search(spec, sub, f_radius, g_radius)
        if search.verdict != VERIFIED:
            ok = False
            continue
        f1, f2_ = h_isolation_sets(spec, coseparability_witness(search, spec))
        if verify_h_isolation(spec, sub, f1, f2_, 8).verdict != VERIFIED:
            ok = False
        w = make_window(spec, 8)
        proj = isolation_projection(w, f1, f2_)
        target = coset_projection(w, sub, spec.ctx.identity())
        if not guarded_equal(proj, target).equal or proj.clipped_rows:
            ok = False
        if verify_ph_in_ideal(spec, ambient, sub, g, ideal_radius).verdict != VERIFIED:
            ok = False
    _report(8, "distinguishing sets isolate the stabiliser and land in the ideal", ok)


def test_criterion_09_almost_invariance_discrimination(z, z2, f2, amalgam):
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    stable_cases = [
        (natural_numbers(z), whole_group(z), trivial_subgroup(z), z.integer(-3)),
        (
            coordinate_halfspace(z2, 0, 0),
            whole_group(z2),
            coordinate_halfspace(z2, 0, 0).left_stabiliser,
            z2.vector(-1, 0),
        ),
        (make_tree_halfspace(amalgam, "G"), whole_group(amalgam), amalgam_subgroup(amalgam), s1),
    ]
    ok = True
    for spec, ambient, sub, g in stable_cases:
        profile = coset_count_profile(spec, ambient, sub, g, [4, 6, 8])
        if not (profile[0] == profile[1] == profile[2] and profile[0] > 0):
            ok = False
    cone_profile = coset_count_profile(
        positive_cone(f2), whole_group(f2), trivial_subgroup(f2), f2.invert(f2.generator(1)), [4, 6, 8]
    )
    growing = cone_profile[0] < cone_profile[1] < cone_profile[2]
    _report(9, "coset counts stable for invariant examples, strictly growing for the cone", ok and growing)


def test_criterion_10_hnn(bs12):
    t = bs12.stable_letter(1)
    a = bs12.from_base(bs12.base.integer(1))
    twist_ok = (
        bs12.multiply(bs12.multiply(t, a), bs12.stable_letter(-1)).word
        == bs12.from_base(bs12.base.integer(2)).word
    )
    ball = bs12.ball(4)
    r = rng(107)
    assoc = all(
        bs12.multiply(bs12.multiply(x, y), w).word == bs12.multiply(x, bs12.multiply(y, w)).word
        for x, y, w in (
            (ball[r.randrange(len(ball))], ball[r.randrange(len(ball))], ball[r.randrange(len(ball))])
            for _ in range(10_000)
        )
    )
    suites = [run_hnn_partition_check("bs12", 4), run_hnn_partition_check("f2", 4)]
    _report(
        10,
        "stable-letter normal forms, partition, fiber products at R=4",
        twist_ok and assoc and all(s.verdict == VERIFIED for s in suites),
    )


def test_criterion_11_universal(z):
    prefix_ok = characteristic_prefix(10) == "0100011011"
    u = universal_z_spec(z)
    patterns = universality_check(u, 2, 5000)
    tracks = []
    offsets = [z.integer(k) for k in range(-2, 3)]
    for mask in range(1 << 5):
        visited = [offsets[i] for i in range(5) if mask >> i & 1]
        if not any(x.word[0] == 0 for x in visited):
            continue
        for total in visited:
            tracks.append(make_track(z, total, visited))
        if len(tracks) >= 20:
            break
    independence = track_independence_check(u, tracks[:20], 5000)
    demo = appendix_contrast_demo()
    cosep_wrapped = next(c for c in demo.checks if c.name == "coseparability-expected-to-fail")
    _report(
        11,
        "universal subset: prefix, 32 patterns, 20 independent tracks, bounded contrast",
        prefix_ok
        and patterns.verdict == VERIFIED
        and independence.verdict == VERIFIED
        and len(independence.witnesses) == 20
        and demo.verdict == VERIFIED
        and cosep_wrapped.details["search_report"]["verdict"] == FALSIFIED,
    )


def test_criterion_12_determinism_and_budget():
    started = time.monotonic()
    first = dumps({"suites": [s.to_dict() for s in run_all()]})
    second = dumps({"suites": [s.to_dict() for s in run_all()]})
    demo1 = dumps(appendix_contrast_demo().to_dict())
    demo2 = dumps(appendix_contrast_demo().to_dict())
    elapsed = time.monotonic() - started
    _report(
        12,
        f"byte-reproducible full suite within budget (elapsed {elapsed:.1f}s)",
        first == second and demo1 == demo2 and elapsed < 120,
    )
