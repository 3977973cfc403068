import functools
import itertools
from collections import deque

import pytest

from translation_lab import (
    AmalgamContext,
    SubsetSpec,
    amalgam_subgroup,
    congruence_class,
    coordinate_halfspace,
    cyclic_translates,
    difference,
    make_tree_halfspace,
    natural_numbers,
    positive_cone,
    trivial_subgroup,
    whole_group,
    words_not_starting_with,
)
from translation_lab.configs import load_group
from translation_lab.groups import GroupElement
from translation_lab.geometry import (
    factor_relation_words,
    _connect_class,
    _displaced,
    _rewrite_table,
    _rewrites,
    almost_invariant_check,
    boundary_check,
    boundary_set,
    convexity_bounded_check,
    coset_count_profile,
    coseparability_search,
    deep_witness,
    h_isolation_sets,
    prefix_products,
    presentation_for,
    relatively_deep_check,
    verify_h_isolation,
)
from translation_lab.reports import FALSIFIED, INCONCLUSIVE, VERIFIED


# -- deepness ----------------------------------------------------------------


def test_deep_naturals(z):
    report = deep_witness(natural_numbers(z), 3, 10)
    assert report.verdict == VERIFIED
    assert report.witnesses == [z.integer(3)]


def test_deep_evens_inconclusive(z):
    for radius in (6, 12):
        assert deep_witness(congruence_class(z, 2), 1, radius).verdict == INCONCLUSIVE


def test_relatively_deep_reduces_to_deep(z):
    # the ambient set is the whole group, whose left stabiliser is everything:
    # a single coset, so the check degenerates to the plain deep witness
    nat = natural_numbers(z)
    everything = SubsetSpec(z, "Z", lambda w: True)
    report = relatively_deep_check(nat, whole_group(z), everything, 3, 10)
    assert report.verdict == VERIFIED


def test_relatively_deep_cuntz_setup(f2):
    cone = positive_cone(f2)
    union = cyclic_translates(cone, f2.generator(1))
    report = relatively_deep_check(cone, union, union.left_stabiliser, 2, 6)
    assert report.verdict == VERIFIED


def test_relatively_deep_fails_for_evens(z):
    evens = congruence_class(z, 2)
    report = relatively_deep_check(evens, whole_group(z), SubsetSpec(z, "Z", lambda w: True), 1, 8)
    assert report.verdict == FALSIFIED


def test_relatively_deep_validates_containment(z):
    nat = natural_numbers(z)
    evens = congruence_class(z, 2)
    report = relatively_deep_check(nat, evens, trivial_subgroup(z), 1, 6)
    assert report.verdict == FALSIFIED
    assert "error" in report.details


# -- almost invariance --------------------------------------------------------


def test_almost_invariant_naturals(z):
    # both directions of the translate: the strip appears on the inverse side
    nat = natural_numbers(z)
    fwd = almost_invariant_check(nat, whole_group(z), trivial_subgroup(z), z.integer(3), 8)
    assert fwd.verdict == VERIFIED and fwd.details["coset_count_at_R"] == 0
    bwd = almost_invariant_check(nat, whole_group(z), trivial_subgroup(z), z.integer(-3), 8)
    assert bwd.verdict == VERIFIED
    assert bwd.details["coset_count_at_R"] == 3  # the strip -3,-2,-1
    assert sorted(bwd.witnesses, key=z.sort_key) == [z.integer(-1), z.integer(-2), z.integer(-3)]


def test_almost_invariant_halfplane(z2):
    half = coordinate_halfspace(z2, 0, 0)
    report = almost_invariant_check(half, whole_group(z2), half.left_stabiliser, z2.vector(-1, 0), 8)
    assert report.verdict == VERIFIED
    assert report.details["coset_count_at_R"] == 1  # one axis coset


def test_almost_invariant_amalgam(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    for g in (s1, amalgam.invert(s1)):
        report = almost_invariant_check(b, whole_group(amalgam), h, g, 4)
        assert report.verdict == VERIFIED
        assert report.details["coset_count_at_R"] == 1  # a single subgroup coset


def test_positive_cone_not_almost_invariant(f2):
    cone = positive_cone(f2)
    a_inv = f2.invert(f2.generator(1))
    report = almost_invariant_check(cone, whole_group(f2), trivial_subgroup(f2), a_inv, 4)
    assert report.verdict == INCONCLUSIVE
    profile = coset_count_profile(
        cone, whole_group(f2), trivial_subgroup(f2), a_inv, [4, 6, 8]
    )
    assert profile[0] < profile[1] < profile[2]


@pytest.mark.parametrize(
    "group,make_b,make_inner",
    [
        ("f2", positive_cone, lambda f2: words_not_starting_with(f2, f2.generator(1))),
        ("amalgam", lambda c: make_tree_halfspace(c, "G"), lambda c: make_tree_halfspace(c, "G")),
        ("bs12", lambda c: make_tree_halfspace(c, "B"), lambda c: make_tree_halfspace(c, "tB")),
    ],
    ids=["f2-cone", "z4*z6-G", "bs12-B"],
)
def test_displaced_matches_the_filtered_ball(request, group, make_b, make_inner):
    """(Bg \\ B) n X read from X's window equals its definition over the whole ball, in order."""
    ctx = request.getfixturevalue(group)
    b_spec = make_b(ctx)
    x_spec = difference(whole_group(ctx), make_inner(ctx))  # a half-space's complement
    found = 0
    for g in ctx.ball(1):
        g_inv = ctx.invert(g)
        for r in (4, 0, 2, 1, 3):
            want = [
                x.word
                for x in ctx.ball(r)
                if not b_spec.contains(x) and x_spec.contains(x) and b_spec.contains(ctx.multiply(x, g_inv))
            ]
            assert [x.word for x in _displaced(b_spec, x_spec, g, r)] == want, (ctx.format(g), r)
            found += len(want)
    assert found
    assert len(x_spec.elements_in_ball(4)) < len(ctx.ball(4))


# -- co-separability and isolation ---------------------------------------------


def test_coseparability_naturals(z):
    nat = natural_numbers(z)
    report = coseparability_search(nat, trivial_subgroup(z), 1, 10)
    assert report.verdict == VERIFIED
    assert sorted(report.witnesses, key=z.sort_key) == [z.integer(0), z.integer(-1)]


def test_coseparability_halfplane(z2):
    half = coordinate_halfspace(z2, 0, 0)
    report = coseparability_search(half, half.left_stabiliser, 1, 4)
    assert report.verdict == VERIFIED
    assert sorted(report.witnesses, key=z2.sort_key) == [z2.vector(0, 0), z2.vector(-1, 0)]


def test_coseparability_amalgam(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    report = coseparability_search(b, h, 1, 3)
    assert report.verdict == VERIFIED
    inside = [x for x in report.witnesses if b.contains(x)]
    outside = [x for x in report.witnesses if not b.contains(x)]
    assert inside and outside


def test_coseparability_inconclusive_when_size_capped(z):
    nat = natural_numbers(z)
    report = coseparability_search(nat, trivial_subgroup(z), 1, 10, max_size=1)
    assert report.verdict == INCONCLUSIVE


def test_isolation_pipeline_naturals(z):
    nat = natural_numbers(z)
    f1, f2_ = h_isolation_sets(nat, [z.integer(-1), z.integer(0)])
    assert [x.word[0] for x in f1] == [0]
    assert [x.word[0] for x in f2_] == [1]
    assert verify_h_isolation(nat, trivial_subgroup(z), f1, f2_, 10).verdict == VERIFIED


def test_isolation_pipeline_halfplane(z2):
    half = coordinate_halfspace(z2, 0, 0)
    f1, f2_ = h_isolation_sets(half, [z2.vector(0, 0), z2.vector(-1, 0)])
    assert [x.word for x in f1] == [(0, 0)]
    assert [x.word for x in f2_] == [(1, 0)]
    assert verify_h_isolation(half, half.left_stabiliser, f1, f2_, 8).verdict == VERIFIED


def test_isolation_enlarges_one_sided_family(z):
    nat = natural_numbers(z)
    f1, f2_ = h_isolation_sets(nat, [z.integer(0)])  # no outside point given
    assert f1 and f2_
    assert verify_h_isolation(nat, trivial_subgroup(z), f1, f2_, 8).verdict == VERIFIED


def test_isolation_requires_families(z):
    nat = natural_numbers(z)
    with pytest.raises(ValueError):
        verify_h_isolation(nat, trivial_subgroup(z), [], [z.integer(1)], 5)


def test_subgroup_always_inside_intersection_side(z):
    # the subgroup satisfies the intersection half of the formula by stability
    nat = natural_numbers(z)
    f1, f2_ = h_isolation_sets(nat, [z.integer(-1), z.integer(0)])
    e = z.identity()
    assert all(nat.contains(z.multiply(e, z.invert(g))) for g in f1)


# -- boundary ------------------------------------------------------------------


def test_boundary_naturals(z):
    assert [x.word[0] for x in boundary_set(natural_numbers(z), 8)] == [0]


def test_boundary_amalgam_is_subgroup(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    assert boundary_check(b, h, 4).verdict == VERIFIED


def test_boundary_hnn_is_subgroup(bs12):
    b = make_tree_halfspace(bs12, "B")
    left = b.left_stabiliser
    assert boundary_check(b, left, 4).verdict == VERIFIED


# -- convexity -----------------------------------------------------------------


def test_convexity_amalgam(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    pres = presentation_for(amalgam)
    report = convexity_bounded_check(b, pres, 3)
    assert report.verdict == VERIFIED


def test_convexity_hnn(bs12):
    b = make_tree_halfspace(bs12, "B")
    pres = presentation_for(bs12)
    report = convexity_bounded_check(b, pres, 3)
    assert report.verdict == VERIFIED


def test_convexity_whole_free_group(f2):
    pres = presentation_for(f2)
    report = convexity_bounded_check(whole_group(f2), pres, 2)
    assert report.verdict == VERIFIED


C3 = {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
BS13 = {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"multiplier": 3}}


@pytest.mark.parametrize(
    "group,length",
    [("z2", 2), ({"kind": "free-abelian", "rank": 2}, 3), ({"kind": "free-abelian", "rank": 3}, 2), (C3, 3)],
    ids=["z2", "z2-json", "z3", "c3"],
)
def test_convexity_of_the_whole_group_with_a_presentation_of_the_group(group, length):
    """Z^n carries its commutators and a finite group its multiplication table."""
    ctx = load_group(group)
    pres = presentation_for(ctx)
    e = ctx.identity()
    for rel in pres.relations:
        assert functools.reduce(ctx.multiply, (pres.letters[i] for i in rel), e) == e
    report = convexity_bounded_check(whole_group(ctx), pres, length)
    assert report.verdict == VERIFIED, report.witnesses


def test_finite_presentation_is_the_finite_factor_rule():
    ctx = load_group(C3)
    pres = presentation_for(ctx)
    assert [ctx.format(x) for x in pres.letters] == ["g1", "g2"]
    # g1 g2, g2 g1 and the cubes, closed under rotation and inversion
    assert list(pres.relations) == [(0, 0, 0), (0, 1), (1, 0), (1, 1, 1)]


def test_convexity_unreached_class_is_inconclusive_not_falsified():
    """BS(1,3)'s twist image a^3 is beyond the letter bound, so t a t^-1 = a^3 is no relation word."""
    ctx = load_group(BS13)
    report = convexity_bounded_check(whole_group(ctx), presentation_for(ctx), 3)
    assert report.verdict == INCONCLUSIVE
    assert report.details == {"budget_exceeded": False}
    assert report.witnesses == [[ctx.parse(x) for x in word] for word in (["-2"] * 3, ["t", "-2", "t^-1"])]


def _presentation_by_scans(ctx, letter_bound=2):
    """Letters and closed relations of an amalgam or HNN presentation, built as
    two separate branches with a linear letter scan: every pair and triple of
    factor letters is tried, and a word is kept only when all its letters are
    in the alphabet."""
    letters, relations = [], []

    def letter_index(x):
        for i, l in enumerate(letters):
            if l.word == x.word:
                return i
        return None

    def add_relation_word(elems):
        idx = [letter_index(x) for x in elems]
        if None not in idx:
            relations.append(tuple(idx))

    if isinstance(ctx, AmalgamContext):
        factor_letters = [[], []]
        for side in (0, 1):
            f = ctx.factors[side]
            raw = f.all_elements() if hasattr(f, "all_elements") else f.ball(letter_bound)
            for x in sorted((x for x in raw if x.word != f.identity().word), key=f.sort_key):
                el = ctx.from_letters([(side, x)])
                if letter_index(el) is None:
                    letters.append(el)
                factor_letters[side].append(el)
        for side in (0, 1):
            for x in factor_letters[side]:
                add_relation_word([x, ctx.invert(x)])
            for x in factor_letters[side]:
                for y in factor_letters[side]:
                    z = ctx.invert(ctx.multiply(x, y))
                    if z.word != ctx.identity().word and letter_index(z) is not None:
                        add_relation_word([x, y, z])
    else:
        base = ctx.base
        raw = [x for x in base.ball(letter_bound) if x.word != base.identity().word]
        for x in sorted(raw, key=base.sort_key):
            letters.append(ctx.from_base(x))
        t, t_inv = ctx.stable_letter(1), ctx.stable_letter(-1)
        letters += [t, t_inv]
        for x in raw:
            add_relation_word([ctx.from_base(x), ctx.from_base(base.invert(x))])
        add_relation_word([t, t_inv])
        add_relation_word([t_inv, t])
        for x in raw:
            for y in raw:
                z = base.invert(base.multiply(x, y))
                if z.word != base.identity().word:
                    add_relation_word([ctx.from_base(x), ctx.from_base(y), ctx.from_base(z)])
        for h in raw:
            if ctx.data.member(1, h.word):
                k = GroupElement(base, ctx.data.image(1, h.word))
                if k.word != base.identity().word:
                    add_relation_word([t, ctx.from_base(h), t_inv, ctx.from_base(base.invert(k))])

    def inverse(i):
        return letter_index(ctx.invert(letters[i]))

    closed = set()
    for rel in relations:
        for s in range(len(rel)):
            rot = rel[s:] + rel[:s]
            closed.add(rot)
            closed.add(tuple(inverse(i) for i in reversed(rot)))
    return [x.word for x in letters], sorted(closed)


@pytest.fixture(scope="module")
def z6_hnn_z2():
    """Z/2 glued to an HNN extension of Z/6, at 3: a letter of Z/2 but of length 3 in Z/6."""
    z6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    return load_group(
        {
            "kind": "amalgam",
            "left": {
                "kind": "hnn",
                "base": {"kind": "finite", "table": z6, "names": [str(i) for i in range(6)], "generators": [1]},
                "theta": [["3", "3"]],
            },
            "right": {"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["0", "1"]},
            "pairs": [["3", "1"]],
        }
    )


@pytest.mark.parametrize(
    "group",
    ["amalgam", "s3_z4", "zz", "z6_hnn_z2", "bs12", "f2_hnn", "hnn_3z_5z", "hnn_klein", "hnn_z4_negation"],
)
def test_presentation_matches_the_branch_by_branch_build(request, group):
    ctx = request.getfixturevalue(group)
    pres = presentation_for(ctx)
    letters, relations = _presentation_by_scans(ctx)
    assert [x.word for x in pres.letters] == letters
    assert list(pres.relations) == relations


def test_factor_relation_words_list_pairs_then_triples(amalgam):
    z4 = amalgam.factors[0]
    letters = [x for x in z4.all_elements() if x.word != z4.identity().word]
    words = [[z4.format(x) for x in word] for word in factor_relation_words(z4, letters)]
    # pairs first, then every ordered pair with a nontrivial product
    assert words[:3] == [["1", "3"], ["2", "2"], ["3", "1"]]
    assert len(words) == 3 + 9 - 3
    assert ["1", "1", "2"] in words and ["1", "2", "1"] in words


def _stays_inside(pres, spec, word):
    """Walk the whole word from the identity, testing every prefix."""
    ctx = pres.ctx
    acc = ctx.identity()
    for i in word:
        acc = ctx.multiply(acc, pres.letters[i])
        if not spec.contains(acc):
            return False
    return True


def _scratch_connect_class(pres, spec, members, table, max_len, node_budget, allow_insert):
    """The rewrite search with every candidate walked from the identity."""
    root = members[0]
    goal_set = set(members[1:])
    visited = {root: None}
    queue = deque([root])
    nodes = 0
    while queue and goal_set:
        if nodes > node_budget:
            return list(visited), goal_set, True
        current = queue.popleft()
        nodes += 1
        for pos, length, repl in _rewrites(current, table, max_len, allow_insert):
            nxt = current[:pos] + repl + current[pos + length :]
            if nxt in visited or not _stays_inside(pres, spec, nxt):
                continue
            visited[nxt] = None
            goal_set.discard(nxt)
            queue.append(nxt)
    return list(visited), goal_set, False


@pytest.mark.parametrize("group,side,length", [("amalgam", "G", 3), ("bs12", "B", 2)])
def test_rewrites_with_carried_prefixes_match_a_walk_from_scratch(request, group, side, length):
    ctx = request.getfixturevalue(group)
    spec = make_tree_halfspace(ctx, side)
    pres = presentation_for(ctx)
    e = ctx.identity()
    for rel in pres.relations:  # a replacement equals the subword it replaces
        assert functools.reduce(ctx.multiply, (pres.letters[i] for i in rel), e) == e
    words = [
        w
        for n in range(length + 1)
        for w in itertools.product(range(len(pres.letters)), repeat=n)
        if _stays_inside(pres, spec, w)
    ]
    classes = {}
    for w in words:
        product = functools.reduce(ctx.multiply, (pres.letters[i] for i in w), e)
        classes.setdefault(product.word, []).append(w)
    table = _rewrite_table(pres)
    compared = 0
    for members in classes.values():
        if len(members) < 2:
            continue
        carried = [(w, (e,) + prefix_products(spec, e, [pres.letters[i] for i in w])) for w in members]
        for allow_insert, budget in ((False, 30000), (True, 40)):
            args = (table, length + 3, budget, allow_insert)
            seen, unreached, hit = _connect_class(pres, spec, carried, *args)
            assert (list(seen), unreached, hit) == _scratch_connect_class(pres, spec, members, *args)
            compared += 1
    assert compared > 0
