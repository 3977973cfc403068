import itertools

import pytest

from translation_lab import (
    FreeGroupContext,
    SubsetSpec,
    amalgam_subgroup,
    congruence_class,
    coordinate_halfspace,
    cyclic_translates,
    finite_subgroup,
    make_tree_halfspace,
    natural_numbers,
    positive_cone,
    verify_stabilisers,
    words_not_starting_with,
)
from translation_lab.configs import load_subset
from translation_lab.groups import cyclic_group
from translation_lab.reports import FALSIFIED, VERIFIED, ConfigError


def test_naturals_membership_and_window(z):
    nat = natural_numbers(z)
    assert not nat.contains(z.integer(-1))
    assert [x.word[0] for x in nat.elements_in_ball(5)] == [0, 1, 2, 3, 4, 5]


def test_positive_cone_membership(f2):
    cone = positive_cone(f2)
    assert cone.contains(f2.parse("ab"))
    assert not cone.contains(f2.parse("aB"))
    assert cone.contains(f2.identity())
    assert not cone.contains(f2.parse("A"))
    # counts double per length: 1 + 2 + 4 + 8
    assert len(cone.elements_in_ball(3)) == 15


def test_cone_window_order(f2):
    cone = positive_cone(f2)
    names = [f2.format(x) for x in cone.elements_in_ball(2)]
    assert names == ["e", "a", "b", "aa", "ab", "ba", "bb"]


def test_window_monotone(f2):
    cone = positive_cone(f2)
    small = [x.word for x in cone.elements_in_ball(2)]
    large = [x.word for x in cone.elements_in_ball(3)]
    assert large[: len(small)] == small


def test_elements_in_ball_match_the_filtered_ball_in_any_call_order(z2, f2, amalgam, bs12):
    z5 = cyclic_group(5)  # diameter 1: every later sphere is empty
    makers = [
        lambda: coordinate_halfspace(z2, 1, 1),
        lambda: positive_cone(f2),
        lambda: make_tree_halfspace(amalgam, "G"),
        lambda: make_tree_halfspace(bs12, "tB"),
        lambda: SubsetSpec(z5, "odd", lambda w: w[0] % 2 == 1),
    ]
    for make in makers:
        for order in itertools.permutations(range(4)):
            spec = make()
            for r in order + (2,):
                expected = [x.word for x in spec.ctx.ball(r) if spec.predicate(x.word)]
                assert [x.word for x in spec.elements_in_ball(r)] == expected
    with pytest.raises(ValueError):
        positive_cone(f2).elements_in_ball(-1)


def test_amalgam_halfspace_first_syllable(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    g1 = amalgam.from_letters([(0, amalgam.factors[0].element(1))])
    assert not b.contains(s1)  # starts with a strict second-factor syllable
    assert b.contains(g1)
    assert b.contains(amalgam.identity())
    assert b.contains(amalgam.h_element(1))  # glued subgroup sits inside


def test_amalgam_halfspaces_cover_and_meet_in_subgroup(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    b_prime = make_tree_halfspace(amalgam, "S")
    h = amalgam_subgroup(amalgam)
    for x in amalgam.ball(4):
        assert b.contains(x) or b_prime.contains(x)
        assert (b.contains(x) and b_prime.contains(x)) == h.contains(x)


def test_zz_halfspace_window(zz):
    b = make_tree_halfspace(zz, "G")
    names = [zz.format(x) for x in b.elements_in_ball(1)]
    assert names == ["e", "a^-1", "a"]


def test_hnn_halfspace_membership(bs12):
    b = make_tree_halfspace(bs12, "B")
    assert not b.contains(bs12.stable_letter(-1))
    assert b.contains(bs12.parse("a^-3*t*t"))
    assert b.contains(bs12.identity())


def test_hnn_halfspace_right_invariance(bs12):
    b = make_tree_halfspace(bs12, "B")
    t = bs12.stable_letter(1)
    a = bs12.from_base(bs12.base.integer(1))
    for x in b.elements_in_ball(3):
        assert b.contains(bs12.multiply(x, t))  # pushed further inside
        assert b.contains(bs12.multiply(x, a))
        assert b.contains(bs12.multiply(x, bs12.invert(a)))


def test_hnn_t_translate(bs12):
    tb = make_tree_halfspace(bs12, "tB")
    b = make_tree_halfspace(bs12, "B")
    t = bs12.stable_letter(1)
    for x in b.elements_in_ball(3):
        assert tb.contains(bs12.multiply(t, x))
    assert not tb.contains(bs12.identity())


def test_coset_union_membership(f2):
    cone = positive_cone(f2)
    union = cyclic_translates(cone, f2.generator(1))
    assert union.contains(f2.parse("AAA"))  # a^-3 times the identity
    assert not union.contains(f2.parse("B"))
    assert union.left_stabiliser.contains(f2.generator(1))
    assert not union.left_stabiliser.contains(f2.generator(2))


def _strip_leading_run(word, letter):
    """The word without its leading run of letter^±1."""
    k = 0
    while k < len(word) and abs(word[k]) == letter:
        k += 1
    return word[k:]


def _in_some_translate(base, g, x):
    """Reference: g^k x lies in the base for some |k| <= |x| + 1."""
    ctx = base.ctx
    g_inv = ctx.invert(g)
    fwd = back = x
    if base.contains(x):
        return True
    for _ in range(ctx.word_length(x) + 1):
        fwd = ctx.multiply(g_inv, fwd)
        back = ctx.multiply(g, back)
        if base.contains(fwd) or base.contains(back):
            return True
    return False


@pytest.mark.parametrize("rank,radius", [(2, 5), (3, 4)])
def test_coset_union_matches_closed_form(rank, radius):
    # x lies in the union of a^k P over all k iff x with its leading a^±1
    # run stripped is a positive word; the translate scan is the oracle
    ctx = FreeGroupContext(rank)
    cone = positive_cone(ctx)
    for translator in ctx.generator_elements():
        union = cyclic_translates(cone, translator)
        letter = abs(translator.word[0])
        for x in ctx.ball(radius):
            expected = _in_some_translate(cone, translator, x)
            assert expected == all(l > 0 for l in _strip_leading_run(x.word, letter))
            assert union.contains(x) == expected, (ctx.format(translator), ctx.format(x))


def test_coset_union_refuses_unproven_bases_and_translators(z, f2):
    with pytest.raises(ValueError):
        cyclic_translates(coordinate_halfspace(z, 0, 5), z.integer(1))
    # only the loader knows the base's kind, so it refuses a base other than the cone
    not_a_cone = {"kind": "custom-first-letter", "exclude": "A"}
    with pytest.raises(ConfigError, match="only for a positive-cone base"):
        load_subset(f2, {"kind": "coset-union", "base": not_a_cone, "translator": "a"})
    for word in ("ab", "aa", "aB"):
        with pytest.raises(ValueError):
            cyclic_translates(positive_cone(f2), f2.parse(word))


def test_congruence_class(z):
    evens = congruence_class(z, 2)
    assert evens.contains(z.integer(-4))
    assert not evens.contains(z.integer(3))


def test_halfplane(z2):
    half = coordinate_halfspace(z2, 0, 0)
    assert half.contains(z2.vector(0, -5))
    assert not half.contains(z2.vector(-1, 2))
    assert half.left_stabiliser.contains(z2.vector(0, 7))
    assert not half.left_stabiliser.contains(z2.vector(1, 0))


def test_verify_stabilisers_naturals(z):
    nat = natural_numbers(z)
    report = verify_stabilisers(nat, 8)
    assert report.verdict == VERIFIED
    assert report.details["unclaimed_left_candidates"] == []


def test_verify_stabilisers_amalgam(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    report = verify_stabilisers(b, 4)
    assert report.verdict == VERIFIED
    confirmed = report.details["confirmed"]["left"]
    assert len(confirmed) == 2  # both subgroup elements


def test_verify_stabilisers_finds_violation(f2):
    cone = positive_cone(f2)
    bad = SubsetSpec(f2, "right-a", lambda w: w in ((), (1,)))
    cone.right_stabiliser = bad
    report = verify_stabilisers(cone, 2)
    assert report.verdict == FALSIFIED
    sides = {w["side"] for w in report.witnesses}
    assert "right" in sides


def test_subgroup_closure_validation(z):
    with pytest.raises(ValueError):
        finite_subgroup(z, [z.integer(1)], "broken")


def test_pv_subset(f2):
    b = words_not_starting_with(f2, f2.invert(f2.generator(1)))
    assert b.contains(f2.identity())
    assert b.contains(f2.parse("b"))
    assert not b.contains(f2.parse("Ab"))
