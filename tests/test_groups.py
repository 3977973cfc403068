import functools
import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_distances, rng
from test_predicate_oracles import INPUT_GROUPS, INPUTS, LOADER_CONFIGS, Z4, Z6

from translation_lab import (
    BallCapExceeded,
    FiniteGroupContext,
    FreeAbelianContext,
    FreeGroupContext,
    GroupContext,
    IntegerScaledSubgroup,
    MalformedWord,
    amalgam_z4_z6,
    baumslag_solitar,
    cyclic_group,
    free_group_as_hnn,
    free_product_of_two_integers,
)
from translation_lab.configs import BUILTIN_GROUPS, load_group
from translation_lab.groups import BALL_CAP_ENV, AmalgamContext, GroupElement, HnnContext


# -- free groups -------------------------------------------------------------


def test_free_cancellation(f2):
    a = f2.generator(1)
    assert f2.multiply(a, f2.invert(a)).word == ()


def test_free_invert_reverses(f2):
    x = f2.parse("aB")
    assert f2.format(f2.invert(x)) == "bA"


def test_free_word_length(f2):
    assert f2.word_length(f2.parse("abA")) == 3
    assert f2.word_length(f2.identity()) == 0


def test_free_sphere_sizes(f2):
    # spheres of a rank-2 free group: 4 * 3^(k-1)
    for k in range(1, 5):
        assert len(f2.sphere(k)) == 4 * 3 ** (k - 1)
    assert len(f2.ball(3)) == 1 + 4 + 12 + 36


def test_free_ball_radius_one_order(f2):
    assert [f2.format(x) for x in f2.ball(1)] == ["e", "a", "A", "b", "B"]


def _listers_in(source):
    """The free groups, amalgams and HNN extensions a group source loads,
    outermost first, with those below them as factors or bases."""
    out, todo = [], [load_group(source)]
    while todo:
        ctx = todo.pop(0)
        if isinstance(ctx, AmalgamContext):
            todo.extend(ctx.factors)
        elif isinstance(ctx, HnnContext):
            todo.append(ctx.base)
        elif not isinstance(ctx, FreeGroupContext):
            continue
        out.append(ctx)
    return out


TRIVIAL = {"kind": "finite", "table": [[0]]}


GROUP_SOURCES = {
    **{f"builtin:{name}": name for name in BUILTIN_GROUPS},
    **{f"config:{name}": config for name, config in LOADER_CONFIGS.items()},
    **{f"input:{name}": str(INPUTS / name) for name in INPUT_GROUPS},
    # HNN extensions over trivial subgroups of a finite, a rank-2, a listed and a searched base
    "trivial:z4": {"kind": "hnn", "base": Z4, "theta": []},
    "trivial:z2": {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 2}, "theta": []},
    "trivial:hnn": {"kind": "hnn", "base": {"kind": "hnn", "base": Z4, "theta": []}, "theta": [], "stable_letter": "u"},
    "trivial:bs12": {
        "kind": "hnn",
        "base": {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"multiplier": 2}},
        "theta": [],
        "stable_letter": "u",
    },
    # the trivial group as a base or a factor, and the free group of rank 1
    "trivial:trivial": {"kind": "hnn", "base": TRIVIAL, "theta": []},
    "trivial:z4*1": {"kind": "amalgam", "left": Z4, "right": TRIVIAL},
    "trivial:1*1": {"kind": "amalgam", "left": TRIVIAL, "right": TRIVIAL},
    "free:1": {"kind": "free", "rank": 1},
}
LISTER_SOURCES = sorted(name for name, source in GROUP_SOURCES.items() if _listers_in(source))
# which HNN extensions of a source list their layers, outermost first: those
# over trivial subgroups; every other HNN extension searches them
LISTED_HNN = {
    "builtin:f2-hnn": [True],
    "config:hnn": [True],
    "trivial:z4": [True],
    "trivial:z2": [True],
    "trivial:hnn": [True, True],
    "trivial:bs12": [True, False],
    "trivial:trivial": [True],
}


@pytest.mark.parametrize("name", LISTER_SOURCES)
def test_amalgam_spheres_listed_in_closed_form_match_generic_bfs(name):
    """Listed spheres match the search.  A free group, an amalgam whose
    length adds over syllables and an HNN extension over trivial subgroups
    list their spheres through one lister: word for word as the
    breadth-first search orders them, with its lengths."""
    listed = _listers_in(GROUP_SOURCES[name])
    for fast, slow in zip(listed, _listers_in(GROUP_SOURCES[name])):
        slow._next_layer = functools.partial(GroupContext._next_layer, slow)
        for r in range(6):
            assert [x.word for x in fast.sphere(r)] == [x.word for x in slow.sphere(r)]
            for x in fast.sphere(r):
                assert fast.word_length(x) == slow._dist[x.word] == r
        # a listed ball fills the run memo and never the depth table; a searched one the reverse
        lists = isinstance(fast, FreeGroupContext) or fast._length_adds
        assert lists == (len(fast._dist) == 1) == (len(fast._runs) > 1)
    hnns = [ctx for ctx in listed if isinstance(ctx, HnnContext)]
    assert [ctx._length_adds for ctx in hnns] == LISTED_HNN.get(name, [False] * len(hnns))


def _below(ctx):
    """The groups whose spheres a listed layer reads."""
    if isinstance(ctx, FreeGroupContext):
        return ()
    return (ctx.base,) if isinstance(ctx, HnnContext) else ctx.factors


def _f2():
    return FreeGroupContext(2)


@pytest.mark.parametrize("build", [amalgam_z4_z6, free_product_of_two_integers, free_group_as_hnn, _f2])
def test_closed_form_amalgam_refuses_a_layer_past_the_cap_unbuilt(monkeypatch, build):
    from translation_lab import groups

    ctx, size = build(), len(build().ball(3))
    ctx.ball(2)
    for group in _below(ctx):
        group.ball(3)

    def refuse(*args):
        raise AssertionError("a listed layer built an element of a refused layer")

    monkeypatch.setenv(BALL_CAP_ENV, str(size - 1))
    with monkeypatch.context() as m:
        m.setattr(groups, "GroupElement", refuse)
        with pytest.raises(BallCapExceeded, match=f"ball of radius 3 needs more than {size - 1} elements"):
            ctx.ball(3)
    assert len(ctx._layers) == len(ctx._runs) == 3 and len(ctx._dist) == 1
    monkeypatch.setenv(BALL_CAP_ENV, str(size))
    assert [x.word for x in ctx.ball(3)] == [x.word for x in build().ball(3)]


@pytest.mark.parametrize(
    "build,radius", [(amalgam_z4_z6, 18), (free_product_of_two_integers, 7), (free_group_as_hnn, 8), (_f2, 8)]
)
def test_a_listed_amalgam_layer_stays_under_400_bytes_per_element(build, radius):
    """Traced peak of one listed layer per new element: z4*z6 layer 18 peaked at
    about 220 bytes listed and 2,600 searched; z*z layer 7 at 200 and 900; F2
    as an HNN extension, layer 8, at 200 and 920; F2 itself, layer 8, at 180."""
    ctx = build()
    ctx.ball(radius - 1)
    for group in _below(ctx):
        group.ball(radius)
    tracemalloc.start()
    try:
        size = len(ctx.sphere(radius))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 2000 and peak / size < 400


def test_group_element_equality_and_hashing():
    f, g = FreeGroupContext(2), FreeGroupContext(2)
    x, y = f.parse("aB"), f.multiply(f.generator(1), f.generator(2, -1))
    assert x is not y and x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != f.parse("Ba")
    assert x != g.parse("aB")
    assert x != (f, x.word) and (f, x.word) != x
    assert not hasattr(x, "__dict__")


# -- free abelian ------------------------------------------------------------


def test_integers_ball_order(z):
    assert [x.word[0] for x in z.ball(2)] == [0, -1, 1, -2, 2]


def test_integers_arithmetic(z):
    assert z.word_length(z.integer(-4)) == 4
    assert z.multiply(z.integer(3), z.integer(-5)).word == (-2,)
    assert z.invert(z.integer(3)).word == (-3,)


def test_lattice_ball_size(z2):
    # |{v : |v|_1 <= r}| for rank 2 is 2r^2 + 2r + 1
    assert len(z2.ball(3)) == 2 * 9 + 2 * 3 + 1


# -- finite groups -----------------------------------------------------------


def test_cyclic_table_and_lengths():
    c4 = cyclic_group(4)
    assert c4.word_length(c4.element(3)) == 1  # 3 = -1 is a single letter
    assert c4.word_length(c4.element(2)) == 1  # generators default to all nontrivial
    assert c4.multiply(c4.element(3), c4.element(2)).word == (1,)


def test_bad_table_rejected():
    # break associativity: 1*1 = 0 but keep the rest cyclic-like
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(ValueError):
        FiniteGroupContext(table)


def test_nongenerating_set_rejected():
    c4 = cyclic_group(4)
    with pytest.raises(ValueError):
        FiniteGroupContext(c4.table, generators=[2])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="must be distinct"):
        FreeGroupContext(2, ["a", "a"])
    with pytest.raises(ValueError, match="must be distinct"):
        FiniteGroupContext(cyclic_group(2).table, ["e", "e"])


def test_only_z_names_its_generator():
    """A higher rank prints vectors, so it refuses the names it would not print."""
    for rank, names in ((2, ["x", "x"]), (2, ["x", "y"]), (1, ["x", "y"])):
        with pytest.raises(ValueError, match="only Z takes a generator name"):
            FreeAbelianContext(rank, names)
    z = FreeAbelianContext(1, ["x"])
    assert [z.format(x) for x in z.ball(2)] == ["e", "x^-1", "x", "x^-2", "x^2"]


# -- amalgams ---------------------------------------------------------------


def test_amalgam_shared_letter_cancellation(amalgam):
    # the glued involution written in either factor multiplies to the identity
    g2 = amalgam.from_letters([(0, amalgam.factors[0].element(2))])
    s3 = amalgam.from_letters([(1, amalgam.factors[1].element(3))])
    assert g2.word == s3.word
    assert amalgam.multiply(g2, s3).word == amalgam.identity().word


def test_amalgam_transversal_splits_exactly(amalgam, s3_z4):
    # every factor element factors as representative times subgroup part; the
    # split and its tables work on factor words (Z/6 and Z/9 glued along Z/3,
    # where a subgroup part is not its own inverse)
    z6, z9 = cyclic_group(6), cyclic_group(9)
    z6_z9 = AmalgamContext(z6, z9, [(z6.element(2), z9.element(3)), (z6.element(4), z9.element(6))])
    for ctx in (amalgam, s3_z4, z6_z9):
        for side in (0, 1):
            factor = ctx.factors[side]
            table = ctx._split_tables[side]
            assert len(table) == factor.order
            for x in factor.all_elements():
                rep, h = ctx._split(side, x.word)
                recombined = factor.multiply(GroupElement(factor, rep), ctx.pairs[h][side])
                assert recombined.word == x.word
                # the representative is the least member of its coset
                coset = [
                    factor.multiply(x, ctx.pairs[i][side])
                    for i in range(ctx.subgroup_size())
                ]
                assert rep == min(coset, key=factor.sort_key).word
                # the precomputed table agrees with the candidate loop
                loop_rep, loop_h = ctx._split_search(side, x.word)
                assert table[x.word] == (loop_rep, loop_h)


def test_amalgam_parse_reads_its_format(amalgam):
    """Every element of the radius-4 ball, h[..] parts included, parses back from its format."""
    ball = amalgam.ball(4)
    assert amalgam.format(amalgam.h_element(1)) == "h[2]"
    assert amalgam.parse("h[2]") == amalgam.h_element(1)
    assert sum("h[" in amalgam.format(x) for x in ball) > 1
    for x in ball:
        assert amalgam.parse(amalgam.format(x)) == x


def test_amalgam_word_length_by_breadth_first_search():
    """Z/4 * Z/6 glued along Z/2, Z/6 generated by 1 alone: S:2 is one syllable of
    length 2, so word lengths come from the breadth-first layers, grown on demand."""
    z = {n: {"kind": "finite", "table": cyclic_group(n).table, "names": [str(i) for i in range(n)]} for n in (4, 6)}
    config = {"kind": "amalgam", "left": z[4], "right": {**z[6], "generators": [1]}, "pairs": [["2", "3"]]}
    layered, fresh = load_group(config), load_group(config)
    assert not fresh._length_adds
    lengths = {}
    for r in range(5):
        for x in layered.sphere(r):
            lengths[x.word] = fresh.word_length(GroupElement(fresh, x.word))
            assert lengths[x.word] == r
    assert lengths[fresh.parse("S:2").word] == 2


def test_an_hnn_factor_over_trivial_subgroups_grows_no_ball():
    """The coset split orders by the HNN factor's closed-form length, so the
    amalgam's arithmetic builds none of the factor's layers."""
    free_hnn = {"kind": "hnn", "base": Z4, "theta": []}
    ctx = load_group({"kind": "amalgam", "left": free_hnn, "right": Z6, "pairs": [["2", "3"]]})
    x = ctx.parse("G:t*1*t*1*t*1")
    square = ctx.multiply(x, x)
    assert ctx.format(square) == "G:t*1*t*1*t*1*t*1*t*1*t*1"
    assert ctx.parse(ctx.format(square)) == square
    assert ctx.factors[0]._layers == [] and ctx._layers == []


def test_a_coset_of_the_trivial_hnn_subgroup_grows_no_ball_of_the_base(monkeypatch):
    """A coset of the trivial subgroup is one word, so its split needs no length in the base:
    over BS(1,2), squaring ``u*a^1024*t`` grew the base's ball past a cap of 100,000 elements."""
    bs12 = {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1, "generators": ["a"]}, "theta": {"multiplier": 2}}
    ctx = load_group({"kind": "hnn", "base": bs12, "theta": [], "stable_letter": "u"})
    monkeypatch.setenv(BALL_CAP_ENV, "100000")
    x = ctx.parse("u*a^1024*t")
    assert ctx.format(ctx.multiply(x, x)) == "u*a^1024*t*u*a^1024*t"
    assert ctx.base._layers == []


def test_amalgam_cross_factor_absorption(amalgam):
    g3 = amalgam.from_letters([(0, amalgam.factors[0].element(3))])
    s3 = amalgam.from_letters([(1, amalgam.factors[1].element(3))])
    product = amalgam.multiply(g3, s3)
    g1 = amalgam.from_letters([(0, amalgam.factors[0].element(1))])
    assert product.word == g1.word


def _amalgam_rewrites(ctx, letters):
    """Single-relation rewrites of a raw letter word; each preserves the element."""
    out = []
    factors = ctx.factors
    # merge two adjacent same-factor letters
    for i in range(len(letters) - 1):
        (s1, x1), (s2, x2) = letters[i], letters[i + 1]
        if s1 == s2:
            merged = factors[s1].multiply(x1, x2)
            out.append(letters[:i] + [(s1, merged)] + letters[i + 2 :])
    # rewrite a glued-subgroup letter into the other factor
    for i, (s, x) in enumerate(letters):
        h = ctx._h_index[s].get(x.word)
        if h is not None:
            other = 1 - s
            out.append(letters[:i] + [(other, ctx.pairs[h][other])] + letters[i + 1 :])
    # insert a cancelling pair
    for s in (0, 1):
        for g in factors[s].generator_elements()[:2]:
            out.append(letters + [(s, g), (s, factors[s].invert(g))])
    return out


def test_amalgam_normal_form_rewrite_invariance(amalgam):
    r = rng(7)
    factors = amalgam.factors
    pool = [
        (side, x)
        for side in (0, 1)
        for x in factors[side].all_elements()
    ]
    for _ in range(200):
        letters = [pool[r.randrange(len(pool))] for _ in range(r.randrange(5))]
        base = amalgam.from_letters(letters)
        for rewritten in _amalgam_rewrites(amalgam, list(letters)):
            assert amalgam.from_letters(rewritten).word == base.word


def test_amalgam_syllable_count_matches_reduction(amalgam):
    r = rng(11)
    factors = amalgam.factors
    pool = [(s, x) for s in (0, 1) for x in factors[s].all_elements()]
    for _ in range(100):
        letters = [pool[r.randrange(len(pool))] for _ in range(4)]
        x = amalgam.from_letters(letters)
        # reduce by hand: drop identities, merge neighbours, absorb subgroup letters
        reduced = []
        for side, val in letters:
            reduced.append((side, val))
            while len(reduced) >= 2:
                s2, v2 = reduced[-1]
                s1, v1 = reduced[-2]
                h2 = amalgam._h_index[s2].get(v2.word)
                if v2.word == factors[s2].identity().word or h2 is not None:
                    if h2 is not None and v2.word != factors[s2].identity().word:
                        reduced[-2:] = [(s1, factors[s1].multiply(v1, amalgam.pairs[h2][s1]))]
                    else:
                        reduced.pop()
                    continue
                if s1 == s2:
                    reduced[-2:] = [(s1, factors[s1].multiply(v1, v2))]
                    continue
                break
        while reduced:
            s1, v1 = reduced[0]
            if v1.word == factors[s1].identity().word:
                reduced.pop(0)
            else:
                break
        expected = sum(
            1
            for s, v in reduced
            if amalgam._h_index[s].get(v.word) is None
        )
        assert len(x.word[0]) == expected


# -- HNN extensions ----------------------------------------------------------


def test_hnn_stable_letter_cancellation(bs12):
    t = bs12.stable_letter(1)
    assert bs12.multiply(t, bs12.stable_letter(-1)).word == bs12.identity().word


def test_canonical_powers_are_built_directly(f2, bs12):
    """``generator`` and ``stable_letter`` build a power's word at once; ``from_letters`` reduces it."""
    f2_hnn = free_group_as_hnn()
    for p in range(-3, 4):
        assert f2.generator(2, p) == f2.from_letters([2 if p > 0 else -2] * abs(p))
        for hnn in (bs12, f2_hnn):
            assert hnn.stable_letter(p) == hnn.from_letters([("t", 1 if p > 0 else -1)] * abs(p))


def test_integer_subgroup_steps_are_nonzero(z):
    """The trivial subgroup is ``FiniteHnnSubgroup(base, [])``; no zero step spells it."""
    for steps in ((0, 2), (2, 0), (0, 0)):
        with pytest.raises(ValueError, match="steps must be nonzero"):
            IntegerScaledSubgroup(z, *steps)


def test_hnn_twist_relation(bs12):
    t = bs12.stable_letter(1)
    a = bs12.from_base(bs12.base.integer(1))
    conj = bs12.multiply(bs12.multiply(t, a), bs12.stable_letter(-1))
    assert conj.word == bs12.from_base(bs12.base.integer(2)).word


def test_hnn_reverse_pinch(bs12):
    lhs = bs12.parse("t^-1*a^2*t")
    assert lhs.word == bs12.from_base(bs12.base.integer(1)).word


def test_hnn_inverse_roundtrip(bs12):
    r = rng(3)
    ball = bs12.ball(4)
    for _ in range(300):
        x = ball[r.randrange(len(ball))]
        assert bs12.multiply(x, bs12.invert(x)).word == bs12.identity().word
        assert bs12.invert(bs12.invert(x)).word == x.word


def test_hnn_pinch_rewrite_oracle(bs12):
    # inserting t h t^-1 equals multiplying by the twisted image
    r = rng(5)
    ball = bs12.ball(3)
    t = bs12.stable_letter(1)
    t_inv = bs12.stable_letter(-1)
    for _ in range(100):
        x = ball[r.randrange(len(ball))]
        h = bs12.from_base(bs12.base.integer(r.randrange(-3, 4)))
        pinched = bs12.multiply(bs12.multiply(bs12.multiply(x, t), h), t_inv)
        twisted = bs12.multiply(x, bs12.from_base(GroupElement(bs12.base, bs12.data.image(1, h.word[0]))))
        assert pinched.word == twisted.word


def test_free_group_as_hnn_is_free(f2_hnn):
    # over the trivial subgroup no pinch ever simplifies: spheres match rank 2
    assert len(f2_hnn.ball(3)) == 1 + 4 + 12 + 36


# -- shared metric machinery --------------------------------------------------


@pytest.mark.parametrize("ctx_name", ["z", "z2", "f2", "amalgam", "zz", "bs12"])
def test_word_length_matches_bfs(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    oracle = bfs_distances(ctx, 4)
    for x in ctx.ball(4):
        assert ctx.word_length(x) == oracle[x.word]


@pytest.mark.parametrize("ctx_name", ["z", "z2", "f2", "amalgam", "zz", "bs12"])
def test_ball_nesting_is_prefix(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    small = ctx.ball(2)
    large = ctx.ball(3)
    assert [x.word for x in large[: len(small)]] == [x.word for x in small]


@pytest.mark.parametrize("ctx_name", ["z", "z2", "f2", "amalgam", "zz", "bs12"])
def test_ball_has_no_duplicates(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    ball = ctx.ball(3)
    assert len({x.word for x in ball}) == len(ball)


@pytest.mark.parametrize("ctx_name", ["z", "z2", "f2", "amalgam", "zz", "bs12"])
def test_associativity_fuzz(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    ball = ctx.ball(4)
    r = rng(13)
    for _ in range(10_000):
        x, y, w = (ball[r.randrange(len(ball))] for _ in range(3))
        left = ctx.multiply(ctx.multiply(x, y), w)
        right = ctx.multiply(x, ctx.multiply(y, w))
        assert left.word == right.word


def distance(ctx, x, y):
    return ctx.word_length(ctx.multiply(ctx.invert(x), y))


@pytest.mark.parametrize("ctx_name", ["z", "f2", "amalgam", "bs12"])
def test_metric_left_invariance(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    ball = ctx.ball(3)
    r = rng(17)
    for _ in range(200):
        g, x, y = (ball[r.randrange(len(ball))] for _ in range(3))
        assert distance(ctx, x, y) == distance(ctx, ctx.multiply(g, x), ctx.multiply(g, y))


def test_inversion_preserves_length(f2, bs12):
    for ctx in (f2, bs12):
        for x in ctx.ball(3):
            assert ctx.word_length(x) == ctx.word_length(ctx.invert(x))


def test_ball_cap(monkeypatch):
    monkeypatch.setenv(BALL_CAP_ENV, "10")
    ctx = FreeGroupContext(2)
    with pytest.raises(BallCapExceeded, match="ball of radius 2 needs more than 10 elements"):
        ctx.ball(3)
    assert len(ctx.ball(1)) == 5


def test_ball_cap_raises_before_the_layer_is_built(monkeypatch):
    from translation_lab import groups

    monkeypatch.setenv(BALL_CAP_ENV, "10")
    fast, slow = FreeGroupContext(2), FreeGroupContext(2)
    slow._next_layer = functools.partial(GroupContext._next_layer, slow)
    for ctx in (fast, slow):
        ctx.ball(1)
    multiplies = []  # calls of the word kernel, which the breadth-first search uses
    slow_mul = slow._mul
    slow._mul = lambda a, b: multiplies.append(1) or slow_mul(a, b)

    def refuse(*args):
        raise AssertionError("the free group built an element of a refused layer")

    message = "ball of radius 2 needs more than 10 elements"
    with monkeypatch.context() as m:
        m.setattr(groups, "GroupElement", refuse)
        with pytest.raises(BallCapExceeded, match=message):
            fast.ball(2)
    with pytest.raises(BallCapExceeded, match=message):
        slow.ball(2)
    assert 0 < len(multiplies) < 16  # the search stopped before the whole layer of 12
    for ctx in (fast, slow):
        assert len(ctx._layers) == 2 and sum(map(len, ctx._layers)) == 5
    assert len(slow._dist) == 5


# contexts that grow their balls layer by layer, built fresh per example (the
# amalgams z4*z6 and z*z and F2 as an HNN extension list their layers; z2 and
# BS(1,2) search them)
BFS_CONTEXTS = {
    "z2": lambda: FreeAbelianContext(2),
    "z4*z6": amalgam_z4_z6,
    "z*z": free_product_of_two_integers,
    "bs12": lambda: baumslag_solitar(1, 2),
    "f2-as-hnn": free_group_as_hnn,
}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(BFS_CONTEXTS)), radius=st.integers(0, 3), data=st.data())
def test_refused_layer_leaves_the_depth_table_and_a_larger_cap_grows_the_same_ball(name, radius, data):
    """A layer over the cap raises and leaves ``_dist`` and ``word_length`` as they were."""
    build = BFS_CONTEXTS[name]
    ref = build()
    inner_size, layer = len(ref.ball(radius)), ref.sphere(radius + 1)
    want = [x.word for x in ref.ball(radius + 2)]
    cap = data.draw(st.integers(inner_size, inner_size + len(layer) - 1))
    ctx = build()
    inner = ctx.ball(radius)
    dist, lengths = dict(ctx._dist), [ctx.word_length(x) for x in inner]
    outside = GroupElement(ctx, layer[-1].word)
    with pytest.MonkeyPatch.context() as m:
        m.setenv(BALL_CAP_ENV, str(cap))
        with pytest.raises(BallCapExceeded, match=f"ball of radius {radius + 1} needs more than {cap}"):
            ctx.ball(radius + 1)
        assert ctx._dist == dist
        assert [ctx.word_length(x) for x in inner] == lengths
        try:  # a closed-form length needs no ball; the breadth-first one is refused again
            assert ctx.word_length(outside) == radius + 1
        except BallCapExceeded:
            assert isinstance(ctx, HnnContext) and not ctx._length_adds
        assert ctx._dist == dist and len(ctx._layers) == radius + 1
    with pytest.MonkeyPatch.context() as m:
        m.setenv(BALL_CAP_ENV, str(len(want)))
        assert [x.word for x in ctx.ball(radius + 2)] == want
    assert ctx.word_length(outside) == radius + 1


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_bad_ball_cap_is_an_error(monkeypatch, raw):
    from translation_lab.groups import BallCapInvalid

    monkeypatch.setenv(BALL_CAP_ENV, raw)
    with pytest.raises(BallCapInvalid):
        FreeGroupContext(2).ball(1)


def test_malformed_letters(f2, z):
    with pytest.raises(MalformedWord):
        f2.from_letters([5])
    with pytest.raises(MalformedWord):
        f2.parse("ax")
    with pytest.raises(MalformedWord):
        z.multiply(z.integer(1), f2.identity())
    with pytest.raises(MalformedWord):
        z.parse("zz")


@pytest.mark.parametrize("name", ["z", "f2", "c4", "z4*z6", "bs12"])
def test_arithmetic_refuses_an_element_of_another_context(name):
    # a second context of the same kind has the same words, but not the same elements
    make = (lambda: cyclic_group(4)) if name == "c4" else (lambda: load_group(name))
    ctx, other = make(), make()
    x, stranger = ctx.generator_elements()[0], other.generator_elements()[0]
    assert x.word == stranger.word
    for call in (
        lambda: ctx.multiply(x, stranger),
        lambda: ctx.multiply(stranger, x),
        lambda: ctx.invert(stranger),
    ):
        with pytest.raises(MalformedWord, match="different group context"):
            call()
    assert ctx.multiply(x, ctx.invert(x)).word == ctx.identity().word


def _context_classes(cls=GroupContext):
    return [cls] + [c for sub in cls.__subclasses__() for c in _context_classes(sub)]


def test_multiply_and_invert_are_written_once():
    # every context supplies word hooks; the checked entry points that take
    # elements live in GroupContext alone
    subclasses = [cls for cls in _context_classes() if cls is not GroupContext]
    assert {cls.kind for cls in subclasses} >= {"free", "free-abelian", "finite", "amalgam", "hnn"}
    for cls in subclasses:
        assert not {"multiply", "invert", "word_length", "sort_key", "format"} & set(vars(cls)), cls.__name__
        for hook in ("_mul", "_inv", "_format", "structural_key"):
            assert getattr(cls, hook) is not getattr(GroupContext, hook), (cls.__name__, hook)


@pytest.mark.parametrize(
    "source",
    [*BUILTIN_GROUPS, *LOADER_CONFIGS.values(), *(str(INPUTS / name) for name in INPUT_GROUPS)],
    ids=[*BUILTIN_GROUPS, *(f"config:{kind}" for kind in LOADER_CONFIGS), *INPUT_GROUPS],
)
def test_a_context_is_freed_as_soon_as_it_is_dropped(source):
    """No context is in a reference cycle: its layers hold words, not elements
    that point back at it, and a free product's hooks close over its factors.
    So with the collector off, as ``cli.dispatch`` runs, the last reference
    going frees it at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = load_group(source)
        assert len(ctx.ball(3)) > 1
        alive = weakref.ref(ctx)
        del ctx
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
