"""Membership predicates against brute-force definitions; ball order, word length and report form.

Each subset kind is checked against a definition that does not read the
canonical form the way its predicate does:

* tree half-spaces, through reduced expressions (the Bass-Serre picture): an
  amalgam element built from a reduced alternating sequence of syllables lies
  in the G half-space exactly when the sequence starts in G, or is empty (the
  glued subgroup lies in both); an HNN element lies in B exactly when it has
  no reduced expression starting with t^-1 (by Britton's lemma every reduced
  expression has the same stable-letter signs, and its head is determined up
  to the subgroup H), and tB is the translate t B;
* intervals and congruence classes of Z^n, by the coordinate sum of a walk;
* the positive cone, by a scan over every positive word;
* coset-union, by its scan over the translates a^-k x with |k| <= |x| + 1;
* the universal sets, by their bit-string definitions.

Every membership read also checks ``contains(x) == bool(predicate(x.word))``.
"""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translation_lab import (
    FiniteGroupContext,
    congruence_class,
    coordinate_halfspace,
    cyclic_translates,
    make_tree_halfspace,
    natural_numbers,
    positive_cone,
)
from translation_lab.configs import BUILTIN_GROUPS, GROUP_KEYS, load_group
from translation_lab.groups import AmalgamContext, GroupElement, HnnContext
from translation_lab.universal import universal_b_words_spec, universal_z_spec

ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _member(spec, x) -> bool:
    """``spec.contains(x)``, checked against the predicate on the canonical word."""
    inside = spec.contains(x)
    assert inside == bool(spec.predicate(x.word)), (spec.name, x.word)
    return inside


# -- tree half-spaces -----------------------------------------------------------


@pytest.fixture(scope="module", params=["amalgam", "s3_z4", "zz"])
def amalgam_ctx(request):
    return request.getfixturevalue(request.param)


def _off_subgroup(f, glued):
    """Factor elements outside the glued subgroup: a finite factor's all, else -3..3."""
    pool = f.all_elements() if isinstance(f, FiniteGroupContext) else [f.integer(n) for n in range(-3, 4)]
    return [x for x in pool if x.word not in glued]


@ORACLE_SETTINGS
@given(data=st.data())
def test_amalgam_halfspaces_follow_the_first_syllable_of_a_reduced_expression(amalgam_ctx, data):
    ctx = amalgam_ctx
    halves = {0: make_tree_halfspace(ctx, "G"), 1: make_tree_halfspace(ctx, "S")}
    pools = [_off_subgroup(f, {pair[side].word for pair in ctx.pairs}) for side, f in enumerate(ctx.factors)]
    first = data.draw(st.sampled_from([0, 1]))
    n = data.draw(st.integers(0, 5))
    letters = [(side, data.draw(st.sampled_from(pools[side]))) for side in itertools.islice(itertools.cycle((first, 1 - first)), n)]
    h = data.draw(st.sampled_from(ctx.pairs))[0]
    x = ctx.from_letters(letters + [(0, h)])
    for side, half in halves.items():
        assert _member(half, x) == (n == 0 or side == first)


@pytest.fixture(scope="module", params=["bs12", "f2_hnn", "hnn_3z_5z", "hnn_klein", "hnn_z4_negation"])
def hnn_ctx(request):
    return request.getfixturevalue(request.param)


def _base_pool(base):
    return base.all_elements() if isinstance(base, FiniteGroupContext) else [base.integer(n) for n in range(-4, 5)]


@ORACLE_SETTINGS
@given(data=st.data())
def test_hnn_halfspaces_follow_reduced_expressions(hnn_ctx, data):
    ctx = hnn_ctx
    member = ctx.data.member
    pool = _base_pool(ctx.base)
    head = data.draw(st.sampled_from(pool))
    letters = [("g", head)]
    signs = []
    for _ in range(data.draw(st.integers(0, 4))):
        sign = data.draw(st.sampled_from([1, -1]))
        # t^e g t^-e with g in the sign's subgroup is a pinch: the expression must avoid it
        if signs and sign == -signs[-1] and member(signs[-1], letters[-1][1].word):
            continue
        signs.append(sign)
        letters += [("t", sign), ("g", data.draw(st.sampled_from(pool)))]
    x = ctx.from_letters(letters)
    b_spec = make_tree_halfspace(ctx, "B")
    tb_spec = make_tree_halfspace(ctx, "tB")
    # x = h t^-1 ... with h in H is t^-1 (t h t^-1) ...: a reduced expression starting with t^-1
    starts_with_t_inverse = bool(signs) and signs[0] == -1 and member(1, head.word)
    assert _member(b_spec, x) == (not starts_with_t_inverse)
    assert _member(tb_spec, x) == _member(b_spec, ctx.multiply(ctx.stable_letter(-1), x))


# -- coordinate subsets of Z^n ----------------------------------------------------


def _walk(ctx, steps):
    """The product of unit steps (coordinate, sign), and its coordinate sums."""
    gens = {}
    for g in ctx.generator_elements():
        coord = next(i for i, a in enumerate(g.word) if a)
        gens[coord, g.word[coord]] = g
    x = ctx.identity()
    sums = [0] * ctx.rank
    for coord, sign in steps:
        x = ctx.multiply(x, gens[coord, sign])
        sums[coord] += sign
    return x, sums


def _steps(rank):
    return st.lists(st.tuples(st.integers(0, rank - 1), st.sampled_from([1, -1])), max_size=12)


@ORACLE_SETTINGS
@given(data=st.data())
def test_intervals_and_congruences_read_the_coordinate_sum(z, z2, data):
    ctx = data.draw(st.sampled_from([z, z2]))
    x, sums = _walk(ctx, data.draw(_steps(ctx.rank)))
    coord = data.draw(st.integers(0, ctx.rank - 1))
    lo = data.draw(st.integers(-4, 4))
    assert _member(coordinate_halfspace(ctx, coord, lo), x) == (sums[coord] >= lo)
    modulus = data.draw(st.integers(2, 5))
    residue = data.draw(st.integers(-6, 6))
    assert _member(congruence_class(ctx, modulus, residue, coord), x) == ((sums[coord] - residue) % modulus == 0)
    if ctx.rank == 1:
        assert _member(natural_numbers(ctx), x) == (sums[0] >= 0)


# -- the positive cone and its translate union --------------------------------------

MAX_LETTERS = 8


@pytest.fixture(scope="module")
def positive_words(f2):
    """The canonical words of every positive word with at most MAX_LETTERS letters."""
    return {
        f2.from_letters(word).word
        for n in range(MAX_LETTERS + 1)
        for word in itertools.product([1, 2], repeat=n)
    }


def _free_elements(f2):
    return st.lists(st.sampled_from([1, -1, 2, -2]), max_size=MAX_LETTERS).map(f2.from_letters)


@ORACLE_SETTINGS
@given(data=st.data())
def test_positive_cone_is_the_set_of_positive_words(f2, positive_words, data):
    x = data.draw(_free_elements(f2))
    assert _member(positive_cone(f2), x) == (x.word in positive_words)


@ORACLE_SETTINGS
@given(data=st.data())
def test_coset_union_matches_its_scan_over_translates(f2, data):
    cone = positive_cone(f2)
    translator = data.draw(st.sampled_from(["a", "A", "b", "B"]))
    g = f2.parse(translator)
    union = cyclic_translates(cone, g)
    x = data.draw(_free_elements(f2))
    bound = len(x.word) + 1
    scan = any(
        cone.contains(f2.multiply(f2.from_letters([-g.word[0]] * k if k > 0 else [g.word[0]] * -k), x))
        for k in range(-bound, bound + 1)
    )
    assert _member(union, x) == scan


# -- the universal sets ---------------------------------------------------------------


def test_universal_z_is_the_concatenation_of_all_binary_strings(z):
    bits = "".join(format(i, f"0{n}b") for n in range(1, 8) for i in range(1 << n))
    spec = universal_z_spec(z)
    for n in range(-20, len(bits)):
        assert _member(spec, z.integer(n)) == (n >= 0 and bits[n] == "1"), n


@pytest.mark.parametrize("max_radius,start,min_step", [(0, 2, 4), (1, 2, 4), (1, 3, 9)])
def test_placed_universal_words_are_their_patterns_bit_strings(f2, max_radius, start, min_step):
    """The k-th placement of radius r sits at b a^m and holds ball(r)[i] exactly when bit i of its index is 1.

    The exponents are recomputed here: each step is 4 (r + r') but at least
    ``min_step``, for the radii r, r' of neighbouring placements.
    """
    spec = universal_b_words_spec(f2, max_radius, start, min_step)
    b = f2.generator(2)
    centres = []
    expected = {}  # the word of each centre * ball point -> the bit placed there
    exponent, previous = start, None
    for radius in range(max_radius + 1):
        ball = f2.ball(radius)
        for mask in range(1 << len(ball)):
            if previous is not None:
                exponent += max(4 * (previous + radius), min_step)
            previous = radius
            centre = f2.multiply(b, f2.generator(1, exponent))
            centres.append(centre.word)
            for i, u in enumerate(ball):
                expected[f2.multiply(centre, u).word] = bool(mask >> i & 1)
    assert [p.center.word for p in spec.placed.placements] == centres
    for word, bit in expected.items():
        assert _member(spec, GroupElement(f2, word)) == bit
    # away from the placed points nothing is a member
    members = {word for word, bit in expected.items() if bit}
    for x in f2.ball(6):
        assert _member(spec, x) == (x.word in members)


# -- ball order -----------------------------------------------------------------------

Z6 = {"kind": "finite", "table": [[(i + j) % 6 for j in range(6)] for i in range(6)], "names": [str(i) for i in range(6)]}
Z4 = {"kind": "finite", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)], "names": ["0", "1", "2", "3"]}
# HNN(Z/4, 2 -> 2): as an amalgam factor it formats one syllable as several tokens (S:t*1), the first tagged
HNN_Z4 = {
    "kind": "hnn",
    "base": Z4,
    "theta": [["2", "2"]],
}
LOADER_CONFIGS = {
    "free": {"kind": "free", "rank": 3, "generators": ["x", "y", "z"]},
    "free-abelian": {"kind": "free-abelian", "rank": 3},
    "finite": {"kind": "finite", "table": [[(i + j) % 6 for j in range(6)] for i in range(6)], "generators": [2, 3]},
    "amalgam": {
        "kind": "amalgam",
        "left": {"kind": "free-abelian", "rank": 1},
        "right": {"kind": "finite", "table": [[0, 1], [1, 0]], "names": ["e", "s"]},
    },
    "hnn": {
        "kind": "hnn",
        "base": {"kind": "amalgam", "left": {"kind": "free", "rank": 1}, "right": {"kind": "free-abelian", "rank": 1}},
        "theta": [],
    },
    "hnn-steps": {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"h_step": 2, "k_step": 3}},
    "amalgam-hnn-left": {"kind": "amalgam", "left": HNN_Z4, "right": Z6, "pairs": [["2", "3"]]},
    "amalgam-hnn-right": {"kind": "amalgam", "left": Z6, "right": HNN_Z4, "pairs": [["3", "2"]]},
    # an empty tag: a token with no tag after S:1 starts a left syllable (1*S:1*1)
    "amalgam-empty-tag": {"kind": "amalgam", "left": Z4, "right": Z6, "pairs": [["2", "3"]], "tags": ["", "S:"]},
    "amalgam-empty-right-tag": {"kind": "amalgam", "left": Z4, "right": Z6, "pairs": [["2", "3"]], "tags": ["G:", ""]},
}


INPUTS = Path(__file__).parent / "inputs"
INPUT_GROUPS = sorted(p.name for p in INPUTS.glob("*.json") if json.loads(p.read_text())["kind"] in GROUP_KEYS)


@pytest.fixture(
    scope="module",
    params=[f"builtin:{name}" for name in BUILTIN_GROUPS]
    + [f"config:{kind}" for kind in LOADER_CONFIGS]
    + [f"input:{name}" for name in INPUT_GROUPS],
)
def any_ctx(request):
    source, name = request.param.split(":", 1)
    if source == "input":
        return load_group(str(INPUTS / name))
    return load_group(name if source == "builtin" else LOADER_CONFIGS[name])


def _element_structural_key(ctx, x):
    """The composite tie-break read through each factor's or base's ``sort_key`` on elements."""
    if isinstance(ctx, AmalgamContext):
        syllables, h = x.word
        return (len(syllables), tuple((side, ctx.factors[side].sort_key(GroupElement(ctx.factors[side], w))) for side, w in syllables), h)
    base = ctx.base
    head, blocks = x.word
    body = tuple((0 if sign == 1 else 1, base.sort_key(GroupElement(base, w))) for sign, w in blocks)
    return (len(blocks), base.sort_key(GroupElement(base, head)), body)


def test_sort_word_is_sort_key_and_balls_come_sorted(any_ctx):
    """Each closed-form ``_length`` (free, free-abelian, the amalgam's sum and
    syllable count) against the breadth-first layers, then the ball order."""
    ctx = any_ctx
    for r in range(5):
        assert {ctx._length(x.word) for x in ctx.sphere(r)} <= {r}, r
    ball = ctx.ball(4)
    if isinstance(ctx, (AmalgamContext, HnnContext)):
        assert [ctx.structural_key(x.word) for x in ball] == [_element_structural_key(ctx, x) for x in ball]
    for r in range(5):
        assert ctx.ball(r) == sorted(ctx.ball(r), key=ctx.sort_key)


def test_parse_reads_format(any_ctx):
    ctx = any_ctx
    for x in ctx.ball(3):
        assert ctx.parse(ctx.format(x)) == x, x.word
