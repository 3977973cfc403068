"""Property tests for the free-group and HNN word-arithmetic kernels.

``multiply`` works only at the seam between its operands: the free group
cancels inverse letters there, and the HNN extension removes pinches there
and runs the transversal pass over the left operand's surviving blocks.  The
reference is the letter-by-letter construction: ``from_letters`` applied to
the letters of both canonical forms.  The HNN contexts cover an integer base
with an injective twist (BS(1,2)), trivial associated subgroups (F2 as an
HNN extension), subgroups 3Z -> 5Z of Z, and a finite base (the Klein
four-group, with g1 sent to g2).  A left operand with no stable letter, the
kernel's early answer, is checked on its own, on BS(1,3) as well.  The
associated-subgroup data, indexed by the stable letter's sign, is checked on
its own against its laws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translation_lab import FiniteGroupContext, FreeGroupContext, baumslag_solitar
from translation_lab.groups import GroupElement

KERNEL_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


@pytest.fixture(scope="module", params=["f2", "bs12", "f2_hnn", "hnn_3z_5z", "hnn_klein"])
def ctx(request):
    return request.getfixturevalue(request.param)


def _base_elements(base):
    if isinstance(base, FiniteGroupContext):
        return st.integers(0, base.order - 1).map(base.element)
    return st.integers(-4, 4).map(base.integer)


def _elements(ctx):
    """Canonical elements built from random raw letter words (identities included)."""
    if isinstance(ctx, FreeGroupContext):
        letter = st.sampled_from([s * i for i in range(1, ctx.rank + 1) for s in (1, -1)])
    else:
        letter = st.one_of(
            st.tuples(st.just("t"), st.sampled_from([1, -1])),
            st.tuples(st.just("g"), _base_elements(ctx.base)),
        )
    return st.lists(letter, max_size=10).map(ctx.from_letters)


def _letters_of(ctx, x):
    """The letters of an HNN element's canonical form: its head, then each stable letter and block."""
    head, blocks = x.word
    out = [("g", GroupElement(ctx.base, head))]
    for sign, w in blocks:
        out.append(("t", sign))
        out.append(("g", GroupElement(ctx.base, w)))
    return out


def _reference_product(ctx, x, y):
    if isinstance(ctx, FreeGroupContext):
        return ctx.from_letters(x.word + y.word)
    return ctx.from_letters(_letters_of(ctx, x) + _letters_of(ctx, y))


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_matches_letter_by_letter(ctx, data):
    x = data.draw(_elements(ctx))
    y = data.draw(_elements(ctx))
    assert ctx.multiply(x, y).word == _reference_product(ctx, x, y).word


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_is_associative(ctx, data):
    x, y, z = (data.draw(_elements(ctx)) for _ in range(3))
    assert ctx.multiply(ctx.multiply(x, y), z).word == ctx.multiply(x, ctx.multiply(y, z)).word


@pytest.fixture(scope="module", params=["bs12", "f2_hnn", "bs13", "hnn_klein"])
def hnn_ctx(request):
    if request.param == "bs13":
        return baumslag_solitar(1, 3)
    return request.getfixturevalue(request.param)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_head_only_left_operand_matches_letter_by_letter(hnn_ctx, data):
    ctx = hnn_ctx
    x = ctx.from_base(data.draw(_base_elements(ctx.base)))
    y = data.draw(_elements(ctx))
    assert not x.word[1]
    assert ctx._mul(x.word, y.word) == _reference_product(ctx, x, y).word


def _reference_inverse(ctx, x):
    """The letters of x in reverse order, each inverted on its own."""
    if isinstance(ctx, FreeGroupContext):
        return ctx.from_letters([-l for l in reversed(x.word)])
    return ctx.from_letters(
        [("t", -v) if tag == "t" else ("g", ctx.base.invert(v)) for tag, v in reversed(_letters_of(ctx, x))]
    )


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_by_inverse_is_identity(ctx, data):
    x = data.draw(_elements(ctx))
    assert ctx.invert(x).word == _reference_inverse(ctx, x).word
    e = ctx.identity().word
    assert ctx.multiply(x, ctx.invert(x)).word == e
    assert ctx.multiply(ctx.invert(x), x).word == e


@pytest.mark.parametrize("name", ["bs12", "f2_hnn", "hnn_3z_5z", "hnn_z4_negation", "hnn_klein"])
def test_subgroup_data_laws(name, request):
    # sign 1 is H and sign -1 is K; image(1, .) maps H onto K and image(-1, .)
    # back; the data works on base words
    ctx = request.getfixturevalue(name)
    data, base = ctx.data, ctx.base
    e = base.identity()
    for sign in (1, -1):
        for g in base.ball(6):
            h, rep = data.split(sign, g.word)
            assert data.member(sign, h)
            assert base.multiply(GroupElement(base, h), GroupElement(base, rep)).word == g.word
            again = data.split(sign, rep)
            assert again == (e.word, rep)
            if data.member(sign, g.word):
                image = data.image(sign, g.word)
                assert data.member(-sign, image)
                assert data.image(-sign, image) == g.word
