"""Property tests for the amalgam word-arithmetic kernel.

``multiply`` reduces only at the seam between its operands and takes coset
splits from a table for finite factors.  The reference is the letter-by-letter
construction: ``from_letters`` applied to the letters of both canonical forms.
The contexts cover trivial gluing (``z*z``), cyclic finite factors glued over
Z/2 (``z4*z6``) and a non-abelian factor glued over Z/2 (S3 with Z/4).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translation_lab import FiniteGroupContext
from translation_lab.groups import GroupElement

KERNEL_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


@pytest.fixture(scope="module", params=["zz", "amalgam", "s3_z4"])
def ctx(request):
    return request.getfixturevalue(request.param)


def _factor_elements(f):
    if isinstance(f, FiniteGroupContext):
        return st.integers(0, f.order - 1).map(f.element)
    return st.integers(-3, 3).map(f.integer)


def _elements(ctx):
    """Canonical elements built from random raw letter words (identities included)."""
    letter = st.one_of(
        *(st.tuples(st.just(side), _factor_elements(f)) for side, f in enumerate(ctx.factors))
    )
    return st.lists(letter, max_size=8).map(ctx.from_letters)


def _letters(ctx, x):
    """The syllables of x as factor elements, then its trailing subgroup part."""
    syllables, h = x.word
    out = [(side, GroupElement(ctx.factors[side], w)) for side, w in syllables]
    if h:
        out.append((0, ctx.pairs[h][0]))
    return out


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_matches_letter_by_letter(ctx, data):
    x = data.draw(_elements(ctx))
    y = data.draw(_elements(ctx))
    reference = ctx.from_letters(_letters(ctx, x) + _letters(ctx, y))
    assert ctx.multiply(x, y).word == reference.word


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_is_associative(ctx, data):
    x, y, z = (data.draw(_elements(ctx)) for _ in range(3))
    assert ctx.multiply(ctx.multiply(x, y), z).word == ctx.multiply(x, ctx.multiply(y, z)).word


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_by_inverse_is_identity(ctx, data):
    x = data.draw(_elements(ctx))
    # the letters of x in reverse order, each inverted in its factor
    reference = ctx.from_letters(
        [(side, ctx.factors[side].invert(g)) for side, g in reversed(_letters(ctx, x))]
    )
    assert ctx.invert(x).word == reference.word
    e = ctx.identity().word
    assert ctx.multiply(x, ctx.invert(x)).word == e
    assert ctx.multiply(ctx.invert(x), x).word == e
