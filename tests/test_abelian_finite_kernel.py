"""Property tests for the free-abelian and finite word-arithmetic kernels.

Elements are drawn as raw words over the generating alphabet.  The reference
evaluates a word one letter at a time without the kernel: coordinate sums for
Z^2, lookups in the multiplication table for S3 (non-abelian, so the order of
the letters matters).  A letter's inverse is the negated vector, or the
table entry whose product with it is the identity.  The free-abelian kernel's
rank-1 branch, which builds the one-entry word directly, is checked against
the entrywise map forms that every rank uses.
"""

import itertools
from operator import add, neg

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from translation_lab import FiniteGroupContext, FreeAbelianContext

KERNEL_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def s3():
    perms = sorted(itertools.permutations(range(3)))
    return FiniteGroupContext(
        [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    )


@pytest.fixture(scope="module", params=["z2", "s3"])
def ctx(request):
    return request.getfixturevalue(request.param)


def _raw_words(ctx):
    return st.lists(st.sampled_from([g.word for g in ctx.generator_elements()]), max_size=10)


def _reference(ctx, letters):
    """The product of the letters, one letter at a time, without the kernel."""
    if isinstance(ctx, FiniteGroupContext):
        acc = ctx.identity().word[0]
        for (g,) in letters:
            acc = ctx.table[acc][g]
        return (acc,)
    return tuple(map(sum, zip(ctx.identity().word, *letters)))


def _letter_inverse(ctx, letter):
    if isinstance(ctx, FiniteGroupContext):
        e = ctx.identity().word[0]
        return (ctx.table[letter[0]].index(e),)
    return tuple(-a for a in letter)


def _element(ctx, letters):
    word = _reference(ctx, letters)
    return ctx.element(*word) if isinstance(ctx, FiniteGroupContext) else ctx.vector(*word)


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_matches_letter_by_letter(ctx, data):
    a, b = data.draw(_raw_words(ctx)), data.draw(_raw_words(ctx))
    assert ctx.multiply(_element(ctx, a), _element(ctx, b)).word == _reference(ctx, a + b)


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_is_associative(ctx, data):
    x, y, z = (_element(ctx, data.draw(_raw_words(ctx))) for _ in range(3))
    assert ctx.multiply(ctx.multiply(x, y), z).word == ctx.multiply(x, ctx.multiply(y, z)).word


@KERNEL_SETTINGS
@given(data=st.data())
def test_multiply_by_inverse_is_identity(ctx, data):
    letters = data.draw(_raw_words(ctx))
    x = _element(ctx, letters)
    assert ctx.invert(x).word == _reference(ctx, [_letter_inverse(ctx, l) for l in reversed(letters)])
    e = ctx.identity().word
    assert ctx.multiply(x, ctx.invert(x)).word == e
    assert ctx.multiply(ctx.invert(x), x).word == e


def _vector_pairs(rank):
    vectors = st.tuples(*[st.integers(-6, 6)] * rank)
    return st.tuples(st.just(rank), vectors, vectors)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from([1, 2, 3]).flatmap(_vector_pairs))
@example(case=(1, (0,), (-3,)))
@example(case=(2, (0, -2), (5, 0)))
@example(case=(3, (-1, 0, 4), (0, 0, 0)))
def test_free_abelian_kernel_equals_the_map_forms(case):
    rank, a, b = case
    ctx = FreeAbelianContext(rank)
    assert ctx._mul(a, b) == tuple(map(add, a, b))
    assert ctx._inv(a) == tuple(map(neg, a))
    assert ctx._sort_word(a) == (sum(map(abs, a)), a)
