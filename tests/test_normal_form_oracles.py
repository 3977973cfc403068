"""Independent equality oracles for the hardest normal forms.

The one-relator extension BS(1, q) of the integers by a letter that scales
by q acts faithfully on the rationals by affine maps when |q| > 1 (the base
generator is x -> x+1, the stable letter is x -> qx), so equality of
canonical forms can be checked against exact affine composition.  The two
free-product-of-integers models are free of rank two, so the plain free
group serves as their oracle.
"""

import itertools
from fractions import Fraction

import pytest

from translation_lab import FreeGroupContext, baumslag_solitar


def affine_compose(f, g):
    # function composition f after g: x -> f(g(x)) with (q, r) meaning q x + r
    return (f[0] * g[0], f[0] * g[1] + f[1])


@pytest.mark.parametrize("q", [2, -2])
def test_doubling_extension_matches_affine_action(q):
    bs = baumslag_solitar(1, q)
    letters = {
        "a": ("g", bs.base.integer(1)),
        "A": ("g", bs.base.integer(-1)),
        "t": ("t", 1),
        "T": ("t", -1),
    }
    affine = {
        "a": (Fraction(1), Fraction(1)),
        "A": (Fraction(1), Fraction(-1)),
        "t": (Fraction(q), Fraction(0)),
        "T": (Fraction(1, q), Fraction(0)),
    }
    by_map = {}
    by_word = {}
    for length in range(6):
        for combo in itertools.product("aAtT", repeat=length):
            canon = bs.from_letters([letters[c] for c in combo]).word
            value = (Fraction(1), Fraction(0))
            for c in combo:
                # products act on the left, so the letter acts first
                value = affine_compose(value, affine[c])
            by_map.setdefault(value, set()).add(canon)
            by_word.setdefault(canon, set()).add(value)
    # faithful action: equal maps exactly when equal canonical forms
    assert all(len(canons) == 1 for canons in by_map.values())
    assert all(len(values) == 1 for values in by_word.values())


def _grouping_agrees(words, canon_a, canon_b):
    pairing = {}
    for word in words:
        key = canon_a(word)
        val = canon_b(word)
        if key in pairing:
            if pairing[key] != val:
                return False
        else:
            pairing[key] = val
    return len(set(pairing.values())) == len(pairing)


def test_free_product_of_integers_matches_free_group(zz):
    f2 = FreeGroupContext(2)
    to_zz = {
        1: (0, zz.factors[0].integer(1)),
        -1: (0, zz.factors[0].integer(-1)),
        2: (1, zz.factors[1].integer(1)),
        -2: (1, zz.factors[1].integer(-1)),
    }
    words = []
    for length in range(6):
        words.extend(itertools.product((1, -1, 2, -2), repeat=length))
    assert _grouping_agrees(
        words,
        lambda w: zz.from_letters([to_zz[l] for l in w]).word,
        lambda w: f2.from_letters(w).word,
    )


def test_trivially_twisted_extension_matches_free_group(f2_hnn):
    f2 = FreeGroupContext(2)
    to_hnn = {
        1: ("g", f2_hnn.base.integer(1)),
        -1: ("g", f2_hnn.base.integer(-1)),
        2: ("t", 1),
        -2: ("t", -1),
    }
    words = []
    for length in range(6):
        words.extend(itertools.product((1, -1, 2, -2), repeat=length))
    assert _grouping_agrees(
        words,
        lambda w: f2_hnn.from_letters([to_hnn[l] for l in w]).word,
        lambda w: f2.from_letters(w).word,
    )


def test_amalgam_inverse_roundtrip(amalgam, zz):
    for ctx in (amalgam, zz):
        for x in ctx.ball(3):
            assert ctx.multiply(x, ctx.invert(x)).word == ctx.identity().word
            assert ctx.invert(ctx.invert(x)).word == x.word
