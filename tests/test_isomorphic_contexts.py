"""Contexts that build the same group agree, letter for letter.

F2 is built three ways: as the free group ``f2``, as Lance's trivial-gluing
amalgam ``z*z`` and as the HNN extension ``f2-hnn`` of Z over the trivial
subgroup.  Z^2 is built as ``z2`` and as the HNN extension of Z with
``multiplier`` 1.  A letter map sends each generator of one construction to
the matching generator of another; extended to words it is an isomorphism, so
on the radius-4 ball it must commute with each kernel's ``_mul`` and ``_inv``,
keep word length and carry each sphere onto the sphere of the same radius.
This is a differential oracle for the word kernels, the trivial-gluing
amalgam kernel above all.
"""

import pytest

from translation_lab.configs import load_group
from translation_lab.groups import GroupElement

RADIUS = 4

Z_MULTIPLIER_1 = {"kind": "hnn", "base": {"kind": "free-abelian", "rank": 1}, "theta": {"multiplier": 1}}

# Each context's generators and their inverses, in matching order.
LETTERS = {
    "f2": ("a", "A", "b", "B"),
    "z*z": ("a", "a^-1", "b", "b^-1"),
    "f2-hnn": ("a", "a^-1", "t", "t^-1"),
    "z2": ("(1,0)", "(-1,0)", "(0,1)", "(0,-1)"),
    "z-multiplier-1": ("1", "-1", "t", "t^-1"),
}
PAIRS = [("f2", "z*z"), ("f2", "f2-hnn"), ("z*z", "f2-hnn"), ("z2", "z-multiplier-1")]


def context(name):
    return load_group(Z_MULTIPLIER_1 if name == "z-multiplier-1" else name)


def letter_map(source, target, source_letters, target_letters):
    """φ on the words of the source's radius-RADIUS ball, and the (letter, image)
    word pairs: the identity goes to the identity, and x g to φ(x) φ(g) for each
    letter g, along a breadth-first search."""
    letters = [(source.parse(s).word, target.parse(t).word) for s, t in zip(source_letters, target_letters)]
    phi = {source.identity().word: target.identity().word}
    frontier = list(phi)
    for _ in range(RADIUS):
        reached = []
        for x in frontier:
            for g, image in letters:
                y = source._mul(x, g)
                if y not in phi:
                    phi[y] = target._mul(phi[x], image)
                    reached.append(y)
        frontier = reached
    return phi, letters


@pytest.mark.parametrize("names", PAIRS, ids="~".join)
def test_a_letter_map_is_an_isomorphism_on_the_ball(names):
    source, target = (context(name) for name in names)
    phi, letters = letter_map(source, target, *(LETTERS[name] for name in names))
    ball = source.ball(RADIUS)
    assert set(phi) == {x.word for x in ball}

    # φ(x g) = φ(x) φ(g) along every edge of the ball, not only the search's tree
    for x in source.ball(RADIUS - 1):
        for g, image in letters:
            assert phi[source._mul(x.word, g)] == target._mul(phi[x.word], image), (x.word, g)
    # φ(u v) = φ(u) φ(v) and φ(u^-1) = φ(u)^-1
    half = [x.word for x in source.ball(RADIUS // 2)]
    for u in half:
        for v in half:
            assert phi[source._mul(u, v)] == target._mul(phi[u], phi[v]), (u, v)
    for x in ball:
        assert phi[source._inv(x.word)] == target._inv(phi[x.word]), x.word

    # word length is kept, and each sphere goes onto the sphere of the same radius
    for x in ball:
        assert target.word_length(GroupElement(target, phi[x.word])) == source.word_length(x), x.word
    for k in range(RADIUS + 1):
        image = [phi[x.word] for x in source.sphere(k)]
        assert len(set(image)) == len(image) and set(image) == {y.word for y in target.sphere(k)}, k
