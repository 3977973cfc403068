"""Subsets of a group given by total membership predicates.

A subset is described by a predicate that is total over canonical words,
never by a finite enumeration: this is what makes finite-window truncations of
translation operators exact rather than approximate.  Claimed stabilisers ride
along as data and are only ever *verified at bounded radius*.

A predicate takes the canonical word of x, not the element, and does O(|x|)
work on it with no group multiply: membership is read off the normal form.
``contains(x)`` is the one checked entry point: it checks that x belongs to
the subset's context, then asks the predicate about ``x.word``.  A loop that
multiplies raw words with the context's ``_mul`` checks its operands' context
once at its entry and then asks ``predicate`` directly: the window and track
operators, coset projections, ``tracks.support`` (behind the deepness,
boundary, isolation and coset checks), the HNN partition suite and the
universal pattern-centre scan run so.  Membership keeps no memo and asks the predicate
on every call; the one reuse kept is ``elements_in_ball``, which lists the
members of each ball layer once, asking the predicate about each word of
the layer (the context's ``_sphere``) and building elements for the members
only.  A subset that can list its members of each word length in closed
form offers their words as ``sphere_members``, so a sparse subset's window
grows no ball; the listed words are sorted by ``structural_key``, read
through the predicate, and only the members become elements.  Subgroups,
claimed stabilisers included, are subsets of the same type; a finite one also
keeps its whole member list in ``elements``, and its windows filter that list.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .groups import (
    AmalgamContext,
    FreeAbelianContext,
    FreeGroupContext,
    GroupContext,
    GroupElement,
    HnnContext,
    MalformedWord,
    _check_isomorphism,
)
from .reports import FALSIFIED, VERIFIED, CheckReport


class SubsetSpec:
    """Total membership predicate plus claimed stabiliser data.

    ``predicate`` reads a canonical word of ``ctx``.  ``sphere_members(k)``,
    when given, lists candidate words holding every member of word length k,
    in any order; ``elements``, when given, is every member of a finite set,
    in ball order.  A placed universal subset also carries its placements as
    ``placed``.
    """

    __slots__ = (
        "ctx",
        "name",
        "predicate",
        "left_stabiliser",
        "right_stabiliser",
        "sphere_members",
        "elements",
        "placed",
        "_layers",
    )

    def __init__(
        self,
        ctx: GroupContext,
        name: str,
        predicate: Callable[[tuple], bool],
        left_stabiliser: SubsetSpec | None = None,
        right_stabiliser: SubsetSpec | None = None,
        sphere_members: Callable[[int], Iterable[tuple]] | None = None,
        elements: tuple[GroupElement, ...] | None = None,
    ):
        self.ctx = ctx
        self.name = name
        self.predicate = predicate
        self.left_stabiliser = left_stabiliser
        self.right_stabiliser = right_stabiliser
        self.sphere_members = sphere_members
        self.elements = elements
        # _layers[k]: the members of ctx.sphere(k), in ball order
        self._layers: list[list[GroupElement]] = []

    def contains(self, x: GroupElement) -> bool:
        if x.ctx is not self.ctx:
            raise MalformedWord("element belongs to a different group context")
        return bool(self.predicate(x.word))

    def elements_in_ball(self, r: int) -> list[GroupElement]:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        ctx = self.ctx
        if self.elements is not None:
            return [h for h in self.elements if ctx.word_length(h) <= r]
        layers, inside = self._layers, self.predicate
        while len(layers) <= r:
            k = len(layers)
            if self.sphere_members is None:
                words = ctx._sphere(k)
            else:
                words = sorted(self.sphere_members(k), key=ctx.structural_key)
            layers.append([GroupElement(ctx, w) for w in words if inside(w)])
        out: list[GroupElement] = []
        for layer in layers[: r + 1]:
            out.extend(layer)
        return out


def finite_subgroup(ctx: GroupContext, elements: Iterable[GroupElement], name: str) -> SubsetSpec:
    """The subgroup listing these elements and the identity; raises if they are not closed."""
    elems = list(elements)
    ctx._check_all(*elems)
    words = {x.word for x in elems}
    e = ctx.identity()
    if e.word not in words:
        elems.append(e)
        words.add(e.word)
    # a finite set closed under products holds the inverse of each member, a power of it
    _check_isomorphism(ctx, ctx, [(w, w) for w in words], f"subgroup {name}")
    elems.sort(key=ctx.sort_key)
    return SubsetSpec(ctx, name, words.__contains__, elements=tuple(elems))


def trivial_subgroup(ctx: GroupContext) -> SubsetSpec:
    return finite_subgroup(ctx, [], "{e}")


def coset_cover(subgroup: SubsetSpec, points: Iterable[GroupElement]) -> list[GroupElement]:
    """Greedy cover by right cosets H x: the first point of each coset, in order."""
    ctx = subgroup.ctx
    reps: list[GroupElement] = []
    rep_inverses: list[GroupElement] = []
    for x in points:
        if not any(subgroup.contains(ctx.multiply(x, r_inv)) for r_inv in rep_inverses):
            reps.append(x)
            rep_inverses.append(ctx.invert(x))
    return reps


def everything(word: tuple) -> bool:
    """The predicate of the whole group, which every word satisfies."""
    return True


def whole_group(ctx: GroupContext) -> SubsetSpec:
    """G itself; ``_partial_translation`` recognises it by its predicate ``everything``."""
    return SubsetSpec(ctx, "all", everything)


def difference(outer: SubsetSpec, inner: SubsetSpec) -> SubsetSpec:
    outer.ctx._check_all(inner)
    return SubsetSpec(
        outer.ctx, f"{outer.name}-minus-{inner.name}", lambda w: outer.predicate(w) and not inner.predicate(w)
    )


# ---------------------------------------------------------------------------
# Coordinate subsets of Z^n
# ---------------------------------------------------------------------------


def coordinate_halfspace(ctx: FreeAbelianContext, coord: int = 0, lower: int = 0) -> SubsetSpec:
    """{v : v[coord] >= lower}; for Z with lower=0 this is the natural numbers."""
    if not isinstance(ctx, FreeAbelianContext):
        raise ValueError("coordinate halfspaces need a free-abelian context")
    if not 0 <= coord < ctx.rank:
        raise ValueError("coordinate out of range")
    if ctx.rank == 1:
        axis = trivial_subgroup(ctx)
    else:
        axis = SubsetSpec(ctx, f"axis[{coord}=0]", lambda w: w[coord] == 0)
    return SubsetSpec(
        ctx,
        f"halfspace[{coord}>={lower}]",
        lambda w: w[coord] >= lower,
        left_stabiliser=axis,
        right_stabiliser=axis,
    )


def natural_numbers(ctx: FreeAbelianContext) -> SubsetSpec:
    if ctx.rank != 1:
        raise ValueError("natural_numbers needs Z")
    spec = coordinate_halfspace(ctx, 0, 0)
    spec.name = "naturals"
    return spec


def congruence_class(ctx: FreeAbelianContext, modulus: int, residue: int = 0, coord: int = 0) -> SubsetSpec:
    """{v : v[coord] = residue mod modulus}; the evens for (2, 0)."""
    if not isinstance(ctx, FreeAbelianContext):
        raise ValueError("congruence classes need a free-abelian context")
    if not 0 <= coord < ctx.rank:
        raise ValueError("coordinate out of range")
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    stab = SubsetSpec(ctx, f"{modulus}Z[{coord}]", lambda w: w[coord] % modulus == 0)
    return SubsetSpec(
        ctx,
        f"congruence[{coord}%{modulus}={residue}]",
        lambda w: w[coord] % modulus == residue % modulus,
        left_stabiliser=stab,
        right_stabiliser=stab,
    )


# ---------------------------------------------------------------------------
# Free-group subsets
# ---------------------------------------------------------------------------


def positive_cone(ctx: FreeGroupContext) -> SubsetSpec:
    """Words in positive letters only, together with the identity."""
    if not isinstance(ctx, FreeGroupContext):
        raise ValueError("positive cones need a free context")
    return SubsetSpec(
        ctx,
        "positive-cone",
        lambda w: min(w, default=1) > 0,
        left_stabiliser=trivial_subgroup(ctx),
        right_stabiliser=trivial_subgroup(ctx),
    )


def words_not_starting_with(ctx: FreeGroupContext, letter: GroupElement) -> SubsetSpec:
    """Reduced words whose first letter differs from the given one."""
    if len(letter.word) != 1:
        raise ValueError("need a single-letter element")
    banned = letter.word[0]
    return SubsetSpec(
        ctx,
        f"not-starting-{ctx.format(letter)}",
        lambda w: not w or w[0] != banned,
        left_stabiliser=trivial_subgroup(ctx),
    )


COSET_UNION_DECIDABLE = (
    "coset-union membership is decidable here only for a positive-cone base with a one-letter translator"
)


def cyclic_translates(base: SubsetSpec, g: GroupElement, name: str | None = None) -> SubsetSpec:
    """Union of the translates g^k * base over all integers k.

    Membership is decided in closed form only for a positive-cone base P with
    a one-letter translator a^±1: x lies in the union iff x with its leading
    run of a^±1 letters stripped lies in P.  The caller vouches that the
    base is a positive cone; any other context or translator raises
    ValueError.
    """
    ctx = base.ctx
    if not (isinstance(ctx, FreeGroupContext) and len(g.word) == 1):
        raise ValueError(COSET_UNION_DECIDABLE)
    letter, in_base = abs(g.word[0]), base.predicate

    def member(word: tuple) -> bool:
        k = 0
        while k < len(word) and abs(word[k]) == letter:
            k += 1
        return in_base(word[k:])  # a suffix of a reduced word is reduced

    return SubsetSpec(
        ctx,
        name or f"translates[{ctx.format(g)}]({base.name})",
        member,
        left_stabiliser=letter_subgroup(ctx, g),
    )


def letter_subgroup(ctx: FreeGroupContext, g: GroupElement) -> SubsetSpec:
    """The cyclic subgroup <g> of a letter g: the reduced words whose every letter is g or g^-1."""
    if len(ctx._check(g).word) != 1:
        raise ValueError("need a single-letter element")
    letter = abs(g.word[0])
    return SubsetSpec(ctx, f"<{ctx.format(g)}>", lambda w: all(abs(l) == letter for l in w))


# ---------------------------------------------------------------------------
# Half-spaces from tree actions
# ---------------------------------------------------------------------------


def make_tree_halfspace(ctx: GroupContext, side: str) -> SubsetSpec:
    """Half-space subsets read off the first syllable of the canonical form.

    For an amalgam, side "G" (resp. "S") keeps the words whose first syllable
    lies in that factor, together with the whole glued subgroup.  For an HNN
    extension, side "B" keeps the elements with no reduced expression starting
    with the inverse stable letter, and side "tB" their forward translate.
    """
    if isinstance(ctx, AmalgamContext):
        if side not in ("G", "S"):
            raise ValueError("amalgam sides are 'G' and 'S'")
        want = 0 if side == "G" else 1

        def member(w: tuple) -> bool:
            syllables, _h = w
            if not syllables:
                return True  # subgroup elements sit in both half-spaces
            return syllables[0][0] == want

        def right_member(w: tuple) -> bool:
            syllables, _h = w
            return all(s == want for s, _ in syllables)

        return SubsetSpec(
            ctx,
            f"halfspace-{side}",
            member,
            left_stabiliser=amalgam_subgroup(ctx),
            right_stabiliser=SubsetSpec(ctx, side, right_member),
        )

    if isinstance(ctx, HnnContext):
        if side not in ("B", "tB"):
            raise ValueError("hnn sides are 'B' and 'tB'")

        member = ctx.data.member

        def in_b(w: tuple) -> bool:
            head, blocks = w
            if not blocks:
                return True
            first_sign, _ = blocks[0]
            if first_sign == 1:
                return True
            return not member(1, head)

        def in_tb(w: tuple) -> bool:
            head, blocks = w
            if not blocks:
                return False
            first_sign, _ = blocks[0]
            if first_sign == -1:
                return False
            return member(-1, head)

        # B is stabilised on the left by H (sign 1), tB by K (sign -1)
        sign, predicate, left_name = (1, in_b, "H") if side == "B" else (-1, in_tb, "K")

        def left_member(w: tuple) -> bool:
            return not w[1] and member(sign, w[0])

        def right_g(w: tuple) -> bool:
            return not w[1]

        return SubsetSpec(
            ctx,
            f"halfspace-{side}",
            predicate,
            left_stabiliser=SubsetSpec(ctx, left_name, left_member),
            right_stabiliser=SubsetSpec(ctx, "G", right_g),
        )

    raise ValueError(f"context kind {ctx.kind!r} has no tree half-spaces")


def amalgam_subgroup(ctx: AmalgamContext) -> SubsetSpec:
    return finite_subgroup(ctx, [ctx.h_element(i) for i in range(ctx.subgroup_size())], "H")


# ---------------------------------------------------------------------------
# Bounded stabiliser verification
# ---------------------------------------------------------------------------


def verify_stabilisers(spec: SubsetSpec, r: int) -> CheckReport:
    """Check the claimed stabilisers on Ball(e, r) and hunt for unclaimed ones.

    Claimed elements h are tested via predicate(h*x) == predicate(x) (left)
    and predicate(x*h) == predicate(x) (right) for every x in the ball.  The
    candidate search scans the ball of radius max(0, r - 2) for elements that
    stabilise on the whole test ball but are not claimed.
    """
    ctx = spec.ctx
    search_radius = max(0, r - 2)
    ball = ctx.ball(r)
    failures = []
    confirmed = {"left": [], "right": []}

    def test(h: GroupElement, side: str) -> GroupElement | None:
        for x in ball:
            moved = ctx.multiply(h, x) if side == "left" else ctx.multiply(x, h)
            if spec.contains(moved) != spec.contains(x):
                return x
        return None

    for side, sub in (("left", spec.left_stabiliser), ("right", spec.right_stabiliser)):
        if sub is None:
            continue
        claimed = sub.elements_in_ball(r)
        for h in claimed:
            witness = test(h, side)
            if witness is None:
                confirmed[side].append(h)
            else:
                failures.append({"side": side, "element": h, "witness": witness})

    unclaimed = []
    for g in ctx.ball(search_radius):
        if spec.left_stabiliser is not None and spec.left_stabiliser.contains(g):
            continue
        if test(g, "left") is None:
            unclaimed.append(g)

    verdict = FALSIFIED if failures else VERIFIED
    return CheckReport(
        name="stabiliser-verification",
        params={"subset": spec.name, "r": r, "search_radius": search_radius},
        verdict=verdict,
        witnesses=failures,
        compared_count=len(ball),
        details={"confirmed": confirmed, "unclaimed_left_candidates": unclaimed},
    )
