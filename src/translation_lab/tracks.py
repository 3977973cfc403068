"""The monoid of tracks: product plus visited suffix set.

A sequence of group elements determines an operator product on any subset,
and two sequences with the same track give the same operator.  The track of
(g_1, ..., g_k) is the pair (total, visited) where total = g_1...g_k and
visited collects the identity together with every suffix product
g_i g_{i+1} ... g_k.  Composition is

    (g, F) . (g', F') = (g g', F g' | F')

with identity (e, {e}).  Visited sets are stored shortlex-sorted so tracks
are canonical, hashable values.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .groups import GroupContext, GroupElement
from .subsets import SubsetSpec


class Track:
    """``Track(total, visited)``: a product and its visited set, compared and
    hashed by value.  Build tracks with the functions below, which sort
    ``visited``; treat instances as immutable."""

    __slots__ = ("total", "visited")

    def __init__(self, total: GroupElement, visited: tuple[GroupElement, ...]):
        self.total = total
        self.visited = visited

    def __eq__(self, other):
        if other.__class__ is not Track:
            return NotImplemented
        return self.total == other.total and self.visited == other.visited

    def __hash__(self):
        return hash((self.total, self.visited))

    def report_form(self):
        return {"total": self.total, "visited": self.visited}


def _canonical(ctx: GroupContext, total: GroupElement, visited: Iterable[GroupElement]) -> Track:
    seen: dict[tuple, GroupElement] = {}
    for h in visited:
        seen.setdefault(h.word, h)
    ordered = tuple(sorted(seen.values(), key=ctx.sort_key))
    return Track(total, ordered)


def make_track(ctx: GroupContext, total: GroupElement, visited: Iterable[GroupElement]) -> Track:
    track = _canonical(ctx, total, list(visited) + [ctx.identity(), total])
    return track


def identity_track(ctx: GroupContext) -> Track:
    e = ctx.identity()
    return Track(e, (e,))


def track_of_sequence(ctx: GroupContext, elements: Sequence[GroupElement]) -> Track:
    suffix = ctx.identity()
    visited = [suffix]
    for g in reversed(elements):
        suffix = ctx.multiply(g, suffix)
        visited.append(suffix)
    return _canonical(ctx, suffix, visited)


def compose_tracks(ctx: GroupContext, first: Track, second: Track) -> Track:
    total = ctx.multiply(first.total, second.total)
    visited = [ctx.multiply(h, second.total) for h in first.visited]
    visited.extend(second.visited)
    return _canonical(ctx, total, visited)


def nonzero_witness(track: Track, spec: SubsetSpec, radius: int) -> GroupElement | None:
    """Smallest x in the window on which the track's operator is nonzero.

    The operator sends the basis vector at x to the one at x * total^-1
    exactly when x h^-1 lies in the subset for every visited h; absence of a
    witness is only meaningful within the scanned window.
    """
    fires = support(track, spec)
    return next((x for x in spec.elements_in_ball(radius) if fires(x.word)), None)


def support(track: Track, spec: SubsetSpec) -> Callable[[tuple], bool]:
    """The test "the track's operator is nonzero at x": x h^-1 in the subset for every visited h.

    The test takes the canonical word of x, a word of the subset's context;
    the visited points are checked to lie in that context here, once.
    """
    ctx = spec.ctx
    ctx._check_all(*track.visited)
    mul, inside = ctx._mul, spec.predicate
    inverses = [ctx._inv(h.word) for h in track.visited]
    return lambda x: all(inside(mul(x, h_inv)) for h_inv in inverses)
