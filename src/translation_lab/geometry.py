"""Bounded-radius deciders for the geometric hypotheses of the theory.

Every check here quantifies over a whole group in its unbounded form, so all
verdicts are explicitly scale-stamped: verified-at-scale, falsified (with a
concrete witness), or inconclusive-within-bound.  Radii and budgets are
parameters or named module constants, never hidden ones.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Sequence

from .groups import (
    BALL_CAP_ENV,
    AmalgamContext,
    BallCapExceeded,
    FiniteGroupContext,
    FreeAbelianContext,
    GroupContext,
    GroupElement,
    HnnContext,
    ball_cap,
)
from .reports import FALSIFIED, INCONCLUSIVE, VERIFIED, CheckReport, ConfigError
from .subsets import SubsetSpec, coset_cover


def deep_witness(spec: SubsetSpec, r: int, search_radius: int) -> CheckReport:
    """Find x with the whole ball of radius r around x inside the subset."""
    if r > search_radius:
        raise ValueError("need r <= search radius")
    ctx = spec.ctx
    probes = ctx.ball(r)
    params = {"subset": spec.name, "r": r, "R": search_radius}
    scanned = 0
    for x in spec.elements_in_ball(search_radius):
        scanned += 1
        if all(spec.contains(ctx.multiply(x, u)) for u in probes):
            return CheckReport(
                name="deep-witness",
                params=params,
                verdict=VERIFIED,
                witnesses=[x],
                compared_count=scanned,
            )
    return CheckReport(
        name="deep-witness",
        params=params,
        verdict=INCONCLUSIVE,
        compared_count=scanned,
        details={"note": "no ball of the requested radius found in the window"},
    )


def relatively_deep_check(
    b_spec: SubsetSpec,
    x_spec: SubsetSpec,
    k_sub: SubsetSpec,
    r: int,
    search_radius: int,
) -> CheckReport:
    """Per stabiliser-coset of the ambient set, find subset points r-far from the relative complement.

    A point p qualifies when the ball of radius r around p meets the ambient
    set only inside the subset.  The verdict is falsified when some coset in
    the window admits no qualifying point: that is bounded evidence against
    the unbounded statement, stamped with both radii.
    """
    ctx = b_spec.ctx
    params = {
        "B": b_spec.name,
        "X": x_spec.name,
        "K": k_sub.name,
        "r": r,
        "R": search_radius,
    }
    b_points = b_spec.elements_in_ball(search_radius)
    for x in b_points:
        if not x_spec.contains(x):
            return CheckReport(
                name="relatively-deep",
                params=params,
                verdict=FALSIFIED,
                witnesses=[x],
                details={"error": "subset is not contained in the ambient set"},
            )
    probes = ctx.ball(r)

    def far_inside(p: GroupElement) -> bool:
        for u in probes:
            q = ctx.multiply(p, u)
            if x_spec.contains(q) and not b_spec.contains(q):
                return False
        return True

    coset_reps = coset_cover(k_sub, x_spec.elements_in_ball(max(0, search_radius - r)))

    found: list[dict] = []
    for rep in coset_reps:
        witness = None
        rep_inv = ctx.invert(rep)
        for p in b_points:
            if not k_sub.contains(ctx.multiply(p, rep_inv)):
                continue
            if far_inside(p):
                witness = p
                break
        if witness is None:
            return CheckReport(
                name="relatively-deep",
                params=params,
                verdict=FALSIFIED,
                witnesses=[rep],
                compared_count=len(coset_reps),
                details={"failing_coset": rep},
            )
        found.append({"coset": rep, "point": witness})
    return CheckReport(
        name="relatively-deep",
        params=params,
        verdict=VERIFIED,
        witnesses=found,
        compared_count=len(coset_reps),
    )


def _displaced(b_spec: SubsetSpec, x_spec: SubsetSpec, g: GroupElement, r: int) -> list[GroupElement]:
    """The points of (Bg \\ B) n X within radius r, in ball order."""
    ctx = b_spec.ctx
    g_inv = ctx.invert(g)
    return [
        x
        for x in x_spec.elements_in_ball(r)
        if not b_spec.contains(x) and b_spec.contains(ctx.multiply(x, g_inv))
    ]


# how far past R a coset count is taken again; equal counts verify at scale
GROWTH = 2


def almost_invariant_check(
    b_spec: SubsetSpec,
    x_spec: SubsetSpec,
    h_sub: SubsetSpec,
    g: GroupElement,
    radius: int,
) -> CheckReport:
    """Cover (Bg \\ B) n X by right H-cosets at R and R + GROWTH; equal counts are the evidence.

    The condition quantifies over every g, so callers probing a single
    translate should test g together with g^-1: over a right-invariant
    ambient set the two directions are translates of each other, but in the
    relative setting they are genuinely different sets.
    """
    small = _displaced(b_spec, x_spec, g, radius)
    large = _displaced(b_spec, x_spec, g, radius + GROWTH)
    return coset_count_check("almost-invariant", b_spec, x_spec, h_sub, g, radius, small, large)


def coset_count_check(
    name: str,
    b_spec: SubsetSpec,
    x_spec: SubsetSpec,
    h_sub: SubsetSpec,
    g: GroupElement,
    radius: int,
    small: list[GroupElement],
    large: list[GroupElement],
) -> CheckReport:
    """Cover two supports by H-cosets; equal coset counts verify at scale.

    ``small`` and ``large`` are a check's support at R and at R + GROWTH; the
    witnesses are the coset representatives of ``small``.
    """
    reps_small = coset_cover(h_sub, small)
    n_large = len(coset_cover(h_sub, large))
    return CheckReport(
        name=name,
        params={
            "B": b_spec.name,
            "X": x_spec.name,
            "H": h_sub.name,
            "g": g,
            "R": radius,
            "growth": GROWTH,
        },
        verdict=VERIFIED if len(reps_small) == n_large else INCONCLUSIVE,
        witnesses=reps_small,
        compared_count=len(small),
        details={"coset_count_at_R": len(reps_small), "coset_count_at_R_plus": n_large},
    )


def coset_count_profile(
    b_spec: SubsetSpec,
    x_spec: SubsetSpec,
    h_sub: SubsetSpec,
    g: GroupElement,
    radii: Sequence[int],
) -> list[int]:
    """Number of covering cosets of (Bg \\ B) n X at each window radius."""
    return [len(coset_cover(h_sub, _displaced(b_spec, x_spec, g, r))) for r in radii]


def coseparability_search(
    b_spec: SubsetSpec,
    h_sub: SubsetSpec,
    f_radius: int,
    g_radius: int,
    max_size: int = 3,
) -> CheckReport:
    """Search for a finite distinguishing set for the subset's translates.

    A valid witness F' meets the symmetric difference of the subset with its
    translate gB exactly for the g outside the claimed stabiliser.  For each g
    in the scanned ball the distinguishable trace D_g = (B symdiff gB) within
    the candidate ball is computed exactly; then

    * any g outside the stabiliser with empty D_g falsifies every candidate at
      this radius at once (bounded falsification, witnessed by g);
    * otherwise candidates are enumerated by size then shortlex among points
      that avoid the traces of claimed stabiliser elements, looking for a
      hitting set of all remaining traces.
    """
    ctx = b_spec.ctx
    params = {
        "B": b_spec.name,
        "H": h_sub.name,
        "f_radius": f_radius,
        "g_radius": g_radius,
        "max_size": max_size,
    }
    pool = ctx.ball(f_radius)
    pool_index = {x.word: i for i, x in enumerate(pool)}

    def trace(g: GroupElement) -> frozenset[int]:
        g_inv = ctx.invert(g)
        hit = set()
        for i, x in enumerate(pool):
            if b_spec.contains(x) != b_spec.contains(ctx.multiply(g_inv, x)):
                hit.add(i)
        return frozenset(hit)

    must_hit: list[tuple[GroupElement, frozenset[int]]] = []
    must_avoid: set[int] = set()
    for g in ctx.ball(g_radius):
        t = trace(g)
        if h_sub.contains(g):
            must_avoid |= t
        else:
            if not t:
                return CheckReport(
                    name="coseparability",
                    params=params,
                    verdict=FALSIFIED,
                    witnesses=[g],
                    details={
                        "reason": "translate indistinguishable within the candidate ball",
                    },
                )
            must_hit.append((g, t))

    allowed = [i for i in range(len(pool)) if i not in must_avoid]
    targets = sorted({t - must_avoid for _, t in must_hit}, key=sorted)
    for g, t in must_hit:
        if not (t - must_avoid):
            return CheckReport(
                name="coseparability",
                params=params,
                verdict=FALSIFIED,
                witnesses=[g],
                details={"reason": "trace lies entirely in stabiliser traces"},
            )
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(allowed, size):
            chosen = set(combo)
            if all(chosen & t for t in targets):
                return CheckReport(
                    name="coseparability",
                    params=params,
                    verdict=VERIFIED,
                    witnesses=[pool[i] for i in combo],
                    compared_count=len(must_hit),
                    details={"size": size},
                )
    return CheckReport(
        name="coseparability",
        params=params,
        verdict=INCONCLUSIVE,
        compared_count=len(must_hit),
        details={"note": f"no hitting set of size <= {max_size} in the candidate ball"},
    )


# radius within which h_isolation_sets looks for a point to split F' with
SPLIT_RADIUS = 4


def h_isolation_sets(
    b_spec: SubsetSpec,
    f_prime: Sequence[GroupElement],
) -> tuple[list[GroupElement], list[GroupElement]] | None:
    """Split a distinguishing set into inverse families isolating the stabiliser.

    E1 = F' inside the subset and E2 = F' outside it must both be nonempty;
    if not, F' is enlarged with the shortlex-least points of the subset and of
    the complement (enlarging preserves the distinguishing property).  The
    returned families are the inverse sets F1 = E1^-1, F2 = E2^-1, or None
    when the ball of radius SPLIT_RADIUS holds no point for an empty side.
    """
    ctx = b_spec.ctx
    inside = [x for x in f_prime if b_spec.contains(x)]
    outside = [x for x in f_prime if not b_spec.contains(x)]
    if not inside:
        for x in ctx.ball(SPLIT_RADIUS):
            if b_spec.contains(x):
                inside.append(x)
                break
    if not outside:
        for x in ctx.ball(SPLIT_RADIUS):
            if not b_spec.contains(x):
                outside.append(x)
                break
    if not inside or not outside:
        return None
    f1 = [ctx.invert(x) for x in inside]
    f2 = [ctx.invert(x) for x in outside]
    return f1, f2


def verify_h_isolation(
    b_spec: SubsetSpec,
    h_sub: SubsetSpec,
    f1: Sequence[GroupElement],
    f2: Sequence[GroupElement],
    radius: int,
) -> CheckReport:
    """Exact set equality H = (intersection of Bg, g in F1) minus (union of Bg, g in F2) on a ball."""
    ctx = b_spec.ctx
    params = {
        "B": b_spec.name,
        "H": h_sub.name,
        "F1": f1,
        "F2": f2,
        "R": radius,
    }
    if not f1 or not f2:
        raise ValueError("isolation families must be nonempty")
    inv1 = [ctx.invert(g) for g in f1]
    inv2 = [ctx.invert(g) for g in f2]
    compared = 0
    for x in ctx.ball(radius):
        compared += 1
        rhs = all(b_spec.contains(ctx.multiply(x, gi)) for gi in inv1) and not any(
            b_spec.contains(ctx.multiply(x, gi)) for gi in inv2
        )
        lhs = h_sub.contains(x)
        if lhs != rhs:
            return CheckReport(
                name="h-isolation",
                params=params,
                verdict=FALSIFIED,
                witnesses=[x],
                compared_count=compared,
                details={"in_subgroup": lhs, "in_formula": rhs},
            )
    return CheckReport(
        name="h-isolation",
        params=params,
        verdict=VERIFIED,
        compared_count=compared,
    )


def boundary_set(b_spec: SubsetSpec, radius: int) -> list[GroupElement]:
    """Subset points with a generator stepping right out of the subset."""
    ctx = b_spec.ctx
    gens = ctx.generator_elements()
    out = []
    for x in b_spec.elements_in_ball(radius):
        if any(not b_spec.contains(ctx.multiply(x, a)) for a in gens):
            out.append(x)
    return out


def boundary_check(b_spec: SubsetSpec, expected: SubsetSpec, radius: int) -> CheckReport:
    ctx = b_spec.ctx
    boundary = boundary_set(b_spec, radius)
    expected_points = [x for x in ctx.ball(radius) if expected.contains(x) and b_spec.contains(x)]
    got = {x.word for x in boundary}
    want = {x.word for x in expected_points}
    ok = got == want
    extra = [x for x in boundary if x.word not in want]
    missing = [x for x in expected_points if x.word not in got]
    return CheckReport(
        name="boundary",
        params={"B": b_spec.name, "expected": expected.name, "R": radius},
        verdict=VERIFIED if ok else FALSIFIED,
        witnesses=extra + missing,
        compared_count=len(boundary),
        details={"boundary_size": len(boundary)},
    )


# ---------------------------------------------------------------------------
# Convexity via word rewriting
# ---------------------------------------------------------------------------


class Presentation:
    """Alphabet with involution plus trivial-product relation words.

    ``Presentation(ctx, letters, relations, inverse)``: the letters are
    elements of ``ctx``, each relation is a tuple of indices into
    ``letters``, and ``inverse[i]`` is the index of ``letters[i]``'s inverse.
    Treat instances as immutable.
    """

    __slots__ = ("ctx", "letters", "relations", "inverse")

    def __init__(
        self,
        ctx: GroupContext,
        letters: tuple[GroupElement, ...],
        relations: tuple[tuple[int, ...], ...],
        inverse: tuple[int, ...],
    ):
        self.ctx = ctx
        self.letters = letters
        self.relations = relations
        self.inverse = inverse


def factor_relation_words(f: GroupContext, letters: Sequence[GroupElement]) -> list[list[GroupElement]]:
    """A factor's trivial-product words of length 2 and 3 over nontrivial letters.

    First [x, x^-1] for each letter, then [x, y, (xy)^-1] for each ordered
    pair whose product inverts to a letter; a letter is never the identity,
    so no pair with xy = e gives a word.
    """
    by_word = {x.word: x for x in letters}
    triples = ((x, y, by_word.get(f.invert(f.multiply(x, y)).word)) for x in letters for y in letters)
    return [[x, f.invert(x)] for x in letters] + [[x, y, z] for x, y, z in triples if z is not None]


# an infinite group's letters reach radius 2, the least at which two letters multiply to a third
LETTER_BOUND = 2


def own_letters(f: GroupContext) -> list[GroupElement]:
    """A factor's or base's letters, in the group's order: every nontrivial
    element of a finite group, else those of the ball of radius ``LETTER_BOUND``."""
    e = f.identity().word
    elems = f.all_elements() if isinstance(f, FiniteGroupContext) else f.ball(LETTER_BOUND)
    return sorted((x for x in elems if x.word != e), key=f.sort_key)


def _spelling(
    base: GroupContext, own: list[GroupElement], target: tuple, max_len: int | None
) -> tuple[int, ...] | None:
    """The first in letter order of the shortest words in the letters ``own``
    with product ``target``, as positions in ``own``; None when each is longer
    than ``max_len``.

    The search runs breadth first, trying the letters in order, and raises
    ``BallCapExceeded`` once it has seen more elements than the ball cap; a
    finite base needs none, as every nontrivial element is a letter.
    """
    cap, mul = ball_cap(), base._mul
    letters = [x.word for x in own]
    spelled = {base.identity().word: ()}
    layer = list(spelled)
    while target not in spelled:
        if len(spelled[layer[0]]) == max_len:
            return None
        nxt = []
        for x in layer:
            for i, letter in enumerate(letters):
                y = mul(x, letter)
                if y not in spelled:
                    spelled[y] = spelled[x] + (i,)
                    nxt.append(y)
                    if len(spelled) > cap:
                        raise BallCapExceeded(
                            f"spelling a twist image visits more than {cap} elements "
                            f"(set {BALL_CAP_ENV} to raise the cap)"
                        )
        layer = nxt
    return spelled[target]


def presentation_for(ctx: GroupContext, max_relation_len: int | None = None) -> Presentation:
    """Built-in presentations: factor letters with short trivial-product words.

    Amalgams take each factor's ``own_letters`` (every nontrivial element of
    a finite factor, the ball of radius ``LETTER_BOUND`` of an infinite one)
    and all within-factor relation words of length at most 3; a finite group
    is presented the same way, as one such factor.  HNN extensions take the
    base letters the same way and add the stable letter and the twisting
    relations: t h t^-1 k^-1 for each base letter h in the subgroup and
    t^-1 k t h^-1 for each base letter k in its image, with the other side
    spelled as a shortest word in base letters (``_spelling``).
    When no base letter lies in either subgroup, h and k run over the
    subgroups' generators instead, both sides spelled.
    A twist relation longer than ``max_relation_len`` is left out: a rewrite
    search capped at words of length n applies no relation longer than 2n.
    Free abelian groups use their generators with cancellation and the
    commutators [x_i, x_j]; free groups use their generators with
    cancellation only.
    """
    letters: list[GroupElement] = []
    index: dict[tuple, int] = {}  # letter word -> position in letters

    def add_letters(elems: Iterable[GroupElement]):
        for x in elems:
            if x.word not in index:
                index[x.word] = len(letters)
                letters.append(x)

    if isinstance(ctx, AmalgamContext):
        owns = [own_letters(f) for f in ctx.factors]
        for side, own in enumerate(owns):
            add_letters(ctx.from_letters([(side, x)]) for x in own)
        # a factor's words run over its own letters and over its copy of each
        # glued element that only the other factor lists (beyond the bound here)
        words = []
        for side, (f, own) in enumerate(zip(ctx.factors, owns)):
            listed = {x.word for x in own}
            glued = [
                pair[side]
                for i, pair in enumerate(ctx.pairs)
                if ctx.h_element(i).word in index and pair[side].word not in listed
            ]
            at = {x.word: index[ctx.from_letters([(side, x)]).word] for x in own + glued}
            words += [tuple(at[x.word] for x in word) for word in factor_relation_words(f, own + glued)]
    elif isinstance(ctx, HnnContext):
        base = ctx.base
        own = own_letters(base)
        add_letters([*(ctx.from_base(x) for x in own), ctx.stable_letter(1), ctx.stable_letter(-1)])
        at = {x.word: i for i, x in enumerate(own)}
        t, t_inv = len(own), len(own) + 1
        words = [tuple(at[x.word] for x in word) for word in factor_relation_words(base, own)]
        words += [(t, t_inv), (t_inv, t)]

        def spell(g: tuple, rest: int):  # a letter as is, else a searched word beside ``rest`` letters
            room = None if max_relation_len is None else max_relation_len - rest
            return (at[g],) if g in at else _spelling(base, own, g, room)

        # where h and k are both letters, the two words agree up to rotation
        # and inversion; with no letter in H or K, their generators are twisted
        twisted = {sign: [h.word for h in own if ctx.data.member(sign, h.word)] for sign in (1, -1)}
        if not any(twisted.values()):
            twisted = {sign: ctx.data.generators(sign) for sign in (1, -1)}
        for sign, s, s_inv in ((1, t, t_inv), (-1, t_inv, t)):
            for h in twisted[sign]:
                h_side = spell(h, 3)
                k_side = h_side and spell(ctx.data.image(sign, base._inv(h)), 2 + len(h_side))
                if k_side:
                    words.append((s, *h_side, s_inv, *k_side))
    elif isinstance(ctx, FiniteGroupContext):
        own = own_letters(ctx)
        add_letters(own)
        words = [tuple(index[x.word] for x in word) for word in factor_relation_words(ctx, own)]
    else:
        add_letters(ctx.generator_elements())
        words = [(i, index[ctx.invert(g).word]) for i, g in enumerate(letters)]
        if isinstance(ctx, FreeAbelianContext):  # letters 2i and 2i + 1 are x_i and its inverse
            words += [(2 * i, 2 * j, 2 * i + 1, 2 * j + 1) for i, j in itertools.combinations(range(ctx.rank), 2)]

    # close relations under cyclic permutation and inversion; every letter
    # has its inverse among the letters
    inverse = tuple(index[ctx.invert(x).word] for x in letters)
    rotations = {rel[s:] + rel[:s] for rel in words for s in range(len(rel))}
    closed = rotations | {tuple(inverse[i] for i in reversed(rot)) for rot in rotations}
    return Presentation(ctx, tuple(letters), tuple(sorted(closed)), inverse)


def _rewrite_table(pres: Presentation) -> dict:
    """Map subword u -> replacements v' with u v' a relation, grouped by |u|."""
    table: dict[int, dict[tuple, set[tuple]]] = {}
    inverse = pres.inverse
    for rel in pres.relations:
        for cut in range(len(rel) + 1):
            u, repl = rel[:cut], tuple(inverse[i] for i in reversed(rel[cut:]))
            if repl != u:
                table.setdefault(len(u), {}).setdefault(u, set()).add(repl)
    return table


def _rewrites(word: tuple[int, ...], table: dict, max_len: int, allow_insert: bool):
    """Yield (pos, length, repl): replace word[pos:pos + length] by repl."""
    n = len(word)
    for length, entries in table.items():
        if length == 0:  # inserting a whole relation, at every position
            if allow_insert:
                for repls in entries.values():
                    for repl in repls:
                        if n + len(repl) <= max_len:
                            yield from ((pos, 0, repl) for pos in range(n + 1))
            continue
        for pos in range(n - length + 1):
            for repl in entries.get(word[pos : pos + length], ()):
                if n - length + len(repl) <= max_len:
                    yield pos, length, repl


def _cayley_piece(b_spec: SubsetSpec, pres: Presentation):
    """B's Cayley graph over the letters, built one edge at a time: ``end`` and ``vertices``.

    ``end(word)`` walks a word of letter indices from e (vertex 0) to the id
    of its product, or None once a prefix leaves B; ``vertices[v]`` is the
    canonical word of vertex v.  An edge (v, letter) costs one ``_mul`` and
    one predicate call on its first walk, and a dict lookup after that.
    """
    ctx = b_spec.ctx
    ctx._check_all(b_spec, *pres.letters)
    mul, inside = ctx._mul, b_spec.predicate
    letters = [x.word for x in pres.letters]
    vertices = [ctx.identity().word]
    ids = {vertices[0]: 0}
    edges: dict[tuple[int, int], int | None] = {}

    def end(word: tuple[int, ...]) -> int | None:
        v = 0
        for i in word:
            key = (v, i)
            if key not in edges:
                y = mul(vertices[v], letters[i])
                edges[key] = ids.setdefault(y, len(ids)) if inside(y) else None
                if len(ids) > len(vertices):  # y is a new vertex
                    vertices.append(y)
            v = edges[key]
            if v is None:
                return None
        return v

    return end, vertices


def _connect_class(end, members, table, max_len, node_budget, allow_insert):
    """Breadth-first rewrites from the first member that keep every prefix inside.

    A candidate is accepted when ``end`` walks it from the identity without
    leaving B (``_cayley_piece``).  Returns the words visited in visit
    order, the members left unreached, and whether the node budget stopped
    the search.
    """
    root = members[0]
    goal_set = set(members[1:])
    seen = {root: None}  # an ordered set: the visit order
    queue = deque([root])
    nodes = 0
    while queue and goal_set:
        if nodes > node_budget:
            return seen, goal_set, True
        current = queue.popleft()
        nodes += 1
        for pos, length, repl in _rewrites(current, table, max_len, allow_insert):
            nxt = current[:pos] + repl + current[pos + length :]
            if nxt in seen or end(nxt) is None:
                continue
            seen[nxt] = None
            goal_set.discard(nxt)
            queue.append(nxt)
    return seen, goal_set, False


# how far past the word length bound a rewrite may grow, and the most words
# one class's breadth-first rewrite search visits
SLACK = 3
NODE_BUDGET = 30000


def convexity_bounded_check(b_spec: SubsetSpec, pres: Presentation, max_word_len: int) -> CheckReport:
    """Connect equal-product inside-words by relation rewrites staying inside.

    Enumerates all words of length at most max_word_len staying in the subset,
    groups them by their product, and for each group checks rewrite
    connectivity with word length capped at max_word_len + SLACK.  Rewrites
    that insert a whole relation are tried only in a second pass, since the
    splits and merges already derived from the relations connect the built-in
    examples without them.  Every word, enumerated or rewritten, is walked
    on one lazily built edge table (``_cayley_piece``), so each product of a
    vertex and a letter is computed once.  A class left unreached is
    inconclusive, never falsified: a search capped in length is no witness
    against the unbounded statement.
    """
    params = {
        "B": b_spec.name,
        "L": max_word_len,
        "slack": SLACK,
        "node_budget": NODE_BUDGET,
        "letters": len(pres.letters),
        "relations": len(pres.relations),
    }
    end, vertices = _cayley_piece(b_spec, pres)
    if not b_spec.predicate(vertices[0]):
        raise ConfigError("convexity needs the identity inside the subset")
    all_words: list[tuple[int, ...]] = [()]  # the inside-words, shortest first
    for n in range(max_word_len):
        grown = (w + (i,) for w in all_words if len(w) == n for i in range(len(pres.letters)))
        all_words += [w for w in grown if end(w) is not None]
    groups: dict[tuple, list] = {}
    for word in all_words:
        groups.setdefault(vertices[end(word)], []).append(word)

    table = _rewrite_table(pres)
    max_len = max_word_len + SLACK
    checked_pairs = 0
    for target, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        checked_pairs += len(members) - 1
        _, unreached, budget_hit = _connect_class(end, members, table, max_len, NODE_BUDGET, allow_insert=False)
        if unreached:
            _, unreached, budget_hit = _connect_class(end, members, table, max_len, NODE_BUDGET, allow_insert=True)
        if unreached:
            # rewrites capped at max_len never witness that no longer chain exists
            sample = sorted(unreached)[0]
            return CheckReport(
                name="convexity",
                params=params,
                verdict=INCONCLUSIVE,
                witnesses=[[pres.letters[i] for i in members[0]], [pres.letters[i] for i in sample]],
                compared_count=checked_pairs,
                details={"budget_exceeded": budget_hit},
            )
    return CheckReport(
        name="convexity",
        params=params,
        verdict=VERIFIED,
        compared_count=checked_pairs,
        details={"word_count": len(all_words), "classes": len(groups)},
    )
