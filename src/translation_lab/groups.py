"""Finitely generated groups with exact normal forms and ball enumeration.

Five context kinds are provided, each solving its word problem by a canonical
form:

* free groups (freely reduced words),
* free abelian groups (integer vectors),
* finite groups (multiplication tables, validated at construction),
* free products with amalgamation over a common finite subgroup
  (alternating coset-transversal syllables with a trailing subgroup part),
* HNN extensions of a base group with stable letter ``t``
  (pinch-free forms with coset-transversal letters after each ``t``-power).

Each context's arithmetic is a word kernel: ``_mul`` and ``_inv`` take and
return canonical words (tuples), and the composite contexts call their
factors' or base's kernel directly, so no element is built between kernel
calls.  ``GroupContext.multiply`` and ``invert`` are the one checked entry
point: they check that the operands belong to the context and wrap the
resulting word in one ``GroupElement``.

All contexts share the same metric machinery: the word metric of the stated
generating set, enumerated by breadth-first search and ordered shortlex (free
groups list each layer by prefix extension, in the same order).  A
breadth-first layer multiplies raw words, dedupes each product once against
the depth table, sorts the new words by ``structural_key`` (which reads a
canonical word) and builds one element per member last.  Free, free-abelian
and finite contexts give the sort key of a raw word in closed form
(``_sort_word``), so the composite contexts order their words by their
factors' or base's keys without building elements.  Contexts are immutable
after construction and all operations are pure.
"""

from __future__ import annotations

import os
from operator import add, neg
from typing import Iterable, Sequence

BALL_CAP_ENV = "TRANSLATION_LAB_MAX_BALL"
DEFAULT_BALL_CAP = 2_000_000


class BallCapExceeded(RuntimeError):
    """A ball enumeration would exceed the configured element cap."""


class MalformedWord(ValueError):
    """A raw word used a letter outside the context's alphabet."""


class BallCapInvalid(ValueError):
    """The ball-cap environment variable is not a positive integer."""


def ball_cap() -> int:
    raw = os.environ.get(BALL_CAP_ENV)
    if raw is None:
        return DEFAULT_BALL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BallCapInvalid(f"{BALL_CAP_ENV}={raw!r} is not a positive integer")
    return cap


class GroupElement:
    """A canonical word in its context.  Equality of words is group equality.

    Elements are values: equal exactly when they share the context object and
    the word, and never reassigned after construction.  A report shows an
    element by its context's ``format``.
    """

    __slots__ = ("ctx", "word")

    def __init__(self, ctx: "GroupContext", word: tuple):
        self.ctx = ctx
        self.word = word

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.ctx is other.ctx and self.word == other.word

    def __hash__(self) -> int:
        return hash((self.ctx, self.word))

    def report_form(self) -> str:
        return self.ctx.format(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.ctx.format(self)}>"


class GroupContext:
    """Shared metric/enumeration machinery; subclasses fix the arithmetic.

    A subclass supplies the word kernel ``_mul``/``_inv``; ``multiply`` and
    ``invert`` are written once, here, and no subclass overrides them.
    """

    kind = "abstract"

    def __init__(self):
        self._layers: list[list[GroupElement]] = []
        self._dist: dict[tuple, int] = {}
        self._generator_words: tuple[tuple, ...] = ()  # set with the identity layer

    # -- arithmetic: checked entry points over the subclass's word kernel ----

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        if x.ctx is not self or y.ctx is not self:
            raise MalformedWord("element belongs to a different group context")
        return GroupElement(self, self._mul(x.word, y.word))

    def invert(self, x: GroupElement) -> GroupElement:
        return GroupElement(self, self._inv(self._check(x).word))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        """The canonical word of the product of two canonical words."""
        raise NotImplementedError

    def _inv(self, a: tuple) -> tuple:
        """The canonical word of the inverse of a canonical word."""
        raise NotImplementedError

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def generator_elements(self) -> tuple[GroupElement, ...]:
        """Alphabet of the word metric, closed under inversion, config order."""
        raise NotImplementedError

    def structural_key(self, w: tuple):
        """Deterministic tie-break among canonical words of equal length."""
        raise NotImplementedError

    def format(self, x: GroupElement) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> GroupElement:
        raise NotImplementedError

    # -- metric -----------------------------------------------------------

    def word_length(self, x: GroupElement) -> int:
        """Length of the shortest generator word equal to ``x``.

        The default implementation grows the cached breadth-first layers until
        ``x`` is seen; subclasses with closed forms override it.
        """
        self._check(x)
        while x.word not in self._dist:
            before = len(self._dist)
            self._grow_layer()
            if len(self._dist) == before:
                raise MalformedWord(f"element {self.format(x)} is not generated")
        return self._dist[x.word]

    def sort_key(self, x: GroupElement):
        return (self.word_length(x), self.structural_key(x.word))

    def _sort_word(self, w: tuple):
        """``sort_key`` of a canonical word; free, free-abelian and finite
        contexts give it in closed form, without building an element."""
        return self.sort_key(GroupElement(self, w))

    # -- balls --------------------------------------------------------------

    def ball(self, r: int) -> list[GroupElement]:
        """All elements of word length <= r, shortlex ordered, no duplicates."""
        self._grow_to(r)
        out: list[GroupElement] = []
        for layer in self._layers[: r + 1]:
            out.extend(layer)
        return out

    def sphere(self, r: int) -> list[GroupElement]:
        """The elements of word length exactly r, in ball order."""
        self._grow_to(r)
        return list(self._layers[r]) if r < len(self._layers) else []

    def _grow_to(self, r: int) -> None:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        while len(self._layers) <= r:
            if not self._grow_layer():
                break

    def _grow_layer(self) -> bool:
        cap = ball_cap()
        if not self._layers:
            e = self.identity()
            self._dist[e.word] = 0
            self._layers.append([e])
            self._generator_words = tuple(g.word for g in self.generator_elements())
            return True
        layer = self._next_layer(cap - sum(map(len, self._layers)))
        if layer is None:
            raise BallCapExceeded(
                f"ball of radius {len(self._layers)} needs more than {cap} elements "
                f"(set {BALL_CAP_ENV} to raise the cap)"
            )
        self._layers.append(layer)
        return bool(layer)

    def _next_layer(self, room: int) -> list[GroupElement] | None:
        """The unseen neighbours of the last layer, sorted by ``structural_key``.

        Each product word is looked up once in the depth table ``_dist``,
        which this dedupe and the default ``word_length`` read, and a new one
        enters it at once; elements are built only for the sorted words.
        None once more than ``room`` new words are found: the search stops
        there and takes them out of ``_dist`` again.
        """
        gens, mul, dist = self._generator_words, self._mul, self._dist
        depth = len(self._layers)
        fresh: list[tuple] = []
        for x in self._layers[-1]:
            a = x.word
            for g in gens:
                w = mul(a, g)
                if w not in dist:
                    dist[w] = depth
                    fresh.append(w)
            if len(fresh) > room:
                for w in fresh:
                    del dist[w]
                return None
        fresh.sort(key=self.structural_key)
        return [GroupElement(self, w) for w in fresh]

    def _check(self, x: GroupElement) -> GroupElement:
        if x.ctx is not self:
            raise MalformedWord("element belongs to a different group context")
        return x

    def _check_all(self, *members) -> None:
        """Raise MalformedWord unless every element or subset given belongs here.

        A loop over raw words calls this once at its entry, in place of the
        check that ``multiply`` or ``contains`` makes on every call.
        """
        if any(m.ctx is not self for m in members):
            raise MalformedWord("element belongs to a different group context")


# ---------------------------------------------------------------------------
# Free groups
# ---------------------------------------------------------------------------


class FreeGroupContext(GroupContext):
    """Free group of finite rank; words are tuples of nonzero signed letters.

    Canonical words are freely reduced.  ``_mul`` cancels only at the
    seam: the product of two reduced words is the first without its last
    ``k`` letters followed by the second without its first ``k``, where ``k``
    counts the letters at the seam that are inverse to each other.
    """

    kind = "free"
    default_names = "abcdefgh"  # generator names when none are given

    def __init__(self, rank: int, names: Sequence[str] | None = None):
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.names = tuple(names) if names else tuple(self.default_names[:rank])
        if len(self.names) != rank:
            raise ValueError("need one name per generator")
        if any(len(n) != 1 or not n.islower() for n in self.names):
            raise ValueError("generator names must be single lowercase letters")
        if len(set(self.names)) != rank:
            raise ValueError(f"generator names {list(self.names)} must be distinct")
        # shortlex tie-break: a, A, b, B, ... (letter i ranks 2i-2, its inverse 2i-1)
        self._letters = tuple(l for i in range(1, rank + 1) for l in (i, -i))
        self._letter_ranks = {l: k for k, l in enumerate(self._letters)}

    def identity(self) -> GroupElement:
        return GroupElement(self, ())

    def generator(self, i: int, power: int = 1) -> GroupElement:
        if not 1 <= i <= self.rank:
            raise MalformedWord(f"no generator {i}")
        return self.from_letters([i if power >= 0 else -i] * abs(power))

    def from_letters(self, letters: Iterable[int]) -> GroupElement:
        stack: list[int] = []
        for l in letters:
            if l == 0 or abs(l) > self.rank:
                raise MalformedWord(f"letter {l} outside alphabet")
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
        return GroupElement(self, tuple(stack))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        k = 0
        most = min(len(a), len(b))
        while k < most and a[-1 - k] == -b[k]:
            k += 1
        return a[: len(a) - k] + b[k:]

    def _inv(self, a: tuple) -> tuple:
        return tuple(map(neg, reversed(a)))

    def word_length(self, x: GroupElement) -> int:
        self._check(x)
        return len(x.word)

    def generator_elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self, (l,)) for l in self._letters)

    def structural_key(self, w: tuple):
        return tuple(map(self._letter_ranks.__getitem__, w))

    def _sort_word(self, w: tuple):
        return (len(w), tuple(map(self._letter_ranks.__getitem__, w)))

    def _next_layer(self, room: int) -> list[GroupElement] | None:
        """Each word of the last layer followed by each letter in rank order.

        The letter that would cancel is skipped, so every word is reduced and
        new, and the result is shortlex sorted because the last layer is:
        no multiply, dedupe or sort is needed.  The layer's size is known in
        closed form, so one larger than ``room`` is refused (None) unbuilt.
        """
        last = self._layers[-1]
        size = 2 * self.rank if len(self._layers) == 1 else len(last) * (2 * self.rank - 1)
        if size > room:
            return None
        out: list[GroupElement] = []
        for x in last:
            w = x.word
            cancel = -w[-1] if w else 0
            out.extend([GroupElement(self, w + (l,)) for l in self._letters if l != cancel])
        return out

    def format(self, x: GroupElement) -> str:
        if not x.word:
            return "e"
        return "".join(
            self.names[l - 1] if l > 0 else self.names[-l - 1].upper() for l in x.word
        )

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text in ("e", ""):
            return self.identity()
        letters = []
        for ch in text:
            low = ch.lower()
            if low not in self.names:
                raise MalformedWord(f"letter {ch!r} outside alphabet")
            i = self.names.index(low) + 1
            letters.append(i if ch.islower() else -i)
        return self.from_letters(letters)


# ---------------------------------------------------------------------------
# Free abelian groups
# ---------------------------------------------------------------------------


class FreeAbelianContext(GroupContext):
    """Z^n; canonical words are the integer vectors themselves.

    Shortlex tie-breaking uses the plain tuple order, so for Z the ball of
    radius 2 enumerates as 0, -1, 1, -2, 2.  Z itself, the base of Toeplitz,
    Lance's Z*Z and the Baumslag-Solitar groups, is the innermost kernel of
    most suites, so ``_mul``, ``_inv`` and ``_sort_word`` branch on rank 1
    and build its one-entry word directly; higher ranks map over the entries.
    """

    kind = "free-abelian"

    def __init__(self, rank: int, names: Sequence[str] | None = None):
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.names = tuple(names) if names else None
        if self.names and len(self.names) != rank:
            raise ValueError("need one name per generator")
        if self.names and len(set(self.names)) != rank:
            raise ValueError(f"generator names {list(self.names)} must be distinct")

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank)

    def vector(self, *coords: int) -> GroupElement:
        if len(coords) != self.rank:
            raise MalformedWord(f"expected {self.rank} coordinates")
        return GroupElement(self, tuple(int(c) for c in coords))

    def integer(self, n: int) -> GroupElement:
        if self.rank != 1:
            raise MalformedWord("integer() needs rank 1")
        return GroupElement(self, (int(n),))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        if self.rank == 1:
            return (a[0] + b[0],)
        return tuple(map(add, a, b))

    def _inv(self, a: tuple) -> tuple:
        if self.rank == 1:
            return (-a[0],)
        return tuple(map(neg, a))

    def word_length(self, x: GroupElement) -> int:
        self._check(x)
        return sum(abs(a) for a in x.word)

    def generator_elements(self) -> tuple[GroupElement, ...]:
        out = []
        for i in range(self.rank):
            for s in (1, -1):
                vec = [0] * self.rank
                vec[i] = s
                out.append(GroupElement(self, tuple(vec)))
        return tuple(out)

    def structural_key(self, w: tuple):
        return w

    def _sort_word(self, w: tuple):
        if self.rank == 1:
            return (abs(w[0]), w)
        return (sum(map(abs, w)), w)

    def format(self, x: GroupElement) -> str:
        if self.rank == 1:
            n = x.word[0]
            if self.names:
                if n == 0:
                    return "e"
                if n == 1:
                    return self.names[0]
                return f"{self.names[0]}^{n}"
            return str(n)
        return "(" + ",".join(str(a) for a in x.word) + ")"

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text == "e":
            return self.identity()
        if self.rank == 1:
            if self.names and text.startswith(self.names[0]):
                rest = text[len(self.names[0]):]
                if not rest:
                    return GroupElement(self, (1,))
                return GroupElement(self, (_parse_int(rest.lstrip("^")),))
            return GroupElement(self, (_parse_int(text),))
        body = text.strip("()")
        coords = [_parse_int(part) for part in body.split(",")]
        return self.vector(*coords)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedWord(f"{text!r} is not an integer") from None


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------


class FiniteGroupContext(GroupContext):
    """Finite group from a row-major multiplication table.

    The table is validated exhaustively at construction (unit, inverses,
    associativity); word lengths over the stated generating set are
    precomputed by breadth-first search.
    """

    kind = "finite"

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        generators: Sequence[int] | None = None,
    ):
        super().__init__()
        n = len(table)
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        self.order = n
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(n))
        if len(self.names) != n:
            raise ValueError("need one name per element")
        if len(set(self.names)) != n:
            raise ValueError(f"element names {list(self.names)} must be distinct")
        self._identity_index = self._find_identity()
        self._inverse = self._find_inverses()
        self._validate_associativity()
        if generators is None:
            generators = [i for i in range(n) if i != self._identity_index]
        self.generators = tuple(int(g) for g in generators)
        bad = [g for g in self.generators if not 0 <= g < n or g == self._identity_index]
        if bad:
            raise ValueError(f"bad generator indices {bad}")
        self._lengths = self._bfs_lengths()

    def _find_identity(self) -> int:
        for i in range(self.order):
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(self.order)):
                return i
        raise ValueError("table has no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        e = self._identity_index
        for i in range(self.order):
            for j in range(self.order):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise ValueError(f"element {i} has no inverse")
        return tuple(inv)

    def _validate_associativity(self):
        rng = range(self.order)
        t = self.table
        for a in rng:
            for b in rng:
                ab = t[a][b]
                row_b = t[b]
                for c in rng:
                    if t[ab][c] != t[a][row_b[c]]:
                        raise ValueError(f"table not associative at ({a},{b},{c})")

    def _bfs_lengths(self) -> tuple[int, ...]:
        closed_gens = set(self.generators) | {self._inverse[g] for g in self.generators}
        dist = {self._identity_index: 0}
        frontier = [self._identity_index]
        while frontier:
            nxt = []
            for x in frontier:
                for g in sorted(closed_gens):
                    y = self.table[x][g]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) != self.order:
            raise ValueError("generators do not generate the group")
        return tuple(dist[i] for i in range(self.order))

    def identity(self) -> GroupElement:
        return GroupElement(self, (self._identity_index,))

    def element(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise MalformedWord(f"no element {index}")
        return GroupElement(self, (int(index),))

    def _mul(self, a: tuple, b: tuple) -> tuple:
        return (self.table[a[0]][b[0]],)

    def _inv(self, a: tuple) -> tuple:
        return (self._inverse[a[0]],)

    def word_length(self, x: GroupElement) -> int:
        self._check(x)
        return self._lengths[x.word[0]]

    def generator_elements(self) -> tuple[GroupElement, ...]:
        seen: dict[int, None] = {}
        for g in self.generators:
            seen.setdefault(g)
            seen.setdefault(self._inverse[g])
        return tuple(GroupElement(self, (g,)) for g in seen)

    def structural_key(self, w: tuple):
        return w

    def _sort_word(self, w: tuple):
        return (self._lengths[w[0]], w)

    def format(self, x: GroupElement) -> str:
        return self.names[x.word[0]]

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text in self.names:
            return GroupElement(self, (self.names.index(text),))
        raise MalformedWord(f"unknown element name {text!r}")

    def all_elements(self) -> list[GroupElement]:
        return [GroupElement(self, (i,)) for i in range(self.order)]


def cyclic_group(n: int) -> FiniteGroupContext:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroupContext(table, names=[str(i) for i in range(n)])


# ---------------------------------------------------------------------------
# Free products with amalgamation
# ---------------------------------------------------------------------------


class AmalgamContext(GroupContext):
    """Free product of two factors glued along a common finite subgroup.

    Canonical form: a tuple of syllables, each a nontrivial left-coset
    transversal representative in its factor, factors strictly alternating,
    followed by a trailing subgroup part.  Transversal representatives are the
    shortlex-least members of their cosets.

    The kernel works on factor words and calls the factors' own ``_mul`` and
    ``_inv``.  ``_mul`` reduces only at the seam: it appends the syllables of
    the right operand one at a time only while a subgroup part is being
    carried or the next syllable lies in the same factor as the last one of
    the product so far.  Once neither holds, the remaining syllables are
    already canonical and are joined on unchanged.  ``_inv`` starts from the
    inverse of the trailing part and takes the syllables in reverse order,
    each inverted in its factor, so the carry runs once.  Coset splits come
    from a table built at construction for finite factors, are the identity
    split when the gluing subgroup is trivial, and otherwise come from a
    search over the subgroup.
    """

    kind = "amalgam"

    def __init__(
        self,
        left: GroupContext,
        right: GroupContext,
        pairs: Sequence[tuple[GroupElement, GroupElement]],
        tags: tuple[str, str] = ("G:", "S:"),
    ):
        super().__init__()
        self.factors = (left, right)
        self.tags = tags
        pairs = list(pairs)
        ids = (left.identity(), right.identity())
        if not any(p[0].word == ids[0].word and p[1].word == ids[1].word for p in pairs):
            pairs.append(ids)
        pairs.sort(key=lambda p: (left.sort_key(p[0]), right.sort_key(p[1])))
        if pairs[0][0].word != ids[0].word:
            raise ValueError("identity pair must be shortlex-least in the gluing data")
        self.pairs = tuple((left._check(a), right._check(b)) for a, b in pairs)
        self._h_words = tuple((a.word, b.word) for a, b in self.pairs)  # H as factor words, by side
        self._h_index = (
            {a: i for i, (a, _) in enumerate(self._h_words)},
            {b: i for i, (_, b) in enumerate(self._h_words)},
        )
        if len(self._h_index[0]) != len(self.pairs) or len(self._h_index[1]) != len(self.pairs):
            raise ValueError("gluing data is not a bijection")
        self._validate_gluing()
        self._h_inverse = tuple(self._h_index[0][left._inv(a)] for a, _ in self._h_words)
        self._h_lengths = tuple(
            min(left.word_length(a), right.word_length(b)) for a, b in self.pairs
        )
        self._trivial_h = len(self.pairs) == 1
        self._split_tables = tuple(
            {x.word: self._split_search(side, x.word) for x in f.all_elements()}
            if isinstance(f, FiniteGroupContext) and not self._trivial_h
            else None
            for side, f in enumerate(self.factors)
        )
        self._syllable_counts_metric = self._all_factor_elements_generate()

    def _validate_gluing(self):
        """The pairing must be a subgroup isomorphism on both sides."""
        left, right = self.factors
        n = len(self.pairs)
        for i in range(n):
            a_i, b_i = self.pairs[i]
            if left.invert(a_i).word not in self._h_index[0]:
                raise ValueError("gluing subgroup not closed under inverses (left)")
            for j in range(n):
                a_j, b_j = self.pairs[j]
                prod_left = left.multiply(a_i, a_j)
                prod_right = right.multiply(b_i, b_j)
                k = self._h_index[0].get(prod_left.word)
                if k is None:
                    raise ValueError("gluing subgroup not closed under products")
                if self.pairs[k][1].word != prod_right.word:
                    raise ValueError("gluing pairing is not a homomorphism")

    def _all_factor_elements_generate(self) -> bool:
        # Syllable count equals word length only when every nontrivial factor
        # element is a single letter of the metric.
        for f in self.factors:
            if isinstance(f, FiniteGroupContext):
                if any(f.word_length(x) > 1 for x in f.all_elements()):
                    return False
            elif not self._trivial_h:
                return False
        return True

    # -- subgroup helpers ---------------------------------------------------

    def subgroup_size(self) -> int:
        return len(self.pairs)

    def h_element(self, h: int) -> GroupElement:
        """The trailing-part value ``h`` as a canonical element of the amalgam."""
        return GroupElement(self, ((), h))

    def _h_lookup(self, side: int, w: tuple) -> int | None:
        return self._h_index[side].get(w)

    def _split(self, side: int, w: tuple) -> tuple[tuple, int]:
        """Factor the factor word ``w = rep * h`` with rep shortlex-least in wH.

        Returns ``(rep word, h)``.
        """
        if self._trivial_h:
            return w, 0
        table = self._split_tables[side]
        if table is not None:
            return table[w]
        return self._split_search(side, w)

    def _split_search(self, side: int, w: tuple) -> tuple[tuple, int]:
        """The candidate loop defining the transversal: least ``w * h`` over H."""
        f = self.factors[side]
        cands = [f._mul(w, pair[side]) for pair in self._h_words]
        best = min(cands, key=f._sort_word)
        h = self._h_lookup(side, f._mul(f._inv(best), w))
        if h is None:  # pragma: no cover - guarded by gluing validation
            raise MalformedWord("transversal split left the subgroup")
        return best, h

    # -- canonical-form construction -----------------------------------------

    def identity(self) -> GroupElement:
        return GroupElement(self, ((), 0))

    def _append_letter(self, state: tuple, side: int, w: tuple) -> tuple:
        """Append the factor word ``w`` of factor ``side`` to a canonical state."""
        syllables, h = state
        f = self.factors[side]
        index = self._h_index[side]
        y = f._mul(self._h_words[h][side], w) if h else w
        hy = index.get(y)
        if hy is not None:
            return syllables, hy
        if syllables and syllables[-1][0] == side:
            z = f._mul(syllables[-1][1], y)
            hz = index.get(z)
            if hz is not None:
                return syllables[:-1], hz
            rep, h2 = self._split(side, z)
            return syllables[:-1] + ((side, rep),), h2
        rep, h2 = self._split(side, y)
        return syllables + ((side, rep),), h2

    def from_letters(self, letters: Iterable[tuple[int, GroupElement]]) -> GroupElement:
        state: tuple = ((), 0)
        for side, x in letters:
            if side not in (0, 1):
                raise MalformedWord(f"factor tag {side} must be 0 or 1")
            state = self._append_letter(state, side, self.factors[side]._check(x).word)
        return GroupElement(self, state)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        syllables, carry = a
        tail, h = b
        i = 0
        # Reduce only at the seam: once nothing is carried and the next
        # syllable switches factor, the rest of b's syllables are canonical.
        while i < len(tail) and (carry or (syllables and syllables[-1][0] == tail[i][0])):
            side, w = tail[i]
            syllables, carry = self._append_letter((syllables, carry), side, w)
            i += 1
        state = (syllables + tail[i:], carry)
        if h:
            state = self._append_letter(state, 0, self._h_words[h][0])
        return state

    def _inv(self, a: tuple) -> tuple:
        # The inverted syllables still alternate and none lies in H, so each
        # takes the carry, splits once and never merges with its neighbour.
        syllables, h = a
        h = self._h_inverse[h]
        out = []
        for side, w in reversed(syllables):
            f = self.factors[side]
            y = f._inv(w)
            rep, h = self._split(side, f._mul(self._h_words[h][side], y) if h else y)
            out.append((side, rep))
        return tuple(out), h

    # -- metric and order ----------------------------------------------------

    def word_length(self, x: GroupElement) -> int:
        self._check(x)
        syllables, h = x.word
        if not syllables:
            return 0 if h == 0 else self._h_lengths[h]
        if self._trivial_h:
            return sum(
                self.factors[side].word_length(GroupElement(self.factors[side], w))
                for side, w in syllables
            )
        if self._syllable_counts_metric:
            return len(syllables)
        return super().word_length(x)

    def generator_elements(self) -> tuple[GroupElement, ...]:
        seen: dict[tuple, GroupElement] = {}
        for side in (0, 1):
            for g in self.factors[side].generator_elements():
                el = self.from_letters([(side, g)])
                seen.setdefault(el.word, el)
        return tuple(seen.values())

    def structural_key(self, w: tuple):
        syllables, h = w
        body = tuple((side, self.factors[side]._sort_word(w)) for side, w in syllables)
        return (len(syllables), body, h)

    def format(self, x: GroupElement) -> str:
        syllables, h = x.word
        parts = [
            self.tags[side] + self.factors[side].format(GroupElement(self.factors[side], w))
            for side, w in syllables
        ]
        if h:
            parts.append("h[" + self.factors[0].format(self.pairs[h][0]) + "]")
        return "*".join(parts) if parts else "e"

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text == "e":
            return self.identity()
        letters = []
        for token in text.split("*"):
            token = token.strip()
            if token.startswith("h[") and token.endswith("]"):
                letters.append((0, self.factors[0].parse(token[2:-1])))
                continue
            for side in (0, 1):
                tag = self.tags[side]
                if tag and token.startswith(tag):
                    letters.append((side, self.factors[side].parse(token[len(tag):])))
                    break
            else:
                # untagged: try each factor in order
                for side in (0, 1):
                    try:
                        letters.append((side, self.factors[side].parse(token)))
                        break
                    except (MalformedWord, ValueError):
                        continue
                else:
                    raise MalformedWord(f"cannot place token {token!r} in either factor")
        return self.from_letters(letters)


# ---------------------------------------------------------------------------
# HNN extensions
# ---------------------------------------------------------------------------


class HnnSubgroupData:
    """Associated-subgroup data indexed by the stable letter's sign.

    Sign 1 is the subgroup H and sign -1 is K: ``t h t^-1 = image(1, h)`` lies
    in K, and ``image(-1, .)`` is its inverse map.  Every method takes and
    returns canonical words of the base group.
    """

    def member(self, sign: int, g: tuple) -> bool:
        raise NotImplementedError

    def image(self, sign: int, h: tuple) -> tuple:
        """``t^sign h t^-sign`` for a member h of the sign's subgroup."""
        raise NotImplementedError

    def split(self, sign: int, g: tuple) -> tuple[tuple, tuple]:
        """g = h * rep with h in the sign's subgroup, rep shortlex-least in its coset."""
        raise NotImplementedError


class IntegerScaledSubgroup(HnnSubgroupData):
    """Subgroups m*Z and n*Z of Z with the twist m*j -> n*j.

    ``h_step = 0`` encodes the trivial subgroup (so ``(0, 0)`` builds a free
    product of the base with the stable letter).
    """

    def __init__(self, base: FreeAbelianContext, h_step: int, k_step: int):
        if not isinstance(base, FreeAbelianContext) or base.rank != 1:
            raise ValueError("integer subgroup data needs the base Z (free abelian of rank 1)")
        if (h_step == 0) != (k_step == 0):
            raise ValueError("steps must be both zero or both nonzero")
        self.base = base
        self.steps = {1: abs(int(h_step)), -1: abs(int(k_step))}

    def member(self, sign: int, g: tuple) -> bool:
        step = self.steps[sign]
        return g[0] % step == 0 if step else g[0] == 0

    def image(self, sign: int, h: tuple) -> tuple:
        step = self.steps[sign]
        return (h[0] // step * self.steps[-sign] if step else 0,)

    def split(self, sign: int, g: tuple) -> tuple[tuple, tuple]:
        step = self.steps[sign]
        if step == 0:
            return (0,), g
        v = g[0]
        r = v % step
        rep = r if 2 * r < step else r - step  # least |rep|, the negative one on a tie
        return (v - rep,), (rep,)


class FiniteHnnSubgroup(HnnSubgroupData):
    """Explicit finite subgroup lists with the twist given as a table."""

    def __init__(self, base: GroupContext, twist_pairs: Sequence[tuple[GroupElement, GroupElement]]):
        self.base = base
        pairs = [(base._check(a).word, base._check(b).word) for a, b in twist_pairs]
        e = base.identity().word
        if e not in (a for a, _ in pairs):
            pairs.append((e, e))
        self._images = {1: dict(pairs), -1: {b: a for a, b in pairs}}
        if any(len(table) != len(pairs) for table in self._images.values()):
            raise ValueError("twist table must be a bijection")
        self._members = {1: tuple(a for a, _ in pairs), -1: tuple(b for _, b in pairs)}
        for a1, b1 in pairs:  # homomorphism check
            for a2, b2 in pairs:
                if self._images[1].get(base._mul(a1, a2)) != base._mul(b1, b2):
                    raise ValueError("twist table is not an injective homomorphism")

    def member(self, sign: int, g: tuple) -> bool:
        return g in self._images[sign]

    def image(self, sign: int, h: tuple) -> tuple:
        return self._images[sign][h]

    def split(self, sign: int, g: tuple) -> tuple[tuple, tuple]:
        base = self.base
        cands = {h: base._mul(base._inv(h), g) for h in self._members[sign]}
        h = min(cands, key=lambda h: base._sort_word(cands[h]))
        return h, cands[h]


class HnnContext(GroupContext):
    """HNN extension of a base group: one stable letter, pinches eliminated.

    Canonical form ``g0 t^(e1) g1 ... t^(en) gn`` where each ``g_i`` for
    ``i >= 1`` is the chosen transversal representative of its right coset
    (subgroup coset after ``t``, twisted-image coset after ``t^-1``) and no
    pinch ``t g t^-1``/``t^-1 g t`` with trivial representative remains; the
    leading ``g0`` absorbs the leftover subgroup parts.

    The kernel works on base words and calls the base's own ``_mul`` and
    ``_inv``.  A left operand with no stable letter has no seam: the product
    is its head times the right operand's head, followed by the right
    operand's blocks unchanged.  Otherwise ``_mul`` removes pinches only at
    the seam: it merges the last block of the left operand with the head of
    the right one and removes pinches there while they last, pushing each
    pinch image into the right operand's next element.  The right operand's
    remaining blocks are already transversal reps and are joined on
    unchanged.  The right-to-left
    transversal pass, shared with ``from_letters`` and ``_inv``, then carries
    leftwards only while the subgroup part is nontrivial: the left operand's
    other blocks are reps already, and the split of a rep is ``(e, rep)``.
    ``_inv`` reverses the blocks, inverts each base word, and runs that pass
    once (the inverse of a pinch-free word is pinch-free).
    """

    kind = "hnn"

    def __init__(self, base: GroupContext, data: HnnSubgroupData, t_name: str = "t"):
        super().__init__()
        self.base = base
        self.data = data
        self.t_name = t_name
        self._e = base.identity().word

    # payload: (g0_word, ((sign, g_word), ...))

    def identity(self) -> GroupElement:
        return GroupElement(self, (self._e, ()))

    def from_base(self, g: GroupElement) -> GroupElement:
        return GroupElement(self, (self.base._check(g).word, ()))

    def stable_letter(self, power: int = 1) -> GroupElement:
        letters = [("t", 1 if power > 0 else -1)] * abs(power)
        return self.from_letters(letters)

    def from_letters(self, letters: Iterable[tuple[str, object]]) -> GroupElement:
        """Build from ("g", base_element) and ("t", +1/-1) letters."""
        base = self.base
        head = self._e
        blocks: list[list] = []  # [sign, base word]
        for tag, val in letters:
            if tag == "g":
                g = base._check(val).word  # type: ignore[arg-type]
                if blocks:
                    blocks[-1][1] = base._mul(blocks[-1][1], g)
                else:
                    head = base._mul(head, g)
            elif tag == "t":
                sign = int(val)  # type: ignore[arg-type]
                if sign not in (1, -1):
                    raise MalformedWord("stable-letter power must be +1 or -1")
                if blocks and blocks[-1][0] == -sign:
                    pinch = self._pinch(*blocks[-1])
                    if pinch is not None:
                        blocks.pop()
                        if blocks:
                            blocks[-1][1] = base._mul(blocks[-1][1], pinch)
                        else:
                            head = base._mul(head, pinch)
                        continue
                blocks.append([sign, self._e])
            else:
                raise MalformedWord(f"unknown letter tag {tag!r}")
        head = self._transversal_pass(head, blocks)
        return GroupElement(self, (head, tuple(blocks)))

    def _pinch(self, sign: int, g: tuple) -> tuple | None:
        """The base word ``t^sign g t^-sign`` when it is one, else None."""
        return self.data.image(sign, g) if self.data.member(sign, g) else None

    def _transversal_pass(self, head: tuple, blocks: list, settled: int = 0) -> tuple:
        """Make each block ``(sign, base word)`` hold its transversal rep, right to left.

        Each nontrivial subgroup part is pushed through its stable letter into
        the block on its left, or into ``head``, which is returned.
        ``blocks[:settled]`` hold reps already, so the pass stops at the first
        trivial part with only such blocks to its left.
        """
        mul, split, image, e = self.base._mul, self.data.split, self.data.image, self._e
        for i in range(len(blocks) - 1, -1, -1):
            sign, g = blocks[i]
            h, rep = split(sign, g)
            blocks[i] = (sign, rep)
            if h == e:
                if i <= settled:
                    break
            elif i:
                blocks[i - 1] = (blocks[i - 1][0], mul(blocks[i - 1][1], image(sign, h)))
            else:
                head = mul(head, image(sign, h))
        return head

    def _mul(self, a: tuple, b: tuple) -> tuple:
        mul = self.base._mul
        head, left = a
        g, right = b
        if not left:  # no seam: a's head joins b's, and b's blocks are reps
            return mul(head, g), right
        # Remove pinches only at the seam.  ``g`` is what b contributes to the
        # element of a's last surviving block (or to a's head once a has no
        # blocks left); each pinch image is pushed into b's next element.
        i, j = len(left), 0
        while True:
            merged = mul(left[i - 1][1] if i else head, g)
            if not i or j == len(right) or left[i - 1][0] != -right[j][0]:
                break
            pinch = self._pinch(left[i - 1][0], merged)
            if pinch is None:
                break
            g = mul(pinch, right[j][1])
            i, j = i - 1, j + 1
        # b's remaining blocks are transversal reps and carry nothing, and so
        # are a's blocks left of the merged one.
        if not i:
            return merged, right[j:]
        blocks = list(left[:i])
        blocks[-1] = (left[i - 1][0], merged)
        head = self._transversal_pass(head, blocks, i - 1)
        return head, tuple(blocks) + right[j:]

    def _inv(self, a: tuple) -> tuple:
        inv = self.base._inv
        g, blocks = a
        out = []  # x^-1 = gn^-1 t^-en ... g1^-1 t^-e1 g0^-1, blocks collected reversed
        for sign, w in blocks:
            out.append((-sign, inv(g)))
            g = w
        out.reverse()
        head = self._transversal_pass(inv(g), out)
        return head, tuple(out)

    def generator_elements(self) -> tuple[GroupElement, ...]:
        out = [self.from_base(g) for g in self.base.generator_elements()]
        out.append(self.stable_letter(1))
        out.append(self.stable_letter(-1))
        return tuple(out)

    def structural_key(self, w: tuple):
        sort_word = self.base._sort_word
        head, blocks = w
        body = tuple((0 if sign == 1 else 1, sort_word(w)) for sign, w in blocks)
        return (len(blocks), sort_word(head), body)

    def format(self, x: GroupElement) -> str:
        base = self.base
        parts = []
        if x.word[0] != self._e or not x.word[1]:
            parts.append(base.format(GroupElement(base, x.word[0])))
        for sign, w in x.word[1]:
            parts.append(self.t_name if sign == 1 else f"{self.t_name}^-1")
            if w != self._e:
                parts.append(base.format(GroupElement(base, w)))
        return "*".join(parts)

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text == "e":
            return self.identity()
        letters: list[tuple[str, object]] = []
        for token in text.split("*"):
            token = token.strip()
            if token == self.t_name:
                letters.append(("t", 1))
            elif token == f"{self.t_name}^-1":
                letters.append(("t", -1))
            else:
                letters.append(("g", self.base.parse(token)))
        return self.from_letters(letters)


# ---------------------------------------------------------------------------
# Ready-made contexts
# ---------------------------------------------------------------------------


def integers() -> FreeAbelianContext:
    return FreeAbelianContext(1)


def integer_lattice(rank: int) -> FreeAbelianContext:
    return FreeAbelianContext(rank)


def free_group(rank: int, names: Sequence[str] | None = None) -> FreeGroupContext:
    return FreeGroupContext(rank, names)


def amalgam_z4_z6() -> AmalgamContext:
    """Z/4 glued to Z/6 along the common order-2 subgroup {0,2} ~ {0,3}."""
    g = cyclic_group(4)
    s = cyclic_group(6)
    return AmalgamContext(g, s, [(g.element(2), s.element(3))])


def free_product_of_two_integers() -> AmalgamContext:
    """Z * Z presented as an amalgam over the trivial subgroup."""
    g = FreeAbelianContext(1, names=("a",))
    s = FreeAbelianContext(1, names=("b",))
    return AmalgamContext(g, s, [], tags=("", ""))


def baumslag_solitar(m: int, n: int) -> HnnContext:
    """The one-relator group with t a^m t^-1 = a^n, as an HNN extension of Z."""
    base = FreeAbelianContext(1, names=("a",))
    return HnnContext(base, IntegerScaledSubgroup(base, m, n))


def free_group_as_hnn() -> HnnContext:
    """Z * <t>: HNN extension of Z over the trivial subgroup."""
    base = FreeAbelianContext(1, names=("a",))
    return HnnContext(base, IntegerScaledSubgroup(base, 0, 0))
