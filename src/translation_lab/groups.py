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

A context supplies word hooks, which take and return canonical words
(tuples): ``_mul`` and ``_inv`` for the arithmetic, ``_length`` for the word
metric, ``structural_key`` for the order within a sphere and ``_format`` for
the report form, with ``identity``, ``generator_elements`` and ``parse``.
The composite contexts call their factors' or base's hooks directly, so no
element is built between hook calls.  ``GroupContext`` is the one class that
takes elements: its ``multiply``, ``invert``, ``word_length``, ``sort_key``
and ``format`` check once that the operand belongs to the context and then
call the hook.

All contexts share the same metric machinery: the word metric of the stated
generating set, enumerated layer by layer and ordered shortlex.  Free groups,
the amalgams whose length adds over syllables and the HNN extensions over
trivial subgroups list each layer through one lister, ``_list_runs``, as
runs of letters, syllables or blocks, in the same order; the other contexts
(free-abelian and finite groups, the other amalgams and HNN extensions)
search it.  A breadth-first layer multiplies raw words, dedupes each product
once against the depth table and sorts the new words by ``structural_key``.
The layers hold canonical words, never elements: ``_sphere`` gives a layer's
words, and ``ball`` and ``sphere`` build elements only when a caller asks for
them.  The default ``_length`` reads that depth table, grown on demand (a
finite group builds it whole at construction); free, free-abelian, amalgam
and HNN contexts give ``_length`` in closed form where they can.  Contexts
are immutable after construction and all operations are pure.

No context is in a reference cycle.  An element points at its context, so a
context keeps words, not elements, and a free product's hooks close over its
factors, not over the context.  Reference counting frees a context and all it
built as soon as the last reference goes, which is what lets ``cli.dispatch``
pause the cyclic garbage collector.
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
        return self.ctx._format(self.word)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.ctx._format(self.word)}>"


class GroupContext:
    """Shared metric/enumeration machinery over a subclass's word hooks.

    This class alone takes elements: ``multiply``, ``invert``,
    ``word_length``, ``sort_key`` and ``format`` check the context once and
    call a word hook, and no subclass overrides them.  A subclass supplies
    ``_mul``, ``_inv``, ``_length`` (the breadth-first default below serves a
    context with no closed form), ``structural_key``, ``_format``,
    ``identity``, ``generator_elements`` and ``parse``.

    ``_layers[r]`` holds the canonical words of length r in ball order, and
    ``_next_layer`` returns words; ``ball`` and ``sphere`` build elements
    from them on each call, and ``_sphere`` gives the words themselves.
    """

    kind = "abstract"

    def __init__(self):
        self._layers: list[list[tuple]] = []  # canonical words, one list per word length
        self._dist: dict[tuple, int] = {}
        self._generator_words: tuple[tuple, ...] = ()  # set with the identity layer
        self._runs: list[dict] = [{(0, None): [()]}]  # the memo of a listed context (``_list_runs``)

    # -- checked entry points over the subclass's word hooks -----------------

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        if x.ctx is not self or y.ctx is not self:
            raise MalformedWord("element belongs to a different group context")
        return GroupElement(self, self._mul(x.word, y.word))

    def invert(self, x: GroupElement) -> GroupElement:
        return GroupElement(self, self._inv(self._check(x).word))

    def word_length(self, x: GroupElement) -> int:
        """Length of the shortest generator word equal to ``x``."""
        return self._length(self._check(x).word)

    def sort_key(self, x: GroupElement):
        return self._sort_word(self._check(x).word)

    def format(self, x: GroupElement) -> str:
        return self._format(self._check(x).word)

    # -- word hooks ---------------------------------------------------------

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

    def _format(self, w: tuple) -> str:
        """The report form of a canonical word, which ``parse`` reads back."""
        raise NotImplementedError

    def parse(self, text: str) -> GroupElement:
        raise NotImplementedError

    def _length(self, w: tuple) -> int:
        """Word length of a canonical word: the depth table, grown by
        breadth-first layers until ``w`` is seen."""
        while w not in self._dist:
            before = len(self._dist)
            self._grow_layer()
            if len(self._dist) == before:
                raise MalformedWord(f"element {self._format(w)} is not generated")
        return self._dist[w]

    def _sort_word(self, w: tuple):
        """``sort_key`` of a canonical word: shortlex by length, then structure."""
        return (self._length(w), self.structural_key(w))

    # -- balls --------------------------------------------------------------

    def ball(self, r: int) -> list[GroupElement]:
        """All elements of word length <= r, shortlex ordered, no duplicates."""
        self._grow_to(r)
        return [GroupElement(self, w) for layer in self._layers[: r + 1] for w in layer]

    def sphere(self, r: int) -> list[GroupElement]:
        """The elements of word length exactly r, in ball order."""
        return [GroupElement(self, w) for w in self._sphere(r)]

    def _sphere(self, r: int) -> list[tuple]:
        """The canonical words of word length exactly r, in ball order; the caller does not mutate them."""
        self._grow_to(r)
        return self._layers[r] if r < len(self._layers) else []

    def _grow_to(self, r: int) -> None:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        while len(self._layers) <= r:
            if not self._grow_layer():
                break

    def _grow_layer(self) -> bool:
        if not self._layers:
            e = self.identity().word
            self._dist[e] = 0
            self._layers.append([e])
            self._generator_words = tuple(g.word for g in self.generator_elements())
            return True
        cap = ball_cap()
        layer = self._next_layer(cap - sum(map(len, self._layers)))
        if layer is None:
            raise BallCapExceeded(
                f"ball of radius {len(self._layers)} needs more than {cap} elements "
                f"(set {BALL_CAP_ENV} to raise the cap)"
            )
        self._layers.append(layer)
        return bool(layer)

    def _next_layer(self, room: int) -> list[tuple] | None:
        """The unseen neighbours' words of the last layer, sorted by ``structural_key``.

        Each product word is looked up once in the depth table ``_dist``,
        which this dedupe and the default ``_length`` read, and a new one
        enters it at once.  None once more than ``room`` new words are
        found: the search stops there and takes them out of ``_dist`` again.
        """
        gens, mul, dist = self._generator_words, self._mul, self._dist
        depth = len(self._layers)
        fresh: list[tuple] = []
        for a in self._layers[-1]:
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
        return fresh

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


def _list_runs(runs: list[dict], n: int, pieces: dict, room: int) -> dict | None:
    """Append row ``n`` of the run memo ``runs`` and return it, or None past ``room``.

    A run is a tuple of pieces, each of a class and a weight.  ``pieces[c, m]``
    holds the one-piece runs of class ``c`` and weight ``m`` in ball order and
    the classes that may follow them, keyed by class in order and each class's
    weights ascending, none above ``n``.  ``runs[L][k, c]`` holds the
    ``k``-piece runs of weight ``L`` whose first piece has class ``c``, keyed
    in that order.  A run of row ``n`` is a first piece of weight ``m``
    joined to a run of row ``n - m`` whose first class may follow it, or to
    row 0's one empty run, whatever the piece.  So the row comes out keyed in
    the same order, and each list in lexicographic order of the pieces, with
    no multiply, dedupe or sort of runs.  It is counted before it is built: a
    row of more than ``room`` runs is refused, and nothing of it is built.
    """
    plan, size = [], 0  # (k, c, first pieces, the rest lists they take), the rest lists not copied
    for (c, m), (heads, follow) in pieces.items():
        rests: dict = {}  # piece count: the rest lists
        for (j, d), rest in runs[n - m].items():
            if d in follow or not j:
                rests.setdefault(j + 1, []).append(rest)
                size += len(heads) * len(rest)
        plan += [(k, c, heads, lists) for k, lists in rests.items()]
    if size > room:
        return None
    plan.sort(key=lambda part: part[0])  # stable: each piece count keeps its classes in order
    row: dict = {}
    for k, c, heads, lists in plan:
        row.setdefault((k, c), []).extend([head + run for head in heads for rest in lists for run in rest])
    runs.append(row)
    return row


# ---------------------------------------------------------------------------
# Free groups
# ---------------------------------------------------------------------------


class FreeGroupContext(GroupContext):
    """Free group of finite rank; words are tuples of nonzero signed letters.

    Canonical words are freely reduced.  ``_mul`` cancels only at the
    seam: the product of two reduced words is the first without its last
    ``k`` letters followed by the second without its first ``k``, where ``k``
    counts the letters at the seam that are inverse to each other.  Spheres
    come from the one lister, a reduced word being a run of letters.
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
        # the lister's pieces: each letter of weight 1, followed by any letter but its inverse
        self._pieces = {(l, 1): ([(l,)], [x for x in self._letters if x != -l]) for l in self._letters}

    def identity(self) -> GroupElement:
        return GroupElement(self, ())

    def generator(self, i: int, power: int = 1) -> GroupElement:
        if not 1 <= i <= self.rank:
            raise MalformedWord(f"no generator {i}")
        return GroupElement(self, (i if power >= 0 else -i,) * abs(power))

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

    def _length(self, w: tuple) -> int:
        return len(w)

    def generator_elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self, (l,)) for l in self._letters)

    def structural_key(self, w: tuple):
        return tuple(map(self._letter_ranks.__getitem__, w))

    def _next_layer(self, room: int) -> list[tuple] | None:
        """Sphere n from the one lister: a reduced word is a run of letters."""
        row = _list_runs(self._runs, len(self._layers), self._pieces, room)
        return None if row is None else [w for words in row.values() for w in words]

    def _format(self, w: tuple) -> str:
        if not w:
            return "e"
        return "".join(
            self.names[l - 1] if l > 0 else self.names[-l - 1].upper() for l in w
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
    Only Z may name its generator (``a^2``); a higher rank prints vectors.
    """

    kind = "free-abelian"

    def __init__(self, rank: int, names: Sequence[str] | None = None):
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.names = tuple(names) if names else None
        if self.names and (rank, len(self.names)) != (1, 1):
            raise ValueError(f"only Z takes a generator name, and one: got {list(self.names)} at rank {rank}")

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

    def _length(self, w: tuple) -> int:
        return sum(map(abs, w))

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
        return super()._sort_word(w)

    def _format(self, w: tuple) -> str:
        if self.rank == 1:
            n = w[0]
            if self.names:
                if n == 0:
                    return "e"
                if n == 1:
                    return self.names[0]
                return f"{self.names[0]}^{n}"
            return str(n)
        return "(" + ",".join(str(a) for a in w) + ")"

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
    associativity), and the breadth-first layers over the stated generating
    set are grown whole there too, so the depth table holds every length.
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
        # past the ball cap, which bounds infinite balls only
        self._grow_layer()
        while self._layers[-1]:
            self._layers.append(self._next_layer(n))
        if len(self._dist) != n:
            raise ValueError("generators do not generate the group")

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

    def generator_elements(self) -> tuple[GroupElement, ...]:
        seen: dict[int, None] = {}
        for g in self.generators:
            seen.setdefault(g)
            seen.setdefault(self._inverse[g])
        return tuple(GroupElement(self, (g,)) for g in seen)

    def structural_key(self, w: tuple):
        return w

    def _format(self, w: tuple) -> str:
        return self.names[w[0]]

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


def _check_isomorphism(left: GroupContext, right: GroupContext, pairs: Sequence[tuple], what: str) -> None:
    """Raise ValueError unless the word pairs ``(a, b)`` (an amalgam's gluing data, an HNN
    twist table) are a bijection whose ``a`` are closed under products and map products to products.
    """
    image = dict(pairs)
    if len(image) != len(pairs) or len(set(image.values())) != len(pairs):
        raise ValueError(f"{what} is not a bijection")
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            b = image.get(left._mul(a1, a2))
            if b is None:
                raise ValueError(f"{what} is not closed under products")
            if b != right._mul(b1, b2):
                raise ValueError(f"{what} is not multiplicative")


def _free_product_hooks(factors: tuple) -> tuple:
    """The hooks ``(_mul, _inv, _append_letter)`` of a free product of ``factors``.

    They close over the factors and their identity words, not over the
    context that stores them, so that context is in no reference cycle.  A
    merge at the seam is one factor product and one test against the factor's
    identity word, an identity drops the syllable, and the trailing part
    stays 0.
    """
    ids = tuple(f.identity().word for f in factors)

    def append(state: tuple, side: int, w: tuple) -> tuple:
        syllables = state[0]
        if syllables and syllables[-1][0] == side:
            w = factors[side]._mul(syllables[-1][1], w)
            syllables = syllables[:-1]
        if w == ids[side]:
            return syllables, 0
        return syllables + ((side, w),), 0

    def mul(a: tuple, b: tuple) -> tuple:
        left, right = a[0], b[0]
        if not left or not right or left[-1][0] != right[0][0]:
            return left + right, 0
        i, j = len(left), 0
        # Merge across the seam; a merge that gives the identity exposes the
        # next pair, which lies in one factor again since both sides alternate.
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            side = right[j][0]
            z = factors[side]._mul(left[i - 1][1], right[j][1])
            if z != ids[side]:
                return left[: i - 1] + ((side, z),) + right[j + 1 :], 0
            i -= 1
            j += 1
        return left[:i] + right[j:], 0

    def inv(a: tuple) -> tuple:
        return tuple([(side, factors[side]._inv(w)) for side, w in reversed(a[0])]), 0

    return mul, inv, append


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
    from a table built at construction for finite factors and otherwise from
    a search over the subgroup.

    With trivial gluing (H = {e}) the context is a free product, and
    ``__init__`` stores the hooks of ``_free_product_hooks`` as ``_mul``,
    ``_inv`` and ``_append_letter`` once.  They never split a syllable or look
    up the subgroup, and the nontrivial kernel pays no test for them.

    Word length adds over syllables, each counted by its factor's length (1
    for a nontrivial glued element alone), with trivial gluing and when every
    nontrivial element of both finite factors is a letter.  There the one
    lister lists each sphere in ball order as runs of syllables from the
    factors' spheres.  Otherwise the length is the depth table's and the
    layers are searched: a glued element has no rule of its own, since it
    can be shorter over both factors' letters than in either factor.

    With both tags non-empty a token with no tag continues the syllable
    before it (an HNN factor's ``S:t*1`` is one syllable), but it may start a
    syllable of a factor whose tag is empty, so ``parse`` reads it first in a
    factor with the empty tag, then in the factor of the syllable it
    continues.  The loader refuses an empty tag beside an HNN factor, where
    that reading is ambiguous.
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
        pairs.sort(key=lambda p: (left.sort_key(p[0]), right.sort_key(p[1])))  # (e, e) first
        self.pairs = tuple((left._check(a), right._check(b)) for a, b in pairs)
        self._h_words = tuple((a.word, b.word) for a, b in self.pairs)  # H as factor words, by side
        _check_isomorphism(left, right, self._h_words, "gluing data")
        self._h_index = (
            {a: i for i, (a, _) in enumerate(self._h_words)},
            {b: i for i, (_, b) in enumerate(self._h_words)},
        )
        self._h_inverse = tuple(self._h_index[0][left._inv(a)] for a, _ in self._h_words)
        self._trivial_h = len(self.pairs) == 1
        if self._trivial_h:
            self._mul, self._inv, self._append_letter = _free_product_hooks(self.factors)
        else:
            self._split_tables = tuple(
                {x.word: self._split_search(side, x.word) for x in f.all_elements()}
                if isinstance(f, FiniteGroupContext)
                else None
                for side, f in enumerate(self.factors)
            )
        # length adds over syllables with trivial gluing, or when every nontrivial
        # element of both finite factors is a letter (an empty sphere of radius 2)
        self._length_adds = self._trivial_h or all(
            isinstance(f, FiniteGroupContext) and not f._sphere(2) for f in self.factors
        )

    # -- subgroup helpers ---------------------------------------------------

    def subgroup_size(self) -> int:
        return len(self.pairs)

    def h_element(self, h: int) -> GroupElement:
        """The trailing-part value ``h`` as a canonical element of the amalgam."""
        return GroupElement(self, ((), h))

    def _split(self, side: int, w: tuple) -> tuple[tuple, int]:
        """Factor the factor word ``w = rep * h`` with rep shortlex-least in wH.

        Returns ``(rep word, h)``.
        """
        table = self._split_tables[side]
        if table is not None:
            return table[w]
        return self._split_search(side, w)

    def _split_search(self, side: int, w: tuple) -> tuple[tuple, int]:
        """The candidate loop defining the transversal: least ``w * h_i`` over H, and ``w = (w * h_i) * h_i^-1``."""
        f = self.factors[side]
        cands = [f._mul(w, pair[side]) for pair in self._h_words]
        i = min(range(len(cands)), key=lambda i: f._sort_word(cands[i]))
        return cands[i], self._h_inverse[i]

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

    def _length(self, w: tuple) -> int:
        if not self._length_adds:
            return super()._length(w)
        syllables, h = w
        return sum(self.factors[side]._length(v) for side, v in syllables) or (1 if h else 0)

    def _next_layer(self, room: int) -> list[tuple] | None:
        """Sphere n from the one lister where length adds over syllables.

        A syllable is a piece of class its factor, weighted by its factor
        length, and only the other factor follows it.  The bare glued
        elements come first (n = 1), then each run followed by every trailing
        part in index order: ``structural_key``'s order.  Other amalgams search.
        """
        if not self._length_adds:
            return super()._next_layer(room)
        n, parts = len(self._layers), len(self.pairs)
        pieces = {}
        for side, f in enumerate(self.factors):
            for m in range(1, n + 1):  # the syllables: coset representatives outside H
                words = [w for w in f._sphere(m) if self._trivial_h or self._split(side, w) == (w, 0)]
                pieces[side, m] = ([((side, w),) for w in words], (1 - side,))
        bare = parts - 1 if n == 1 else 0  # the glued elements but e, each of length 1
        row = _list_runs(self._runs, n, pieces, (room - bare) // parts)
        if row is None:
            return None
        out = [((), h) for h in range(1, bare + 1)]
        out.extend([(run, h) for runs in row.values() for run in runs for h in range(parts)])
        return out

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

    def _format(self, w: tuple) -> str:
        syllables, h = w
        parts = [self.tags[side] + self.factors[side]._format(v) for side, v in syllables]
        if h:
            parts.append("h[" + self.factors[0]._format(self._h_words[h][0]) + "]")
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
                # untagged: first in a factor with the empty tag, then the one it continues
                last = letters[-1][0] if letters else 0
                for side in sorted((last, 1 - last), key=lambda s: bool(self.tags[s])):
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


class IntegerScaledSubgroup:
    """Subgroups m*Z and n*Z of Z, m and n nonzero, with the twist m*j -> n*j.

    The subgroups are those of the steps' absolute values; steps of opposite
    signs twist by a negative factor, so ``(1, -2)`` is BS(1,-2).  The
    trivial subgroup is ``FiniteHnnSubgroup(base, [])``.
    """

    def __init__(self, base: FreeAbelianContext, h_step: int, k_step: int):
        if not isinstance(base, FreeAbelianContext) or base.rank != 1:
            raise ValueError("integer subgroup data needs the base Z (free abelian of rank 1)")
        if not h_step or not k_step:
            raise ValueError("integer subgroup steps must be nonzero (the trivial subgroup is \"theta\": [])")
        self.steps = {1: abs(int(h_step)), -1: abs(int(k_step))}
        self.twist_sign = -1 if (h_step < 0) != (k_step < 0) else 1

    def member(self, sign: int, g: tuple) -> bool:
        return g[0] % self.steps[sign] == 0

    def image(self, sign: int, h: tuple) -> tuple:
        return (h[0] // self.steps[sign] * self.steps[-sign] * self.twist_sign,)

    def generators(self, sign: int) -> list[tuple]:
        return [(self.steps[sign],)]

    def split(self, sign: int, g: tuple) -> tuple[tuple, tuple]:
        v, step = g[0], self.steps[sign]
        r = v % step
        rep = r if 2 * r < step else r - step  # least |rep|, the negative one on a tie
        return (v - rep,), (rep,)


class FiniteHnnSubgroup:
    """Finite subgroups with the twist given as a table of pairs ``(h, t h t^-1)``; no pairs: trivial ones."""

    def __init__(self, base: GroupContext, twist_pairs: Sequence[tuple[GroupElement, GroupElement]]):
        self.base = base
        pairs = [(base._check(a).word, base._check(b).word) for a, b in twist_pairs]
        e = self._e = base.identity().word
        if e not in (a for a, _ in pairs):
            pairs.append((e, e))
        _check_isomorphism(base, base, pairs, "twist table")
        self._images = {1: dict(pairs), -1: {b: a for a, b in pairs}}

    def member(self, sign: int, g: tuple) -> bool:
        return g in self._images[sign]

    def image(self, sign: int, h: tuple) -> tuple:
        return self._images[sign][h]

    def generators(self, sign: int) -> list[tuple]:
        return [h for h in self._images[sign] if h != self._e]

    def split(self, sign: int, g: tuple) -> tuple[tuple, tuple]:
        base = self.base
        cands = {h: base._mul(base._inv(h), g) for h in self._images[sign]}
        # a coset of the trivial subgroup is one word: no base length is needed
        h = min(cands, key=lambda h: base._sort_word(cands[h])) if len(cands) > 1 else self._e
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

    The subgroup ``data`` (``IntegerScaledSubgroup`` or ``FiniteHnnSubgroup``)
    is indexed by the stable letter's sign s, 1 for H and -1 for K, over base
    words: ``member(s, g)``, ``image(s, h) = t^s h t^-s``, ``split(s, g) =
    (h, rep)`` with ``g = h * rep`` and rep shortlex-least in its coset, and
    ``generators(s)``, none for a trivial subgroup.

    When both associated subgroups are trivial the extension is the free
    product of the base and ``<t>``: word length adds over the blocks,
    ``|g0| + sum(1 + |gi|)`` in the base's lengths, and the one lister lists
    each sphere in ball order as heads from the base's spheres before runs
    of blocks.  Every other extension (Baumslag-Solitar groups, a
    finite twist) takes its length from the depth table and searches its
    layers.
    """

    kind = "hnn"

    def __init__(self, base: GroupContext, data: IntegerScaledSubgroup | FiniteHnnSubgroup, t_name: str = "t"):
        super().__init__()
        self.base = base
        self.data = data
        self.t_name = t_name
        self._e = base.identity().word
        # over trivial subgroups the extension is the free product of the base and <t>
        self._length_adds = not data.generators(1) and not data.generators(-1)

    # payload: (g0_word, ((sign, g_word), ...))

    def identity(self) -> GroupElement:
        return GroupElement(self, (self._e, ()))

    def from_base(self, g: GroupElement) -> GroupElement:
        return GroupElement(self, (self.base._check(g).word, ()))

    def stable_letter(self, power: int) -> GroupElement:
        return GroupElement(self, (self._e, ((1 if power > 0 else -1, self._e),) * abs(power)))

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

    def _length(self, w: tuple) -> int:
        if not self._length_adds:
            return super()._length(w)
        length = self.base._length
        head, blocks = w
        return length(head) + sum(1 + length(g) for _, g in blocks)

    def _next_layer(self, room: int) -> list[tuple] | None:
        """Sphere n from the one lister over trivial subgroups.

        A body is a run of blocks ``t^s g`` of class s (1 before -1) and
        weight ``1 + |g|``; only sign s follows ``t^s e``, since ``t^s e
        t^-s`` is a pinch.  For each block count, each head from the base's
        spheres (shorter first) comes before every body of the remaining
        weight: ``structural_key``'s order.  Other extensions search.
        """
        if not self._length_adds:
            return super()._next_layer(room)
        n, runs = len(self._layers), self._runs
        heads = [self.base._sphere(m) for m in range(n + 1)]
        pieces = {
            (s, m): ([((s, g),) for g in heads[m - 1]], (s,) if m == 1 else (1, -1))
            for s in (1, -1)
            for m in range(1, n + 1)
        }
        # the bodies of row n take the head e; each longer head takes every lighter body
        longer = sum(len(heads[m]) * len(bodies) for m in range(1, n + 1) for bodies in runs[n - m].values())
        if _list_runs(runs, n, pieces, room - longer) is None:
            return None
        lists: dict = {}  # (k, m): the k-block bodies that follow a head of length m
        for m in range(n + 1):
            for (k, _), bodies in runs[n - m].items():
                lists.setdefault((k, m), []).append(bodies)
        out: list[tuple] = []
        for (k, m), parts in sorted(lists.items()):
            out.extend([(h, body) for h in heads[m] for bodies in parts for body in bodies])
        return out

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

    def _format(self, w: tuple) -> str:
        fmt = self.base._format
        head, blocks = w
        parts = []
        if head != self._e or not blocks:
            parts.append(fmt(head))
        for sign, g in blocks:
            parts.append(self.t_name if sign == 1 else f"{self.t_name}^-1")
            if g != self._e:
                parts.append(fmt(g))
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
    return HnnContext(base, FiniteHnnSubgroup(base, []))
