"""Exact finite truncations of partial translation operators.

Operators live on a *window*: the shortlex-ordered list of subset elements
within a ball.  Entries are exact rationals, held as ``int`` when integral
and as ``Fraction`` otherwise, never as ``float``: the 0/1 partial
translations and their integer combinations stay ``int``, and a ``Fraction``
appears only where a division or a non-integral coefficient forces it.
Membership questions are always answered by the subset's total predicate, so
an entry is either exactly correct or the row is marked *clipped* because the
true image (or, for columns, the true preimage) leaves the window.  Equality
assertions compare only mutually unclipped rows and are therefore exact
statements about the untruncated operators.

The construction loops (``_partial_translation``, behind every generator and
track operator, and ``coset_projection``) run on canonical words: they check
once at their entry that the window, the domain and the translating elements
share one group context (``MalformedWord`` otherwise), then multiply with the
context's ``_mul`` and ask the domain's ``predicate`` and the window's word
index, building no element per window point.  On the whole group G, the
domain whose predicate is ``subsets.everything``, a partial translation asks
no predicate and multiplies each window point once: every point lies in G and
stays there, so a row is clipped exactly when its image misses the window,
and a column holding y exactly when no row reaches y's indexed position (were
y * t a window point, its row would reach it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .groups import GroupElement, MalformedWord
from .reports import FALSIFIED, VERIFIED, CheckReport
from .subsets import SubsetSpec, everything
from .tracks import Track, support

ZERO = 0
ONE = 1


class Window:
    """The members of a subset within a radius, in ball order.

    ``Window(spec, radius, points, index)``: ``points`` are the window's
    elements and ``index`` maps each point's word to its position in
    ``points``.  Treat instances as immutable.
    """

    __slots__ = ("spec", "radius", "points", "index")

    def __init__(self, spec: SubsetSpec, radius: int, points: tuple[GroupElement, ...], index: dict):
        self.spec = spec
        self.radius = radius
        self.points = points
        self.index = index

    def __len__(self) -> int:
        return len(self.points)

    def position(self, x: GroupElement) -> int | None:
        return self.index.get(x.word)

    def report_form(self):
        return {"subset": self.spec.name, "R": self.radius, "size": len(self.points)}


def make_window(spec: SubsetSpec, radius: int) -> Window:
    points = tuple(spec.elements_in_ball(radius))
    index = {x.word: i for i, x in enumerate(points)}
    return Window(spec, radius, points, index)


class TranslationOperator:
    """Sparse rational matrix on a window with clipping bookkeeping.

    ``entries[(row, col)]`` is the coefficient of the target basis vector
    ``col`` in the image of the source basis vector ``row``.  ``clipped_rows``
    are sources whose true image leaves the window; ``clipped_cols`` are
    targets that the true operator reaches from outside the window.  Treat
    instances as immutable.

    The operator keeps the ``entries`` dict it is given, unfiltered: every
    builder holds no zero in it (sums that cancel are popped) and hands it
    over, changing it no more.
    """

    __slots__ = ("window", "entries", "clipped_rows", "clipped_cols", "_rows")

    def __init__(
        self,
        window: Window,
        entries: dict,
        clipped_rows: Iterable[int] = (),
        clipped_cols: Iterable[int] = (),
    ):
        self.window = window
        self.entries = entries
        self.clipped_rows = frozenset(clipped_rows)
        self.clipped_cols = frozenset(clipped_cols)
        self._rows: dict[int, dict[int, int | Fraction]] | None = None

    def rows(self) -> dict:
        """The entries grouped as ``{row: {col: coeff}}``, built on the first call
        and shared by every later one: read it, never change it."""
        if self._rows is None:
            self._rows = {}
            for (r, c), v in self.entries.items():
                self._rows.setdefault(r, {})[c] = v
        return self._rows

    def report_form(self):
        w = self.window
        return {
            "window": w,
            "entries": sorted(
                [w.spec.ctx.format(w.points[r]), w.spec.ctx.format(w.points[c]), v.numerator, v.denominator]
                for (r, c), v in self.entries.items()
            ),
            "clipped": sorted(w.spec.ctx.format(w.points[r]) for r in self.clipped_rows),
        }


def _same_window(a: TranslationOperator, b: TranslationOperator):
    if a.window is not b.window and a.window.points != b.window.points:
        raise MalformedWord("operators live on different windows")


def zero_operator(w: Window) -> TranslationOperator:
    return TranslationOperator(w, {})


def identity_operator(w: Window) -> TranslationOperator:
    return TranslationOperator(w, {(i, i): ONE for i in range(len(w))})


def _partial_translation(
    w: Window, total: GroupElement, middle: Sequence[GroupElement], domain: SubsetSpec
) -> TranslationOperator:
    """Source x maps to x * total^-1 when x, x * total^-1 and every x * h^-1
    (h in ``middle``) lie in the domain.

    A row is clipped when its image is beyond the window; a column is clipped
    when the operator reaches it from a source beyond the window.  A column
    that some row maps onto is reached from a window point, so it is never
    clipped and the column pass skips it.  A translation by e moves nothing:
    each row is its own image, found with no kernel call, and no column is
    reached from beyond the window, so there is no column pass.

    On the whole group G (``domain.predicate is everything``) every point lies
    in the domain and stays there, so the middle changes nothing and one pass
    decides both clip sets: row i maps to the position of x * total^-1, a miss
    clips the row, and column j, holding y, is clipped exactly when no row
    reached ``index[y]`` (j itself unless the window repeats y), for were
    y * total a window point, its row would reach ``index[y]``.
    """
    spec = w.spec
    ctx = spec.ctx
    ctx._check_all(domain, total, *middle)
    mul, inside, index = ctx._mul, domain.predicate, w.index
    t = total.word
    moves = t != ctx.identity().word
    t_inv = ctx._inv(t) if moves else t
    if inside is everything:
        # at[j]: the position the index gives column j's point, j itself
        # unless the window repeats the point
        at = range(len(w)) if len(index) == len(w) else [index[x.word] for x in w.points]
        if not moves:  # each point is its own image, so every column is reached
            return TranslationOperator(w, {(i, j): ONE for i, j in enumerate(at)})
        entries = {}
        clipped_rows = []
        for i, x in enumerate(w.points):
            j = index.get(mul(x.word, t_inv))
            if j is None:
                clipped_rows.append(i)
            else:
                entries[(i, j)] = ONE
        reached = {j for _, j in entries}
        clipped_cols = [j for j, k in enumerate(at) if k not in reached]
        return TranslationOperator(w, entries, clipped_rows, clipped_cols)
    # window points lie in the window's subset by construction
    test_source = domain is not spec
    # the rule of tracks.support, on the middle points alone
    stays = support(Track(total, tuple(middle)), domain)
    entries = {}
    reached = set()
    clipped_rows = set()
    clipped_cols = set()
    for i, x in enumerate(w.points):
        x = x.word
        if test_source and not inside(x):
            continue
        y = mul(x, t_inv) if moves else x
        if inside(y) and (not middle or stays(x)):
            j = index.get(y)
            if j is None:
                clipped_rows.add(i)
            else:
                entries[(i, j)] = ONE
                reached.add(j)
    for j, y in enumerate(w.points if moves else ()):
        y = y.word
        if j in reached or (test_source and not inside(y)):
            continue
        x = mul(y, t)
        if x not in index and inside(x) and (not middle or stays(x)):
            clipped_cols.add(j)
    return TranslationOperator(w, entries, clipped_rows, clipped_cols)


def generator_operator(w: Window, g: GroupElement, domain: SubsetSpec | None = None) -> TranslationOperator:
    """The partial translation by g on a domain: source x maps to x * g^-1.

    The domain defaults to the window's own subset.  A row is present when
    both x and x * g^-1 lie in the domain; it is clipped when the image is in
    the domain but beyond the window.  Columns receiving from beyond the
    window are recorded symmetrically.
    """
    return _partial_translation(w, g, (), w.spec if domain is None else domain)


def track_operator(w: Window, track: Track) -> TranslationOperator:
    """Operator of a whole track: nonzero exactly where every visited point stays inside."""
    ends = (w.spec.ctx.identity().word, track.total.word)
    middle = [h for h in track.visited if h.word not in ends]
    return _partial_translation(w, track.total, middle, w.spec)


def compose(after: TranslationOperator, first: TranslationOperator) -> TranslationOperator:
    """Operator product ``after * first``: ``first`` acts on the vector first.

    Row bookkeeping: a source is clipped if ``first`` already lost its image,
    or if ``first`` maps it onto a row that ``after`` clips.  Columns mirror
    this through the targets.
    """
    _same_window(after, first)
    entries: dict[tuple[int, int], int | Fraction] = {}
    after_rows = after.rows()
    for (i, j), v in first.entries.items():
        arow = after_rows.get(j)
        if not arow:
            continue
        for k, u in arow.items():
            key = (i, k)
            acc = entries.get(key, ZERO) + v * u
            if acc == 0:
                entries.pop(key, None)
            else:
                entries[key] = acc
    clipped_rows = set(first.clipped_rows)
    for (i, j), v in first.entries.items():
        if j in after.clipped_rows:
            clipped_rows.add(i)
    clipped_cols = set(after.clipped_cols)
    for (j, k), v in after.entries.items():
        if j in first.clipped_cols:
            clipped_cols.add(k)
    return TranslationOperator(first.window, entries, clipped_rows, clipped_cols)


def compose_chain(ops: Sequence[TranslationOperator]) -> TranslationOperator:
    """Product in writing order: the rightmost operator acts first."""
    if not ops:
        raise ValueError("empty operator chain")
    acc = ops[-1]
    for op in reversed(ops[:-1]):
        acc = compose(op, acc)
    return acc


def adjoint(a: TranslationOperator) -> TranslationOperator:
    """Transpose; clipping for rows and columns swaps accordingly."""
    entries = {(c, r): v for (r, c), v in a.entries.items()}
    return TranslationOperator(a.window, entries, a.clipped_cols, a.clipped_rows)


def combine(coeffs: Sequence[Fraction | int], ops: Sequence[TranslationOperator]) -> TranslationOperator:
    """``sum(c * op)``; an integral coefficient acts as an ``int``."""
    if len(coeffs) != len(ops):
        raise ValueError("one coefficient per operator")
    if not ops:
        raise ValueError("empty combination")
    for op in ops[1:]:
        _same_window(ops[0], op)
    entries: dict[tuple[int, int], int | Fraction] = {}
    clipped_rows: set[int] = set()
    clipped_cols: set[int] = set()
    for c, op in zip(coeffs, ops):
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        clipped_rows |= op.clipped_rows
        clipped_cols |= op.clipped_cols
        if c == 0:
            continue
        for key, v in op.entries.items():
            acc = entries.get(key, ZERO) + c * v
            if acc == 0:
                entries.pop(key, None)
            else:
                entries[key] = acc
    return TranslationOperator(ops[0].window, entries, clipped_rows, clipped_cols)


def subtract(a: TranslationOperator, b: TranslationOperator) -> TranslationOperator:
    """``a - b``; equal to ``combine([1, -1], [a, b])`` without the scalings."""
    _same_window(a, b)
    entries = dict(a.entries)
    for key, v in b.entries.items():
        acc = entries.get(key, ZERO) - v
        if acc == 0:
            entries.pop(key, None)
        else:
            entries[key] = acc
    return TranslationOperator(
        a.window, entries, a.clipped_rows | b.clipped_rows, a.clipped_cols | b.clipped_cols
    )


def diagonal(w: Window, keep: Callable[[GroupElement], bool]) -> TranslationOperator:
    """Diagonal 0/1 projection onto the window points x with keep(x); never clipped."""
    return TranslationOperator(w, {(i, i): ONE for i, x in enumerate(w.points) if keep(x)})


def coset_projection(w: Window, subset: SubsetSpec, b: GroupElement) -> TranslationOperator:
    """Diagonal 0/1 projection onto the window points of the translate S*b, a coset H*b for a subgroup."""
    ctx = w.spec.ctx
    ctx._check_all(subset, b)
    mul, inside, b_inv = ctx._mul, subset.predicate, ctx._inv(b.word)
    return diagonal(w, lambda x: inside(mul(x.word, b_inv)))


def domain_projection(w: Window, g: GroupElement) -> TranslationOperator:
    """Diagonal projection onto {x : x * g^-1 in the subset}.

    Equals adjoint(T_g) @ T_g but built from the predicate, hence never
    clipped.
    """
    return coset_projection(w, w.spec, g)


class MatchResult:
    """``MatchResult(equal, rows_compared, mismatch=None)``: the outcome of
    ``guarded_equal``, with the first mismatching entry when not equal."""

    __slots__ = ("equal", "rows_compared", "mismatch")

    def __init__(self, equal: bool, rows_compared: int, mismatch: dict | None = None):
        self.equal = equal
        self.rows_compared = rows_compared
        self.mismatch = mismatch

    def report(self, name: str, params: dict | None = None, details: dict | None = None) -> CheckReport:
        """The check ``name`` of an operator identity: verified when the operators
        are equal, else falsified with the mismatch as its one witness; either way
        it compared ``rows_compared`` rows."""
        if self.equal:
            return CheckReport(name, params, VERIFIED, None, self.rows_compared, details)
        return CheckReport(name, params, FALSIFIED, [self.mismatch], self.rows_compared, details)


def guarded_equal(a: TranslationOperator, b: TranslationOperator) -> MatchResult:
    """Exact equality on every row that neither operator clipped."""
    _same_window(a, b)
    w = a.window
    excluded = a.clipped_rows | b.clipped_rows
    rows_a = a.rows()
    rows_b = b.rows()
    compared = 0
    for i in range(len(w)):
        if i in excluded:
            continue
        compared += 1
        ra = rows_a.get(i, {})
        rb = rows_b.get(i, {})
        if ra != rb:
            cols = sorted(set(ra) | set(rb), key=lambda c: (ra.get(c, ZERO) == rb.get(c, ZERO), c))
            c = cols[0]
            return MatchResult(
                False,
                compared,
                {
                    "row": w.points[i],
                    "col": w.points[c],
                    # a Fraction emits as [numerator, denominator], an int would not
                    "lhs": Fraction(ra.get(c, ZERO)),
                    "rhs": Fraction(rb.get(c, ZERO)),
                },
            )
    return MatchResult(True, compared)


def rank_of_vectors(vectors: Sequence[dict]) -> int:
    """Exact rank over Q of sparse vectors keyed by arbitrary hashable columns.

    Entries are ``int`` or ``Fraction``; the elimination divides as
    ``Fraction``, so integer input never falls into float arithmetic.
    """
    basis: list[dict] = []
    pivots: list = []
    for vec in vectors:
        work = dict(vec)
        for pivot, bvec in zip(pivots, basis):
            coeff = work.get(pivot)
            if coeff:
                factor = Fraction(coeff) / bvec[pivot]
                for k, v in bvec.items():
                    acc = work.get(k, ZERO) - factor * v
                    if acc == 0:
                        work.pop(k, None)
                    else:
                        work[k] = acc
        work = {k: v for k, v in work.items() if v != 0}
        if work:
            pivot = next(iter(work))  # any nonzero entry will do; the rank is the same
            pivots.append(pivot)
            basis.append(work)
    return len(basis)


def matrix_rank(a: TranslationOperator) -> int:
    return rank_of_vectors(list(a.rows().values()))


def mask_clipped_rows(a: TranslationOperator) -> TranslationOperator:
    """Zero out clipped rows, keeping the clip sets; used before rank claims."""
    entries = {k: v for k, v in a.entries.items() if k[0] not in a.clipped_rows}
    return TranslationOperator(a.window, entries, a.clipped_rows, a.clipped_cols)
