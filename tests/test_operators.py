import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generator_sequences, rng

from translation_lab import (
    SubsetSpec,
    adjoint,
    amalgam_subgroup,
    combine,
    compose,
    compose_chain,
    congruence_class,
    coordinate_halfspace,
    coset_cover,
    coset_projection,
    diagonal,
    difference,
    domain_projection,
    generator_operator,
    guarded_equal,
    identity_operator,
    make_tree_halfspace,
    make_window,
    matrix_rank,
    natural_numbers,
    positive_cone,
    subtract,
    track_of_sequence,
    track_operator,
    trivial_subgroup,
    whole_group,
    words_not_starting_with,
    zero_operator,
)
from translation_lab import operators as operators_module
from translation_lab.configs import load_subset
from translation_lab.groups import GroupElement, MalformedWord, integers
from translation_lab.operators import (
    TranslationOperator,
    Window,
    _partial_translation,
    mask_clipped_rows,
    rank_of_vectors,
)
from translation_lab.tracks import Track, compose_tracks, support


def is_partial_permutation(a) -> bool:
    """0/1 entries with at most one nonzero per row and per column."""
    row_seen: set[int] = set()
    col_seen: set[int] = set()
    for (r, c), v in a.entries.items():
        if v != 1:
            return False
        if r in row_seen or c in col_seen:
            return False
        row_seen.add(r)
        col_seen.add(c)
    return True


@pytest.fixture(scope="module")
def nat_window(z):
    return make_window(natural_numbers(z), 5)


def test_generator_rows_naturals(z, nat_window):
    fwd = generator_operator(nat_window, z.integer(1))
    # x -> x - 1 for x = 1..5; the origin row is empty; nothing clips
    assert sorted(fwd.entries) == [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]
    assert not fwd.clipped_rows
    bwd = generator_operator(nat_window, z.integer(-1))
    assert sorted(bwd.entries) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert bwd.clipped_rows == {5}


def test_rows_are_grouped_once_and_read_unchanged(monkeypatch, z, nat_window):
    """``rows()`` groups the entries once; compose, guarded_equal, matrix_rank
    and Lance's tensor action read the shared grouping without changing it."""
    from translation_lab.gallery import run_lance_difference_check
    from translation_lab.operators import TranslationOperator

    read = []
    rows = TranslationOperator.rows

    def recording(op):
        read.append(op)
        return rows(op)

    monkeypatch.setattr(TranslationOperator, "rows", recording)
    fwd = generator_operator(nat_window, z.integer(1))
    bwd = generator_operator(nat_window, z.integer(-1))
    product = compose(bwd, fwd)  # the projection onto x >= 1
    assert not guarded_equal(product, identity_operator(nat_window)).equal
    assert matrix_rank(fwd) == 5
    assert run_lance_difference_check(3).verdict == "verified-at-scale"
    monkeypatch.undo()
    assert {id(op) for op in read} >= {id(fwd), id(product)}
    for op in read:
        grouped = op.rows()
        assert op.rows() is grouped
        fresh = {}
        for (r, c), v in op.entries.items():
            fresh.setdefault(r, {})[c] = v
        assert grouped == fresh


def test_generator_origin_row_empty_for_marked_letter(f2):
    b = words_not_starting_with(f2, f2.invert(f2.generator(1)))
    w = make_window(b, 3)
    op = generator_operator(w, f2.generator(1))
    origin = w.position(f2.identity())
    assert not any(r == origin for r, _ in op.entries)


def test_track_operator_examples(z, nat_window):
    diag = track_operator(nat_window, track_of_sequence(z, [z.integer(-1), z.integer(1)]))
    assert sorted(diag.entries) == [(i, i) for i in range(1, 6)]
    # membership at the visited point 6 comes from the global predicate, so
    # the row at 5 is exact rather than clipped
    full = track_operator(nat_window, track_of_sequence(z, [z.integer(1), z.integer(-1)]))
    assert sorted(full.entries) == [(i, i) for i in range(6)]
    assert not full.clipped_rows
    ident = track_operator(nat_window, track_of_sequence(z, []))
    assert guarded_equal(ident, identity_operator(nat_window)).equal
    assert not ident.clipped_rows


def test_compose_matches_paper_order(z, nat_window):
    fwd = generator_operator(nat_window, z.integer(1))
    bwd = generator_operator(nat_window, z.integer(-1))
    assert guarded_equal(compose(fwd, bwd), identity_operator(nat_window)).equal
    result = guarded_equal(compose(bwd, fwd), identity_operator(nat_window))
    assert not result.equal
    assert result.mismatch["row"] == z.integer(0)


def test_zero_annihilates(z, nat_window):
    fwd = generator_operator(nat_window, z.integer(1))
    assert not compose(fwd, zero_operator(nat_window)).entries
    assert not compose(zero_operator(nat_window), fwd).entries


@pytest.mark.parametrize("ctx_name,subset_builder", [
    ("z", natural_numbers),
    ("z2", lambda c: coordinate_halfspace(c, 0, 0)),
    ("f2", positive_cone),
])
def test_track_operator_equals_generator_product(ctx_name, subset_builder, request):
    # sequences of length <= 3 over the whole unit ball (identity included),
    # window radius 6
    ctx = request.getfixturevalue(ctx_name)
    w = make_window(subset_builder(ctx), 6)
    alphabet = ctx.ball(1)
    for n in range(4):
        for seq in itertools.product(alphabet, repeat=n):
            track = track_of_sequence(ctx, list(seq))
            via_track = track_operator(w, track)
            ops = [generator_operator(w, g) for g in seq]
            via_product = compose_chain(ops) if ops else identity_operator(w)
            assert guarded_equal(via_track, via_product).equal


def test_composition_is_track_composition(z):
    w = make_window(natural_numbers(z), 6)
    gens = z.generator_elements()
    for seq in generator_sequences(z, 3):
        for cut in range(len(seq) + 1):
            t1 = track_of_sequence(z, seq[:cut])
            t2 = track_of_sequence(z, seq[cut:])
            lhs = track_operator(w, compose_tracks(z, t1, t2))
            rhs = compose(track_operator(w, t1), track_operator(w, t2))
            assert guarded_equal(lhs, rhs).equal


def test_partial_permutation_closure(f2):
    cone = positive_cone(f2)
    w = make_window(cone, 4)
    r = rng(37)
    gens = f2.generator_elements()
    for _ in range(100):
        ops = []
        for _ in range(r.randrange(1, 4)):
            op = generator_operator(w, gens[r.randrange(4)])
            ops.append(adjoint(op) if r.random() < 0.5 else op)
        assert is_partial_permutation(compose_chain(ops))


def test_adjoint_laws(z, nat_window):
    fwd = generator_operator(nat_window, z.integer(1))
    bwd = generator_operator(nat_window, z.integer(-1))
    assert guarded_equal(adjoint(fwd), bwd).equal
    assert adjoint(adjoint(fwd)).entries == fwd.entries
    proj = coset_projection(nat_window, trivial_subgroup(z), z.integer(0))
    assert adjoint(proj).entries == proj.entries


def test_partial_isometry_law_exactly(z, f2, nat_window):
    cone_w = make_window(positive_cone(f2), 4)
    cases = [(nat_window, z.integer(1)), (nat_window, z.integer(-1))]
    cases += [(cone_w, g) for g in f2.generator_elements()]
    for w, g in cases:
        t = generator_operator(w, g)
        t_star = adjoint(t)
        triple = compose_chain([t_star, t, t_star])
        assert triple.entries == t_star.entries


def test_linear_combination(z, nat_window):
    fwd = generator_operator(nat_window, z.integer(1))
    assert not combine([1, -1], [fwd, fwd]).entries
    defect = subtract(identity_operator(nat_window), compose(adjoint(fwd), fwd))
    assert all(r == c for r, c in defect.entries)
    assert all(v == Fraction(1) for v in defect.entries.values())
    p = coset_projection(nat_window, trivial_subgroup(z), z.integer(0))
    q = subtract(identity_operator(nat_window), p)
    assert guarded_equal(combine([1, 1], [p, q]), identity_operator(nat_window)).equal


def test_guarded_equal_certificate(z, nat_window):
    fwd = generator_operator(nat_window, z.integer(1))
    result = guarded_equal(fwd, fwd)
    assert result.equal and result.rows_compared == 6
    mismatch = guarded_equal(fwd, identity_operator(nat_window))
    assert not mismatch.equal and mismatch.mismatch is not None


def test_coset_projection_examples(z, amalgam, nat_window):
    e00 = coset_projection(nat_window, trivial_subgroup(z), z.integer(0))
    assert sorted(e00.entries) == [(0, 0)]
    assert matrix_rank(e00) == 1

    b = make_tree_halfspace(amalgam, "G")
    w = make_window(b, 2)
    h = amalgam_subgroup(amalgam)
    p_h = coset_projection(w, h, amalgam.identity())
    assert matrix_rank(p_h) == 2
    assert guarded_equal(compose(p_h, p_h), p_h).equal


def test_matrix_rank_basics(z, nat_window):
    assert matrix_rank(zero_operator(nat_window)) == 0
    assert matrix_rank(identity_operator(nat_window)) == len(nat_window)
    assert rank_of_vectors([{1: Fraction(1)}, {1: Fraction(2)}]) == 1
    assert rank_of_vectors([{1: Fraction(1), 2: Fraction(1)}, {2: Fraction(1)}]) == 2


def test_rank_of_integer_vectors_is_exact():
    # elimination in float arithmetic found ranks 7 and 3 here
    zero_one = [
        {1: 1, 2: 1},
        {3: 1, 4: 1},
        {1: 1, 3: 1, 4: 1, 5: 1},
        {0: 1, 2: 1, 3: 1, 5: 1},
        {0: 1, 1: 1},
        {1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        {0: 1, 1: 1, 2: 1, 4: 1, 5: 1},
    ]
    assert rank_of_vectors(zero_one) == 6
    assert rank_of_vectors([{2: 9, 3: 6}, {0: 21, 1: 12, 2: 30, 3: -3}, {0: 7, 1: 4, 2: 7, 3: -3}]) == 2


SMALL_INT_VECTORS = st.lists(
    st.dictionaries(st.integers(0, 3), st.integers(-5, 5), min_size=1, max_size=4), min_size=2, max_size=5
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SMALL_INT_VECTORS)
def test_rank_of_int_vectors_is_the_rank_of_their_fractions(vectors):
    rank = rank_of_vectors(vectors)
    columns = {k for vec in vectors for k, v in vec.items() if v}
    assert type(rank) is int
    assert rank == rank_of_vectors([{k: Fraction(v) for k, v in vec.items()} for vec in vectors])
    assert rank <= min(len(vectors), len(columns))


def test_coefficients_stay_int_until_a_fraction_enters(z, nat_window):
    t = generator_operator(nat_window, z.integer(1))
    u = generator_operator(nat_window, z.integer(-2))
    integral = [
        t,
        compose(t, u),
        subtract(t, u),
        adjoint(t),
        combine([1, -1], [t, u]),
        combine([Fraction(4, 2)], [t]),
    ]
    for op in integral:
        assert op.entries and all(type(v) is int for v in op.entries.values())
    half = combine([Fraction(1, 2)], [t])
    assert half.entries and all(type(v) is Fraction for v in half.entries.values())
    assert {tuple(e[2:]) for e in half.report_form()["entries"]} == {(1, 2)}
    for op in integral + [half]:
        assert type(matrix_rank(op)) is int


def test_domain_projection_agrees_with_star_product(z, f2, nat_window):
    for w, g in [
        (nat_window, z.integer(1)),
        (nat_window, z.integer(-2)),
        (make_window(positive_cone(f2), 4), f2.generator(1)),
    ]:
        built = domain_projection(w, g)
        t = generator_operator(w, g)
        assert guarded_equal(built, compose(adjoint(t), t)).equal
        assert not built.clipped_rows


# (fixture, subset B, subgroup H glued into B, window radius)
DOMAIN_CASES = {
    "nat": ("z", natural_numbers, trivial_subgroup, 6),
    "f2-cone": ("f2", positive_cone, trivial_subgroup, 3),
    "z4*z6-half": ("amalgam", lambda c: make_tree_halfspace(c, "G"), amalgam_subgroup, 3),
}


def _rows_by_point(op):
    """Each row of the operator as {column point: value}, keyed by its row point."""
    points = op.window.points
    return {points[r].word: {points[c].word: v for c, v in row.items()} for r, row in op.rows().items()}


def test_clipping_monotone_under_window_growth(request):
    """Generator words and tracks read the same on every row unclipped at R
    when the window grows to R + 2, and a comparison falsified at R stays
    falsified there, at its witness row."""
    for fixture, build_subset, _, radius in DOMAIN_CASES.values():
        _check_window_growth(request.getfixturevalue(fixture), build_subset, radius)


def _check_window_growth(ctx, build_subset, radius):
    spec = build_subset(ctx)
    # one past the domain radius: the amalgam window grows from 20 to 44 points
    small, large = make_window(spec, radius + 1), make_window(spec, radius + 3)
    gens = ctx.generator_elements()
    r = rng(radius)
    words = [[g] for g in gens]
    words += [[r.choice(gens) for _ in range(r.randint(2, 3))] for _ in range(4)]
    builders = [identity_operator]
    for word in words:
        product = functools.reduce(ctx.multiply, word)
        track = track_of_sequence(ctx, word)
        builders += [
            lambda w, g=product: generator_operator(w, g),
            lambda w, word=word: compose_chain([generator_operator(w, g) for g in word]),
            lambda w, track=track: track_operator(w, track),
        ]
    pairs = [(build(small), build(large)) for build in builders]
    for op_small, op_large in pairs:
        rows_small, rows_large = _rows_by_point(op_small), _rows_by_point(op_large)
        for i, x in enumerate(small.points):
            if i not in op_small.clipped_rows:
                assert large.position(x) not in op_large.clipped_rows
                assert rows_small.get(x.word, {}) == rows_large.get(x.word, {})
    falsified = 0
    for (a_small, a_large), (b_small, b_large) in itertools.combinations(pairs, 2):
        match = guarded_equal(a_small, b_small)
        if match.equal:
            continue
        falsified += 1
        assert not guarded_equal(a_large, b_large).equal
        x = match.mismatch["row"]
        j = large.position(x)
        assert j not in a_large.clipped_rows | b_large.clipped_rows
        assert _rows_by_point(a_large).get(x.word, {}) != _rows_by_point(b_large).get(x.word, {})
    assert falsified


def test_window_mismatch_rejected(z):
    w1 = make_window(natural_numbers(z), 4)
    w2 = make_window(natural_numbers(z), 5)
    with pytest.raises(Exception):
        compose(generator_operator(w1, z.integer(1)), generator_operator(w2, z.integer(1)))


def test_word_loops_check_the_context_at_their_entry(z):
    """The loops over raw words check their inputs' context once, at their entry.

    A second Z has the same words as z but other elements: without the entry
    check, a loop would read its words silently.
    """
    other = integers()
    nat = natural_numbers(z)
    w = make_window(nat, 6)
    foreign_track = track_of_sequence(other, [other.integer(1), other.integer(1)])
    with pytest.raises(MalformedWord):
        generator_operator(w, z.integer(1), natural_numbers(other))
    with pytest.raises(MalformedWord):
        generator_operator(w, other.integer(1))
    with pytest.raises(MalformedWord):
        track_operator(w, foreign_track)
    with pytest.raises(MalformedWord):
        support(foreign_track, nat)
    with pytest.raises(MalformedWord):
        coset_projection(w, trivial_subgroup(other), z.integer(1))
    with pytest.raises(MalformedWord):
        nat.contains(other.integer(1))
    with pytest.raises(MalformedWord):
        difference(nat, trivial_subgroup(other))
    # the same inputs in z's own context are fine
    assert generator_operator(w, z.integer(1), natural_numbers(z)).entries
    assert track_operator(w, track_of_sequence(z, [z.integer(1), z.integer(1)])).entries


@pytest.mark.parametrize("radius", [100, 200])
def test_generator_operator_builds_no_element_per_window_point(monkeypatch, radius):
    """The window loop runs on words: a longer window builds no more elements."""
    z = integers()
    w = make_window(natural_numbers(z), radius)
    one = z.integer(1)
    built = []
    init = GroupElement.__init__

    def counting(self, ctx, word):
        built.append(word)
        init(self, ctx, word)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    op = generator_operator(w, one)
    assert len(op.entries) == radius
    assert len(built) <= 2


def brute_force_translation(w, g, domain, visited):
    """Entries and clip sets of the operator of the track (g, visited) on domain.

    Built from the pairs (x, y) = (y * g, y) with x * h^-1 in the domain for
    every visited h and y in a ball large enough to reach every window point,
    independently of how the operator builders walk rows and columns.  A
    generator's visited points are e and g: x and y both lie in the domain.
    """
    ctx = w.spec.ctx
    inverses = [ctx.invert(h) for h in visited]
    entries, rows, cols = {}, set(), set()
    for y in ctx.ball(w.radius + ctx.word_length(g)):
        x = ctx.multiply(y, g)
        if not all(domain.contains(ctx.multiply(x, h_inv)) for h_inv in inverses):
            continue
        i, j = w.position(x), w.position(y)
        if i is not None and j is not None:
            entries[(i, j)] = Fraction(1)
        elif i is not None:
            rows.add(i)
        elif j is not None:
            cols.add(j)
    return entries, rows, cols


@pytest.mark.parametrize(
    "domain_kind", ["window-subset", "subset-in-whole-group", "subset-minus-subgroup", "tracks-on-window-subset"]
)
@pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
def test_generator_operator_matches_brute_force_on_domains(case, domain_kind, request):
    fixture, build_subset, build_subgroup, radius = DOMAIN_CASES[case]
    ctx = request.getfixturevalue(fixture)
    b_spec = build_subset(ctx)
    if domain_kind in ("window-subset", "tracks-on-window-subset"):
        w, domain, expected_domain = make_window(b_spec, radius), None, b_spec
    elif domain_kind == "subset-in-whole-group":
        w = make_window(whole_group(ctx), radius)
        domain = expected_domain = b_spec
    else:
        w = make_window(b_spec, radius)
        domain = expected_domain = difference(b_spec, build_subgroup(ctx))
    gens = ctx.generator_elements()
    if domain_kind == "tracks-on-window-subset":
        # two- and three-letter sequences that visit a point besides e and the
        # total; the three-letter ones step out and back in, so the middle
        # point decides some clipped columns in the cone
        sequences = [(a, b) for a in gens for b in gens]
        sequences += [(ctx.invert(a), a, b) for a in gens[:2] for b in gens]
        cases = []
        for seq in sequences:
            track = track_of_sequence(ctx, list(seq))
            if {h.word for h in track.visited} - {ctx.identity().word, track.total.word}:
                cases.append((track.total, track.visited, track_operator(w, track)))
        assert len(cases) >= 6
    else:
        elements = ctx.ball(1) + [ctx.multiply(a, b) for a in gens[:2] for b in gens[-2:]]
        cases = [(g, [ctx.identity(), g], generator_operator(w, g, domain)) for g in elements]
    for g, visited, op in cases:
        entries, rows, cols = brute_force_translation(w, g, expected_domain, visited)
        assert op.entries == entries, ctx.format(g)
        assert op.clipped_rows == rows, ctx.format(g)
        assert op.clipped_cols == cols, ctx.format(g)


def two_pass_translation(w, total, middle, domain):
    """Entries and clip sets of a partial translation, by two full passes.

    Source x maps to x * total^-1 when x, x * total^-1 and every x * h^-1
    (h in ``middle``) lie in the domain.  Every window point in the domain
    multiplies once as a row source and once as a column target, whether or
    not the row pass already reached it.
    """
    ctx = w.spec.ctx
    total_inv = ctx.invert(total)
    inverses = [ctx.invert(h) for h in middle]

    def stays(x):
        return all(domain.contains(ctx.multiply(x, h_inv)) for h_inv in inverses)

    entries, rows, cols = {}, set(), set()
    for i, x in enumerate(w.points):
        if not domain.contains(x):
            continue
        y = ctx.multiply(x, total_inv)
        if domain.contains(y) and stays(x):
            j = w.position(y)
            if j is None:
                rows.add(i)
            else:
                entries[(i, j)] = 1
    for j, y in enumerate(w.points):
        if not domain.contains(y):
            continue
        x = ctx.multiply(y, total)
        if w.position(x) is None and domain.contains(x) and stays(x):
            cols.add(j)
    return entries, rows, cols


# (fixture, subset, window radius)
TWO_PASS_CASES = {
    "z-nat.json": ("z", lambda c: load_subset(c, {"kind": "interval", "lo": 0}), 6),
    "f2-halfspace": ("f2", lambda c: words_not_starting_with(c, c.invert(c.generator(1))), 3),
    "z4*z6-G": ("amalgam", lambda c: make_tree_halfspace(c, "G"), 3),
    "bs12-B": ("bs12", lambda c: make_tree_halfspace(c, "B"), 3),
}


@pytest.mark.parametrize("case", sorted(TWO_PASS_CASES))
def test_partial_translation_matches_the_two_pass_oracle(case, request):
    fixture, build_subset, radius = TWO_PASS_CASES[case]
    ctx = request.getfixturevalue(fixture)
    spec = build_subset(ctx)
    w, w_whole = make_window(spec, radius), make_window(whole_group(ctx), radius)
    gens = ctx.generator_elements()
    elements = ctx.ball(1) + [ctx.multiply(a, b) for a in gens for b in gens]
    cases = []
    for g in elements:
        cases.append((w, g, [], spec, generator_operator(w, g)))
        # a domain that is not the window's subset: every source is tested
        cases.append((w_whole, g, [], spec, generator_operator(w_whole, g, spec)))
    ends = {ctx.identity().word}
    for seq in [(a, b) for a in gens for b in gens] + [(ctx.invert(a), a, b) for a in gens for b in gens]:
        track = track_of_sequence(ctx, list(seq))
        middle = [h for h in track.visited if h.word not in ends | {track.total.word}]
        if middle:
            cases.append((w, track.total, middle, spec, track_operator(w, track)))
    clipped_cols = 0
    for window, total, middle, domain, op in cases:
        entries, rows, cols = two_pass_translation(window, total, middle, domain)
        label = (ctx.format(total), [ctx.format(h) for h in middle])
        assert op.entries == entries, label
        assert op.clipped_rows == rows, label
        assert op.clipped_cols == cols, label
        clipped_cols += len(cols)
    assert clipped_cols and any(middle for _, _, middle, _, _ in cases)


@pytest.mark.parametrize("case", sorted(TWO_PASS_CASES))
def test_translation_by_e_makes_no_kernel_call(case, request, monkeypatch):
    """x * e = x: the unit operator takes each row as its own image, with no multiply,
    on the window's subset, on a whole-group window with the subset as domain and
    on a whole-group window with the whole group as domain."""
    fixture, build_subset, radius = TWO_PASS_CASES[case]
    ctx = request.getfixturevalue(fixture)
    spec, whole = build_subset(ctx), whole_group(ctx)
    w, w_whole = make_window(spec, radius), make_window(whole, radius)
    e = ctx.identity()
    cases = [(w, spec), (w_whole, spec), (w_whole, whole)]
    expected = [two_pass_translation(window, e, [], domain) for window, domain in cases]
    calls = []
    for name in ("_mul", "_inv"):
        kernel = getattr(ctx, name)
        monkeypatch.setattr(ctx, name, lambda *words, kernel=kernel: calls.append(words) or kernel(*words))
    ops = [generator_operator(window, e, domain) for window, domain in cases]
    assert calls == []
    for op, (entries, rows, cols) in zip(ops, expected):
        assert (op.entries, op.clipped_rows, op.clipped_cols) == (entries, rows, cols)
    assert len(ops[1].entries) == len(w) < len(w_whole) == len(ops[2].entries)


def test_subtract_equals_combine(z, f2, amalgam):
    cases = [
        (make_window(natural_numbers(z), 6), [z.integer(1), z.integer(-1), z.integer(2)]),
        (make_window(positive_cone(f2), 3), list(f2.generator_elements())),
        (make_window(make_tree_halfspace(amalgam, "G"), 3), list(amalgam.generator_elements())),
    ]
    for w, gens in cases:
        ops = [identity_operator(w), zero_operator(w)]
        for g in gens:
            t = generator_operator(w, g)
            ops += [t, adjoint(t), compose(adjoint(t), t), combine([2, Fraction(-1, 3)], [t, adjoint(t)])]
        for a in ops:
            for b in ops:
                got = subtract(a, b)
                want = combine([1, -1], [a, b])
                assert got.entries == want.entries
                assert got.clipped_rows == want.clipped_rows
                assert got.clipped_cols == want.clipped_cols
        assert not subtract(ops[2], ops[2]).entries


def test_diagonal_keeps_exactly_the_chosen_points(z):
    w = make_window(whole_group(z), 4)
    evens = diagonal(w, lambda x: x.word[0] % 2 == 0)
    assert sorted(z.format(w.points[i]) for i, _ in evens.entries) == ["-2", "-4", "0", "2", "4"]
    assert all(r == c and v == 1 for (r, c), v in evens.entries.items())
    assert not evens.clipped_rows and not evens.clipped_cols
    assert guarded_equal(diagonal(w, lambda x: True), identity_operator(w)).equal


@pytest.mark.parametrize("case", ["z-2Z", "z4*z6-H", "f2-powers-of-a"])
def test_coset_cover_is_a_set_of_distinct_cosets_covering_every_point(case, z, f2, amalgam):
    # right cosets H x; <a> is not normal in F2, so left cosets would differ
    if case == "z-2Z":
        ctx, sub = z, congruence_class(z, 2).left_stabiliser
    elif case == "z4*z6-H":
        ctx, sub = amalgam, amalgam_subgroup(amalgam)
    else:
        ctx, sub = f2, SubsetSpec(f2, "<a>", lambda w: all(l in (1, -1) for l in w))
    points = ctx.ball(3)
    reps = coset_cover(sub, points)
    same_coset = lambda x, y: sub.contains(ctx.multiply(x, ctx.invert(y)))
    for i, r in enumerate(reps):
        assert not any(same_coset(r, q) for q in reps[:i])
    for x in points:
        assert any(same_coset(x, r) for r in reps)
    # each representative is the first point of its coset, in the given order
    positions = [next(k for k, x in enumerate(points) if x.word == r.word) for r in reps]
    assert positions == sorted(positions)
    assert all(not any(same_coset(x, r) for x in points[:k]) for k, r in zip(positions, reps))


def generic_translation(w, total, middle, domain):
    """The partial translation by the loop that serves every domain but G: the
    domain's predicate asked of each source, image and middle point, then a
    column pass multiplying each unreached window point by ``total``."""
    ctx = w.spec.ctx
    test_source = domain is not w.spec
    stays = support(Track(total, tuple(middle)), domain)
    mul, inside, index = ctx._mul, domain.predicate, w.index
    t = total.word
    moves = t != ctx.identity().word
    t_inv = ctx._inv(t) if moves else t
    entries, reached, rows, cols = {}, set(), set(), set()
    for i, x in enumerate(w.points):
        x = x.word
        if test_source and not inside(x):
            continue
        y = mul(x, t_inv) if moves else x
        if inside(y) and (not middle or stays(x)):
            j = index.get(y)
            if j is None:
                rows.add(i)
            else:
                entries[(i, j)] = 1
                reached.add(j)
    for j, y in enumerate(w.points if moves else ()):
        y = y.word
        if j in reached or (test_source and not inside(y)):
            continue
        x = mul(y, t)
        if x not in index and inside(x) and (not middle or stays(x)):
            cols.add(j)
    return entries, rows, cols


# (fixture, the subset of the half-space window)
WHOLE_GROUP_CASES = {
    "z": ("z", natural_numbers),
    "f2": ("f2", positive_cone),
    "z*z": ("zz", lambda c: make_tree_halfspace(c, "G")),
    "z4*z6": ("amalgam", lambda c: make_tree_halfspace(c, "G")),
    "bs12": ("bs12", lambda c: make_tree_halfspace(c, "B")),
    "f2-as-hnn": ("f2_hnn", lambda c: make_tree_halfspace(c, "B")),
}


@pytest.mark.parametrize("case", sorted(WHOLE_GROUP_CASES))
def test_the_whole_group_pass_matches_the_generic_loop(case, request, monkeypatch):
    """On a whole-group domain one pass over the window, asking no predicate,
    gives the entries and clip sets of the generic loop: on a ball window, on
    a shuffled part of a ball (no ball, as Lance's grid is none), on a
    half-space window and on that shuffled part with some points repeated (as
    Lance's grid repeats a point when its product map is not bijective), for
    every t in the ball of radius 2, with and without a middle."""
    fixture, build_half = WHOLE_GROUP_CASES[case]
    ctx = request.getfixturevalue(fixture)
    whole = whole_group(ctx)
    points = ctx.ball(4)
    rng(27).shuffle(points)
    points = tuple(points[: 2 * len(points) // 3])
    # every seventh point again, indexed at its last position as the grid indexes a repeat
    repeated = points + points[::7]
    windows = [
        make_window(whole, 3),
        Window(whole, 4, points, {x.word: i for i, x in enumerate(points)}),
        make_window(build_half(ctx), 3),
        Window(whole, 4, repeated, {x.word: i for i, x in enumerate(repeated)}),
    ]
    middle = [g for g in ctx.ball(1) if g != ctx.identity()][:2]
    expected = {
        (k, t.word, bool(m)): generic_translation(w, t, m, whole)
        for k, w in enumerate(windows)
        for t in ctx.ball(2)
        for m in ([], middle)
    }
    # a whole-group predicate that counts its calls, recognised as G's
    asked = []
    monkeypatch.setattr(whole, "predicate", lambda word: asked.append(word) or True)
    monkeypatch.setattr(operators_module, "everything", whole.predicate)
    clipped_cols = 0
    for (k, t, with_middle), (entries, rows, cols) in expected.items():
        op = _partial_translation(windows[k], GroupElement(ctx, t), middle if with_middle else [], whole)
        label = (k, ctx.format(GroupElement(ctx, t)), with_middle)
        assert op.entries == entries, label
        assert op.clipped_rows == rows, label
        assert op.clipped_cols == cols, label
        clipped_cols += len(cols)
    assert asked == [] and clipped_cols


COEFFICIENTS = (1, -1, 2, -3, 0, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2))


@pytest.mark.parametrize("seed", range(4))
def test_no_operator_holds_a_zero(seed, z, f2, amalgam):
    """The constructor keeps the dict it is given, so each builder must drop the
    zeros itself: random chains of compose, subtract, combine (int and
    Fraction coefficients, cancelling pairs included), adjoint, diagonal and
    mask_clipped_rows hold no zero entry, and each operator compares and
    ranks as a copy filtered of zeros would."""
    random = rng(seed)
    cases = [(z, natural_numbers(z), 6), (f2, positive_cone(f2), 2), (amalgam, make_tree_halfspace(amalgam, "G"), 2)]
    ctx, spec, radius = cases[seed % 3]
    w = make_window(spec, radius)
    pool = [identity_operator(w), zero_operator(w)]
    pool += [generator_operator(w, g) for g in ctx.ball(1)]
    pool += [generator_operator(w, g, whole_group(ctx)) for g in ctx.generator_elements()[:2]]
    builders = [
        lambda a, b: compose(a, b),
        lambda a, b: subtract(a, b),
        lambda a, b: subtract(a, a),
        lambda a, b: combine([random.choice(COEFFICIENTS), random.choice(COEFFICIENTS)], [a, b]),
        lambda a, b: combine([1, -1], [a, a]),
        lambda a, b: combine([Fraction(1, 3), Fraction(-1, 3), random.choice(COEFFICIENTS)], [a, a, b]),
        lambda a, b: compose(subtract(a, b), combine([2, Fraction(1, 2)], [b, a])),
        lambda a, b: adjoint(a),
        lambda a, b: diagonal(w, lambda x: random.random() < 0.5),
        lambda a, b: mask_clipped_rows(a),
    ]
    for _ in range(120):
        a, b = random.choice(pool), random.choice(pool)
        pool.append(random.choice(builders)(a, b))
    cancelled = combine([1, -1], [pool[2], pool[2]])
    assert cancelled.entries == {} and subtract(pool[3], pool[3]).entries == {}
    assert any(op.entries and any(isinstance(v, Fraction) for v in op.entries.values()) for op in pool)
    for op in pool:
        assert 0 not in op.entries.values()
        nonzero = {k: v for k, v in op.entries.items() if v != 0}
        filtered = TranslationOperator(w, nonzero, op.clipped_rows, op.clipped_cols)
        assert matrix_rank(op) == matrix_rank(filtered)
        for other in random.sample(pool, 3):
            got, want = guarded_equal(op, other), guarded_equal(filtered, other)
            assert (got.equal, got.rows_compared, got.mismatch) == (want.equal, want.rows_compared, want.mismatch)
