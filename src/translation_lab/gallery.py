"""End-to-end verifiers for the named operator extensions.

Each runner builds its group, subset, and windows internally, checks the
advertised operator identities exactly on unclipped rows, and returns a suite
report.  All identities are checked over the rationals; nothing is sampled
numerically.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .geometry import boundary_check, deep_witness, factor_relation_words, own_letters
from .group_algebra import isolation_projection
from .groups import (
    AmalgamContext,
    FreeGroupContext,
    GroupElement,
    amalgam_z4_z6,
    baumslag_solitar,
    free_group_as_hnn,
    free_product_of_two_integers,
    integers,
)
from .operators import (
    ONE,
    TranslationOperator,
    Window,
    adjoint,
    combine,
    compose,
    compose_chain,
    coset_projection,
    diagonal,
    generator_operator,
    guarded_equal,
    identity_operator,
    make_window,
    mask_clipped_rows,
    matrix_rank,
    rank_of_vectors,
    subtract,
)
from .reports import FALSIFIED, VERIFIED, CheckReport, SuiteReport
from .subsets import (
    SubsetSpec,
    amalgam_subgroup,
    cyclic_translates,
    difference,
    make_tree_halfspace,
    natural_numbers,
    positive_cone,
    trivial_subgroup,
    whole_group,
    words_not_starting_with,
)


def _operator_cache(w: Window):
    """generator_operator on the window, built once per distinct element."""
    built: dict[tuple, TranslationOperator] = {}

    def operator_of(g: GroupElement) -> TranslationOperator:
        if g.word not in built:
            built[g.word] = generator_operator(w, g)
        return built[g.word]

    return operator_of


# ---------------------------------------------------------------------------
# Toeplitz: the naturals inside the integers
# ---------------------------------------------------------------------------


def run_toeplitz_check(radius: int) -> SuiteReport:
    ctx = integers()
    nat = natural_numbers(ctx)
    w = make_window(nat, radius)
    one = ctx.integer(1)
    t_fwd = generator_operator(w, one)
    t_bwd = generator_operator(w, ctx.invert(one))
    ident = identity_operator(w)

    suite = SuiteReport(name="toeplitz", params={"R": radius})
    suite.add(guarded_equal(compose(t_fwd, t_bwd), ident).report("shift-co-isometry"))

    p0 = isolation_projection(w, [ctx.integer(0)], [one])
    defect = guarded_equal(compose(t_bwd, t_fwd), subtract(ident, p0))
    suite.add(defect.report("shift-defect-projection"))
    suite.add(guarded_equal(compose(p0, p0), p0).report("defect-is-idempotent", details={"rank": matrix_rank(p0)}))
    suite.add(deep_witness(nat, 3, radius))
    return suite


# ---------------------------------------------------------------------------
# The generalized shift picture on a free group
# ---------------------------------------------------------------------------


def run_pv_check(n: int, radius: int) -> SuiteReport:
    ctx = FreeGroupContext(n)
    s1 = ctx.generator(1)
    b_spec = words_not_starting_with(ctx, ctx.invert(s1))
    w = make_window(b_spec, radius)
    ident = identity_operator(w)
    suite = SuiteReport(name="pv", params={"n": n, "R": radius})

    t1 = generator_operator(w, s1)
    suite.add(guarded_equal(compose(t1, adjoint(t1)), ident).report("marked-generator-co-isometry"))
    p_e = coset_projection(w, trivial_subgroup(ctx), ctx.identity())
    suite.add(guarded_equal(compose(adjoint(t1), t1), subtract(ident, p_e)).report("marked-generator-defect"))
    defect = subtract(ident, compose(adjoint(t1), t1))
    rank = matrix_rank(mask_clipped_rows(defect))
    suite.add(
        CheckReport(
            name="defect-rank-one",
            verdict=VERIFIED if rank == 1 else FALSIFIED,
            details={"rank": rank},
        )
    )
    for i in range(2, n + 1):
        si = ctx.generator(i)
        ti = generator_operator(w, si)
        unitary_fwd = guarded_equal(compose(ti, adjoint(ti)), ident)
        unitary_bwd = guarded_equal(compose(adjoint(ti), ti), ident)
        suite.add(unitary_fwd.report(f"generator-{ctx.format(si)}-unitary-fwd"))
        suite.add(unitary_bwd.report(f"generator-{ctx.format(si)}-unitary-bwd"))
    return suite


# ---------------------------------------------------------------------------
# Cuntz relations on the positive cone and its translate union
# ---------------------------------------------------------------------------


def run_cuntz_check(n: int, length: int) -> SuiteReport:
    ctx = FreeGroupContext(n)
    cone = positive_cone(ctx)
    w_cone = make_window(cone, length)
    suite = SuiteReport(name="cuntz", params={"n": n, "L": length})
    ident = identity_operator(w_cone)
    p_e = coset_projection(w_cone, trivial_subgroup(ctx), ctx.identity())

    isometries = []
    for i in range(1, n + 1):
        v = generator_operator(w_cone, ctx.invert(ctx.generator(i)))
        isometries.append(v)
        suite.add(guarded_equal(compose(adjoint(v), v), ident).report(f"letter-{i}-isometry"))
    ranges = [compose(v, adjoint(v)) for v in isometries]
    for i in range(n):
        for j in range(i + 1, n):
            product = compose(ranges[i], ranges[j])
            suite.add(
                CheckReport(
                    name=f"ranges-{i + 1}-{j + 1}-orthogonal",
                    verdict=VERIFIED if not product.entries else FALSIFIED,
                    compared_count=len(w_cone),
                )
            )
    total = combine([1] * n, ranges)
    suite.add(guarded_equal(total, subtract(ident, p_e)).report("range-sum-misses-only-origin"))

    x_spec = cyclic_translates(cone, ctx.generator(1), name="translate-union")
    w_x = make_window(x_spec, length)
    ident_x = identity_operator(w_x)
    range_x = []
    for i in range(1, n + 1):
        wi = generator_operator(w_x, ctx.invert(ctx.generator(i)))
        suite.add(guarded_equal(compose(adjoint(wi), wi), ident_x).report(f"union-letter-{i}-isometry"))
        range_x.append(compose(wi, adjoint(wi)))
    suite.add(guarded_equal(combine([1] * n, range_x), ident_x).report("union-range-sum-full"))
    return suite


# ---------------------------------------------------------------------------
# Relation classification over an amalgam
# ---------------------------------------------------------------------------


def run_relation_classification(radius: int) -> SuiteReport:
    ctx = amalgam_z4_z6()
    b_spec = make_tree_halfspace(ctx, "G")
    h_sub = amalgam_subgroup(ctx)
    w = make_window(b_spec, radius)
    ident = identity_operator(w)
    complement_ph = subtract(ident, coset_projection(w, h_sub, ctx.identity()))
    suite = SuiteReport(name="relation-classification", params={"R": radius})

    operator_of = _operator_cache(w)
    staying = crossing = 0
    for side, f in enumerate(ctx.factors):
        letters = own_letters(f)
        embedded = {x.word: ctx.from_letters([(side, x)]) for x in letters}
        for word in factor_relation_words(f, letters):
            elems = [embedded[x.word] for x in word]
            product = compose_chain([operator_of(g) for g in elems])
            if all(map(b_spec.contains, itertools.accumulate(elems, ctx.multiply))):
                staying += 1
                match = guarded_equal(product, ident)
                expected = "identity"
            else:
                crossing += 1
                match = guarded_equal(product, complement_ph)
                expected = "one-minus-subgroup-projection"
            if not match.equal:
                word_name = "*".join(ctx.tags[side] + f.format(x) for x in word)
                suite.add(match.report(f"relation-{word_name}", details={"expected": expected}))
    suite.add(
        CheckReport(
            name="all-relations-classified",
            verdict=VERIFIED if not any(c.verdict == FALSIFIED for c in suite.checks) else FALSIFIED,
            compared_count=staying + crossing,
            details={"staying": staying, "crossing": crossing},
        )
    )
    return suite


# ---------------------------------------------------------------------------
# The two-representation difference over a free product with trivial gluing
# ---------------------------------------------------------------------------


def _decompose_prefix(ctx: AmalgamContext, gamma: tuple, s_inverses: dict):
    """Split the word gamma = s * x with s the leading second-factor syllable (maybe trivial).

    ``s_inverses`` maps the word of each s in S to the word of the inverse of
    its letter; returns the word of s, and the word of x, or None when s lies
    outside S.
    """
    syllables, _h = gamma
    if not syllables or syllables[0][0] != 1:
        return ctx.factors[1].identity().word, gamma
    s = syllables[0][1]
    inverse = s_inverses.get(s)
    return s, None if inverse is None else ctx._mul(inverse, gamma)


def run_lance_difference_check(radius: int) -> SuiteReport:
    """Compare conjugated right multiplication with the tensor action on S x B.

    With trivial gluing the product of the two factors is exactly the grid
    S x B under (s, x) -> s x.  For elements coming from the first factor the
    two actions agree on unclipped rows; for the nonunital second-factor
    representation the difference is one algebra-valued block at (e, e), the
    right translation matrix of the acting element, which is the rank-one
    module pattern.  Ranks quoted as "module rank" count algebra-valued
    blocks; the scalar rank of the block is reported alongside.
    """
    ctx = free_product_of_two_integers()
    s_factor = ctx.factors[1]
    b_spec = make_tree_halfspace(ctx, "G")
    # the nonunital second-factor representation lives on B minus the gluing subgroup
    star = difference(b_spec, amalgam_subgroup(ctx))
    suite = SuiteReport(name="lance", params={"R": radius})

    s_points = s_factor.ball(radius)
    s_index = {x.word: i for i, x in enumerate(s_points)}
    w_b = make_window(b_spec, radius)
    nb = len(w_b)
    e_col = w_b.position(ctx.identity())

    # the grid S x B as a window of the group, s-major: (s_i, x_j) sits at
    # i * nb + j, so generator_operator(grid, g) is right multiplication by g
    # read through the grid; the products are formed on words
    mul = ctx._mul
    s_letters = [ctx.from_letters([(1, s)]).word for s in s_points]
    products = [mul(s, x.word) for s in s_letters for x in w_b.points]
    grid = Window(
        whole_group(ctx),
        radius,
        tuple(GroupElement(ctx, p) for p in products),
        {p: idx for idx, p in enumerate(products)},
    )

    # the (s, x) -> s x product map must be a bijection onto its window image
    bijective = len(grid.index) == len(grid)
    roundtrip = True
    s_inverses = {s.word: ctx._inv(s_letter) for s, s_letter in zip(s_points, s_letters)}
    for idx, gamma in enumerate(products):
        s, x = _decompose_prefix(ctx, gamma, s_inverses)
        i, j = s_index.get(s), None if x is None else w_b.index.get(x)
        if i is None or j is None or i * nb + j != idx:
            roundtrip = False
    suite.add(
        CheckReport(
            name="product-map-bijective-on-grid",
            verdict=VERIFIED if bijective and roundtrip else FALSIFIED,
            compared_count=len(grid),
        )
    )

    def tensor_action(op: TranslationOperator) -> TranslationOperator:
        """The identity on S tensored with op on B."""
        entries = {}
        rows = op.rows()
        for i in range(len(s_points)):
            for j, row in rows.items():
                if j not in op.clipped_rows:
                    for k, v in row.items():
                        entries[(i * nb + j, i * nb + k)] = v
        return TranslationOperator(
            grid,
            entries,
            (i * nb + j for i in range(len(s_points)) for j in op.clipped_rows),
            (i * nb + k for i in range(len(s_points)) for k in op.clipped_cols),
        )

    def support_and_block(delta: TranslationOperator):
        """Entries must live on (S x {e}) rows and columns; return the block."""
        block = {}
        for (r, c), v in delta.entries.items():
            if r in delta.clipped_rows:
                continue
            if r % nb != e_col or c % nb != e_col:
                return None, None
            block[(r // nb, c // nb)] = v
        return block, delta.clipped_rows

    # second-factor generator: difference is the right-translation block at (e, e)
    s_gen = s_factor.integer(1)
    s_gen_el = ctx.from_letters([(1, s_gen)])
    nu_b = generator_operator(w_b, s_gen_el, star)
    delta_nu = subtract(generator_operator(grid, s_gen_el), tensor_action(nu_b))
    block, clipped = support_and_block(delta_nu)
    if block is None:
        suite.add(CheckReport(name="second-factor-difference-support", verdict=FALSIFIED))
    else:
        suite.add(
            CheckReport(
                name="second-factor-difference-support",
                verdict=VERIFIED,
                compared_count=len(grid) - len(clipped),
            )
        )
        expected = {}
        for i, s in enumerate(s_points):
            if i * nb + e_col in clipped:
                continue
            target = s_factor.multiply(s, s_factor.invert(s_gen))
            j = s_index.get(target.word)
            if j is not None:
                expected[(i, j)] = ONE
        matches = block == expected
        scalar_rank = rank_of_vectors(
            [{c: v for (r2, c), v in block.items() if r2 == r} for r in range(len(s_points))]
        )
        suite.add(
            CheckReport(
                name="second-factor-difference-is-translation-block",
                verdict=VERIFIED if matches and block else FALSIFIED,
                details={
                    "module_rank": 1 if matches and block else None,
                    "scalar_block_rank": scalar_rank,
                },
            )
        )

    # first-factor generator: the two actions agree
    g_el = ctx.from_letters([(0, ctx.factors[0].integer(1))])
    mu = guarded_equal(generator_operator(grid, g_el), tensor_action(generator_operator(w_b, g_el)))
    suite.add(mu.report("first-factor-difference-vanishes"))

    # nonunital unit: difference is the identity block at (e, e)
    nu_unit = diagonal(w_b, star.contains)
    delta_unit = subtract(generator_operator(grid, ctx.identity()), tensor_action(nu_unit))
    block_u, clipped_u = support_and_block(delta_unit)
    ok = block_u is not None and all(r == c and v == ONE for (r, c), v in block_u.items()) and block_u
    suite.add(
        CheckReport(
            name="nonunital-unit-difference-is-projection-block",
            verdict=VERIFIED if ok else FALSIFIED,
            details={"block_size": len(block_u) if block_u else 0},
        )
    )
    return suite


# ---------------------------------------------------------------------------
# HNN partition and fibered products
# ---------------------------------------------------------------------------


def _hnn_classify(word: tuple) -> str:
    """The part of a canonical HNN word: G with no stable letter, else by its first sign."""
    _head, blocks = word
    if not blocks:
        return "G"
    return "L" if blocks[0][0] == -1 else "R"


def run_hnn_partition_check(which: str, radius: int) -> SuiteReport:
    """Partition by first stable-letter sign, cross-checked through products.

    The left part consists of base-translates of the inverse half-space, the
    right part of base-translates of the forward translate of the half-space;
    products g * x land injectively up to the associated subgroup's diagonal
    action, which the fiber check verifies pair by pair on the window.  Every
    product is the kernel's ``_mul`` of canonical words, never read off the
    normal form; the group, its ball and its pieces are all built here from
    one context, and elements are built only for witnesses.
    """
    ctx = baumslag_solitar(1, 2) if which == "bs12" else free_group_as_hnn()
    b_spec = make_tree_halfspace(ctx, "B")
    tb_spec = make_tree_halfspace(ctx, "tB")
    suite = SuiteReport(name="hnn-partition", params={"group": which, "R": radius})

    mul = ctx._mul
    inside_b, inside_tb = b_spec.predicate, tb_spec.predicate
    ball = ctx.ball(radius)
    # each base element g of the ball, and g^-1, as HNN words
    base_pairs = [((g.word, ()), (ctx.base._inv(g.word), ())) for g in ctx.base.ball(radius)]
    bc_spec = difference(whole_group(ctx), b_spec)
    counts = {"G": 0, "L": 0, "R": 0}
    mismatches = []
    for gamma in ball:
        gamma = gamma.word
        cls = _hnn_classify(gamma)
        counts[cls] += 1
        if cls == "G":
            continue
        # independent rule: the part is determined by which piece a base
        # translate g^-1 gamma reaches, L at the first one outside B
        in_tb = False
        for _, g_inv in base_pairs:
            translate = mul(g_inv, gamma)
            if not inside_b(translate):
                alt = "L"
                break
            in_tb = in_tb or inside_tb(translate)
        else:
            alt = "R" if in_tb else "?"
        if alt != cls:
            mismatches.append(GroupElement(ctx, gamma))
    suite.add(
        CheckReport(
            name="partition-counts",
            verdict=VERIFIED if not mismatches and sum(counts.values()) == len(ball) else FALSIFIED,
            compared_count=len(ball),
            witnesses=mismatches[:3],
            details=dict(counts),
        )
    )

    def fiber_check(name: str, part: str, piece: SubsetSpec, sign: int) -> CheckReport:
        def falsified(gamma: tuple, reason: str) -> CheckReport:
            return CheckReport(
                name=name,
                verdict=FALSIFIED,
                witnesses=[GroupElement(ctx, gamma)],
                details={"reason": reason},
            )

        products: dict[tuple, list[tuple[tuple, tuple, tuple]]] = {}
        piece_ball = [x.word for x in piece.elements_in_ball(radius)]
        for g, g_inv in base_pairs:
            for x in piece_ball:
                gamma = mul(g, x)
                if _hnn_classify(gamma) != part:
                    return falsified(gamma, "product landed outside the part")
                products.setdefault(gamma, []).append((g, g_inv, x))
        checked = 0
        for gamma, pairs in products.items():
            g0, _, x0 = pairs[0]
            for _, g1_inv, x1 in pairs[1:]:
                checked += 1
                h = mul(g1_inv, g0)
                head, blocks = h
                if blocks or not ctx.data.member(sign, head):
                    return falsified(gamma, "fiber pair not related by the subgroup")
                if mul(h, x0) != x1:
                    return falsified(gamma, "diagonal action mismatch")
        return CheckReport(
            name=name,
            verdict=VERIFIED,
            compared_count=len(products),
            details={"fibered_pairs": checked},
        )

    suite.add(fiber_check("left-part-fibers", "L", bc_spec, 1))
    suite.add(fiber_check("right-part-fibers", "R", tb_spec, -1))

    t = _hnn_classify(ctx.stable_letter(1).word)
    t_inv = _hnn_classify(ctx.stable_letter(-1).word)
    suite.add(
        CheckReport(
            name="stable-letter-orientation",
            verdict=VERIFIED if t == "R" and t_inv == "L" else FALSIFIED,
            details={"t": t, "t_inverse": t_inv},
        )
    )
    return suite


# ---------------------------------------------------------------------------
# Quotient consistency and generation
# ---------------------------------------------------------------------------


def run_quotient_consistency_check(which: str, radius: int) -> SuiteReport:
    """Compressing the ambient translation by the subset projection recovers the subset translation."""
    if which == "toeplitz":
        ctx = integers()
        b_spec = natural_numbers(ctx)
        x_spec = whole_group(ctx)
        sample = [ctx.integer(1), ctx.integer(-2), ctx.integer(3), ctx.identity()]
    elif which == "amalgam":
        ctx = amalgam_z4_z6()
        b_spec = make_tree_halfspace(ctx, "G")
        x_spec = whole_group(ctx)
        g_el = ctx.from_letters([(0, ctx.factors[0].element(1))])
        s_el = ctx.from_letters([(1, ctx.factors[1].element(1))])
        sample = [g_el, s_el, ctx.multiply(g_el, s_el), ctx.identity()]
    else:
        raise ValueError(f"unknown quotient example {which!r}")

    w = make_window(x_spec, radius)
    keep = diagonal(w, b_spec.contains)
    drop = diagonal(w, lambda x: not b_spec.contains(x))
    suite = SuiteReport(name="quotient-consistency", params={"example": which, "R": radius})
    for g in sample:
        t_x = generator_operator(w, g)
        compressed = compose(keep, compose(t_x, keep))
        t_b = generator_operator(w, g, b_spec)
        suite.add(guarded_equal(compressed, t_b).report(f"compression-{ctx.format(g)}"))
        diff = subtract(t_x, t_b)
        outside = [
            (r, c)
            for (r, c), v in diff.entries.items()
            if r not in diff.clipped_rows
            and b_spec.contains(w.points[r])
            and b_spec.contains(w.points[c])
        ]
        suite.add(
            CheckReport(
                name=f"difference-support-{ctx.format(g)}",
                verdict=VERIFIED if not outside else FALSIFIED,
                compared_count=len(diff.entries),
            )
        )
    e = ctx.identity()
    p_match = guarded_equal(subtract(generator_operator(w, e), generator_operator(w, e, b_spec)), drop)
    suite.add(p_match.report("identity-difference-is-complement-projection"))
    return suite


def run_mu_nu_generation_check(max_syllables: int, radius: int) -> SuiteReport:
    """Reduced words factor through generator products; the two representations mesh."""
    ctx = amalgam_z4_z6()
    b_spec = make_tree_halfspace(ctx, "G")
    h_sub = amalgam_subgroup(ctx)
    w = make_window(b_spec, radius)
    ident = identity_operator(w)
    p_h = coset_projection(w, h_sub, ctx.identity())
    suite = SuiteReport(name="mu-nu-generation", params={"L": max_syllables, "R": radius})

    factors = ctx.factors
    # per factor: its nontrivial syllables, and those off the glued subgroup
    nontrivial, off = [], []
    for side, f in enumerate(factors):
        nontrivial.append([(side, x) for x in own_letters(f)])
        off.append([letter for letter in nontrivial[side] if not h_sub.contains(ctx.from_letters([letter]))])

    reduced_words = [[letter] for side in (0, 1) for letter in nontrivial[side]]
    words = [[letter] for side in (0, 1) for letter in off[side]]
    for _ in range(max_syllables - 1):
        words = [word + [letter] for word in words for letter in off[1 - word[-1][0]]]
        reduced_words.extend(words)

    operator_of = _operator_cache(w)
    failures = 0
    for word in reduced_words:
        total = ctx.identity()
        ops = []
        for side, x in word:
            el = ctx.from_letters([(side, x)])
            total = ctx.multiply(total, el)
            ops.append(operator_of(el))
        direct = operator_of(total)
        product = compose_chain(ops)
        match = guarded_equal(direct, product)
        if not match.equal:
            failures += 1
            word_names = [ctx.tags[s] + factors[s].format(x) for s, x in word]
            suite.add(match.report("reduced-word-factorization", details={"word": word_names}))
    suite.add(
        CheckReport(
            name="reduced-word-factorizations",
            verdict=VERIFIED if failures == 0 else FALSIFIED,
            compared_count=len(reduced_words),
        )
    )

    # the nonunital unit of the second representation
    t_op = operator_of(ctx.from_letters([off[1][0]]))
    suite.add(guarded_equal(compose(adjoint(t_op), t_op), subtract(ident, p_h)).report("nonunital-unit"))

    # second representation of subgroup elements: cut down by the unit
    off_subgroup = difference(b_spec, h_sub)
    for i in range(1, ctx.subgroup_size()):
        h_el = ctx.h_element(i)
        mu_h = operator_of(h_el)
        nu_h = generator_operator(w, h_el, off_subgroup)
        match = guarded_equal(nu_h, compose(mu_h, subtract(ident, p_h)))
        suite.add(match.report(f"nu-mu-mesh-{ctx.format(h_el)}"))

    suite.add(guarded_equal(operator_of(ctx.identity()), ident).report("unit-is-identity"))
    suite.add(boundary_check(b_spec, h_sub, radius))
    return suite


# ---------------------------------------------------------------------------
# The suite table
# ---------------------------------------------------------------------------


class Suite:
    """``Suite(sizes, run)``: one ``gallery`` suite.

    ``sizes`` maps each size flag to its (default, least value); ``run``
    takes one keyword per flag and returns the suite's reports.
    """

    __slots__ = ("sizes", "run")

    def __init__(self, sizes: dict[str, tuple[int, int]], run: Callable[..., list[SuiteReport]]):
        self.sizes = sizes
        self.run = run

    def at(self) -> list[SuiteReport]:
        """Run at every size's default."""
        return self.run(**{flag: default for flag, (default, _) in self.sizes.items()})


# Toeplitz searches for a deepness witness at radius 3, the free-group suites
# need at least one generator, and the Lance window must contain the (e, e)
# block it compares.  The quotient suite's amalgam half is always run at 4.
SUITES = {
    "toeplitz": Suite({"R": (20, 3)}, lambda R: [run_toeplitz_check(R)]),
    "pv": Suite({"n": (2, 1), "R": (4, 0)}, lambda n, R: [run_pv_check(n, R)]),
    "cuntz": Suite({"n": (2, 1), "L": (4, 0)}, lambda n, L: [run_cuntz_check(n, L)]),
    "relations": Suite({"R": (5, 0)}, lambda R: [run_relation_classification(R)]),
    "lance": Suite({"R": (4, 1)}, lambda R: [run_lance_difference_check(R)]),
    "hnn": Suite({"R": (4, 0)}, lambda R: [run_hnn_partition_check(g, R) for g in ("bs12", "f2")]),
    "quotient": Suite(
        {"R": (8, 0)},
        lambda R: [run_quotient_consistency_check("toeplitz", R), run_quotient_consistency_check("amalgam", 4)],
    ),
    "generation": Suite({"L": (3, 0), "R": (5, 0)}, lambda L, R: [run_mu_nu_generation_check(L, R)]),
}


def run_all() -> list[SuiteReport]:
    """Every suite at its default sizes, in table order."""
    return [report for suite in SUITES.values() for report in suite.at()]
