import collections

import pytest

from translation_lab import AmalgamContext, HnnContext, gallery, groups
from translation_lab.gallery import (
    run_all,
    run_cuntz_check,
    run_hnn_partition_check,
    run_lance_difference_check,
    run_mu_nu_generation_check,
    run_pv_check,
    run_quotient_consistency_check,
    run_relation_classification,
    run_toeplitz_check,
)
from translation_lab.groups import GroupElement
from translation_lab.operators import TranslationOperator
from translation_lab.reports import FALSIFIED, VERIFIED


def _by_name(suite):
    return {c.name: c for c in suite.checks}


def test_toeplitz_suite():
    suite = run_toeplitz_check(20)
    assert suite.verdict == VERIFIED
    checks = _by_name(suite)
    assert checks["shift-co-isometry"].compared_count >= 19
    assert checks["shift-defect-projection"].compared_count >= 19
    assert checks["defect-is-idempotent"].details["rank"] == 1


def test_pv_suite():
    suite = run_pv_check(2, 4)
    assert suite.verdict == VERIFIED
    checks = _by_name(suite)
    assert checks["defect-rank-one"].details["rank"] == 1
    assert "generator-b-unitary-fwd" in checks
    assert "generator-b-unitary-bwd" in checks


def test_cuntz_suite():
    suite = run_cuntz_check(2, 4)
    assert suite.verdict == VERIFIED
    checks = _by_name(suite)
    # the positive-word window at length 4 has 1 + 2 + 4 + 8 + 16 points
    assert checks["letter-1-isometry"].compared_count <= 31
    assert "ranges-1-2-orthogonal" in checks
    assert checks["union-range-sum-full"].verdict == VERIFIED


def test_cuntz_window_is_fifteen_points_at_length_three():
    from translation_lab import FreeGroupContext, make_window, positive_cone

    f2 = FreeGroupContext(2)
    assert len(make_window(positive_cone(f2), 3)) == 15


def test_relation_classification_suite():
    suite = run_relation_classification(5)
    assert suite.verdict == VERIFIED
    summary = _by_name(suite)["all-relations-classified"]
    assert summary.details["staying"] > 0
    assert summary.details["crossing"] > 0
    # every pair and triple relation of both factors was classified
    assert summary.compared_count == summary.details["staying"] + summary.details["crossing"]


def test_lance_suite():
    suite = run_lance_difference_check(4)
    assert suite.verdict == VERIFIED
    checks = _by_name(suite)
    assert checks["second-factor-difference-is-translation-block"].details["module_rank"] == 1
    assert checks["second-factor-difference-is-translation-block"].details["scalar_block_rank"] >= 1
    assert checks["first-factor-difference-vanishes"].verdict == VERIFIED
    assert checks["product-map-bijective-on-grid"].verdict == VERIFIED


def _count_free_product_hooks(monkeypatch, multiplied: list, inverted: list) -> None:
    """Record the left operand of each free-product multiply and each inverted word.

    The hooks are wrapped as ``_free_product_hooks`` makes them, so a
    trivial-gluing context built afterwards stores the counting ones.
    """
    make = groups._free_product_hooks

    def counting_hooks(factors):
        mul, inv, append = make(factors)

        def counting_mul(a, b):
            multiplied.append(a)
            return mul(a, b)

        def counting_inv(a):
            inverted.append(a)
            return inv(a)

        return counting_mul, counting_inv, append

    monkeypatch.setattr(groups, "_free_product_hooks", counting_hooks)


def test_lance_grid_translations_ask_g_nothing(monkeypatch):
    """The grid S x B is a window of the whole group, so its partial
    translations ask no membership question and multiply each grid point once:
    one pass at radius 4 makes at most 3,291 free-product multiplies (4,021
    with a predicate pass and a column pass) and no whole-group predicate call."""
    from translation_lab import operators, subsets

    multiplied, asked = [], []

    def everything(word):
        asked.append(word)
        return True

    _count_free_product_hooks(monkeypatch, multiplied, [])
    for module in (subsets, operators):
        monkeypatch.setattr(module, "everything", everything)
    assert run_lance_difference_check(4).verdict == VERIFIED
    assert len(multiplied) <= 3291
    assert asked == []


def test_lance_roundtrip_inverts_each_syllable_once(monkeypatch):
    """The grid roundtrip inverts the letter of each s in S once, not once per grid point.

    Both ``invert`` and the raw-word hook ``_inv`` (the free-product hook
    that trivial gluing stores, or the class's own) are counted, so an
    inverse taken either way shows.
    """
    inverted = []
    invert, inv = AmalgamContext.invert, AmalgamContext._inv

    def counting(self, x):
        inverted.append(x.word)
        return invert(self, x)

    def counting_raw(self, a):
        inverted.append(a)
        return inv(self, a)

    monkeypatch.setattr(AmalgamContext, "invert", counting)
    monkeypatch.setattr(AmalgamContext, "_inv", counting_raw)
    _count_free_product_hooks(monkeypatch, [], inverted)
    assert run_lance_difference_check(4).verdict == VERIFIED
    # 9 syllables of S at radius 4 and a few inverses outside the grid; the grid has 729 points
    assert len(inverted) < 2 * 9


def test_lance_first_factor_mismatch_names_grid_points(monkeypatch):
    """A wrong action on B falsifies the first-factor check with the standard
    mismatch, whose row and column are grid points of the group."""
    build = gallery.generator_operator

    def zero_on_b(w, g, domain=None):
        op = build(w, g, domain)
        if w.spec.name == "all" or domain is not None:  # the grid, or the second factor's action
            return op
        return TranslationOperator(w, {}, op.clipped_rows, op.clipped_cols)

    monkeypatch.setattr(gallery, "generator_operator", zero_on_b)
    check = _by_name(run_lance_difference_check(2))["first-factor-difference-vanishes"]
    assert check.verdict == FALSIFIED
    (mismatch,) = check.witnesses
    row, col = mismatch["row"], mismatch["col"]
    ctx = row.ctx
    assert isinstance(ctx, AmalgamContext) and col.ctx is ctx
    # right multiplication by the first factor's generator sends the row to the column
    a = ctx.from_letters([(0, ctx.factors[0].integer(1))])
    assert ctx.multiply(col, a) == row
    assert (mismatch["lhs"], mismatch["rhs"]) == (1, 0)
    assert check.to_dict()["witnesses"][0]["row"] == ctx.format(row)


def test_lance_prefix_split_refuses_a_syllable_outside_s(zz):
    s_factor = zz.factors[1]
    s_inverses = {s.word: zz._inv(zz.from_letters([(1, s)]).word) for s in s_factor.ball(2)}
    x = zz.from_letters([(0, zz.factors[0].integer(1))]).word
    for n in (0, 2, 3):
        gamma = zz._mul(zz.from_letters([(1, s_factor.integer(n))]).word, x)
        word, rest = gallery._decompose_prefix(zz, gamma, s_inverses)
        assert word == s_factor.integer(n).word
        assert rest == (None if n == 3 else x)


@pytest.mark.parametrize("which", ["bs12", "f2"])
def test_hnn_partition_suite(which):
    suite = run_hnn_partition_check(which, 4)
    assert suite.verdict == VERIFIED
    checks = _by_name(suite)
    counts = checks["partition-counts"].details
    assert counts["G"] > 0 and counts["L"] > 0 and counts["R"] > 0
    assert checks["stable-letter-orientation"].details == {"t": "R", "t_inverse": "L"}


@pytest.mark.parametrize("which", ["toeplitz", "amalgam"])
def test_quotient_suite(which):
    suite = run_quotient_consistency_check(which, 6 if which == "toeplitz" else 4)
    assert suite.verdict == VERIFIED


def test_generation_builds_each_operator_once(monkeypatch, amalgam):
    """The generation and relation suites build each element's operator once."""
    built = collections.Counter()
    build = gallery.generator_operator

    def counting(w, g, domain=None):
        built[g.word, domain is not None] += 1
        return build(w, g, domain)

    monkeypatch.setattr(gallery, "generator_operator", counting)
    letters = {
        amalgam.from_letters([(side, x)]).word
        for side, f in enumerate(amalgam.factors)
        for x in f.all_elements()
        if x.word != f.identity().word
    }
    assert run_mu_nu_generation_check(2, 3).verdict == VERIFIED
    assert {word for word, restricted in built if not restricted} >= letters
    assert max(built.values()) == 1
    built.clear()
    assert run_relation_classification(5).verdict == VERIFIED
    # the 3 + 5 nontrivial factor elements share the glued one: 7 letters
    assert len(letters) == 7
    assert built == {(word, False): 1 for word in letters}


@pytest.mark.parametrize("which", ["bs12", "f2"])
def test_hnn_partition_inverts_nothing(monkeypatch, which):
    """Neither the checked ``invert`` nor the kernel's ``_inv`` runs on an HNN word."""
    inverted = []
    invert, inv = HnnContext.invert, HnnContext._inv

    def counting(self, x):
        inverted.append(x)
        return invert(self, x)

    def counting_inv(self, a):
        inverted.append(a)
        return inv(self, a)

    monkeypatch.setattr(HnnContext, "invert", counting)
    monkeypatch.setattr(HnnContext, "_inv", counting_inv)
    assert run_hnn_partition_check(which, 4).verdict == VERIFIED
    assert inverted == []


def test_hnn_partition_builds_elements_only_for_its_ball(monkeypatch):
    """The partition and fiber loops run on words; the ball's own elements are most of what is built."""
    built = []
    init = GroupElement.__init__

    def counting(self, ctx, word):
        built.append(word)
        init(self, ctx, word)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    assert run_hnn_partition_check("bs12", 5).verdict == VERIFIED
    assert len(built) < 600


@pytest.mark.parametrize("which", ["bs12", "f2"])
def test_hnn_partition_falsifies_a_wrong_kernel(monkeypatch, which):
    """With products taken in the wrong order the suite must fail: it reads every product from ``_mul``.

    Swapped products leave every ball as it is (left and right Cayley graphs
    have the same spheres), so only the checks can notice.
    """
    mul = HnnContext._mul
    monkeypatch.setattr(HnnContext, "_mul", lambda self, a, b: mul(self, b, a))
    assert run_hnn_partition_check(which, 4).verdict == FALSIFIED


def test_generation_suite():
    suite = run_mu_nu_generation_check(3, 5)
    assert suite.verdict == VERIFIED
    checks = _by_name(suite)
    assert checks["reduced-word-factorizations"].compared_count > 20
    assert checks["nonunital-unit"].verdict == VERIFIED
    assert checks["boundary"].verdict == VERIFIED


def test_run_all_green():
    suites = run_all()
    assert len(suites) == 10
    assert all(s.verdict == VERIFIED for s in suites)


def test_verdicts_stable_under_window_growth():
    pairs = [
        (run_toeplitz_check(12), run_toeplitz_check(14)),
        (run_pv_check(2, 3), run_pv_check(2, 5)),
        (run_relation_classification(4), run_relation_classification(6)),
        (run_hnn_partition_check("bs12", 3), run_hnn_partition_check("bs12", 5)),
    ]
    for small, large in pairs:
        assert small.verdict == large.verdict == VERIFIED
