from fractions import Fraction

import pytest

from conftest import rng

from translation_lab import (
    amalgam_subgroup,
    coordinate_halfspace,
    coset_projection,
    cyclic_group,
    finite_subgroup,
    guarded_equal,
    make_tree_halfspace,
    make_window,
    natural_numbers,
    positive_cone,
    trivial_subgroup,
    whole_group,
)
from translation_lab.group_algebra import (
    HAlgebraElement,
    SigmaVector,
    coset_decomposition_check,
    isolation_projection,
    module_inner_product,
    verify_ph_in_ideal,
)
from translation_lab.geometry import almost_invariant_check
from translation_lab.groups import GroupElement
from translation_lab.reports import INCONCLUSIVE, VERIFIED


def is_zero(a: HAlgebraElement) -> bool:
    return not a.coeffs


def act_by(vec: SigmaVector, k) -> SigmaVector:
    """Right action: sigma_g . T_k = sigma_{g k} when g k stays inside, else 0."""
    ctx = vec.spec.ctx
    out: dict[tuple, Fraction] = {}
    for w, v in vec.coeffs.items():
        target = ctx.multiply(GroupElement(ctx, w), k)
        if vec.spec.contains(target):
            out[target.word] = out.get(target.word, Fraction(0)) + v
    return SigmaVector(vec.spec, out)


def test_inner_product_trivial_subgroup(z):
    nat = natural_numbers(z)
    triv = trivial_subgroup(z)
    s2 = SigmaVector.basis(nat, z.integer(2))
    s5 = SigmaVector.basis(nat, z.integer(5))
    assert is_zero(module_inner_product(triv, s2, s5))
    diag = module_inner_product(triv, SigmaVector.basis(nat, z.integer(3)), SigmaVector.basis(nat, z.integer(3)))
    assert diag == HAlgebraElement.unit(triv)


def test_inner_product_subgroup_shift(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    h1 = amalgam.h_element(1)
    g1 = amalgam.from_letters([(0, amalgam.factors[0].element(1))])
    hb = amalgam.multiply(h1, g1)
    value = module_inner_product(h, SigmaVector.basis(b, hb), SigmaVector.basis(b, g1))
    assert value == HAlgebraElement.of(h, h1)


def test_sigma_symbols_must_lie_inside(z):
    nat = natural_numbers(z)
    with pytest.raises(ValueError):
        SigmaVector.basis(nat, z.integer(-1))


def test_right_action(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    vec = SigmaVector.basis(b, amalgam.identity())
    moved = act_by(vec, s1)
    assert not moved.coeffs  # the move leaves the subset: the symbol dies
    g1 = amalgam.from_letters([(0, amalgam.factors[0].element(1))])
    assert list(act_by(vec, g1).coeffs) == [g1.word]


def test_adjointability_of_translation_action(amalgam):
    # <x . k, y> equals <x, y . k^-1> whenever the symbols live in the subset
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    r = rng(41)
    points = b.elements_in_ball(3)
    movers = amalgam.ball(2)
    for _ in range(200):
        x = SigmaVector.basis(b, points[r.randrange(len(points))])
        y = SigmaVector.basis(b, points[r.randrange(len(points))])
        k = movers[r.randrange(len(movers))]
        lhs = module_inner_product(h, act_by(x, k), y)
        rhs = module_inner_product(h, x, act_by(y, amalgam.invert(k)))
        assert lhs == rhs


def test_star_and_product():
    c6 = cyclic_group(6)
    h = finite_subgroup(c6, [c6.element(0), c6.element(2), c6.element(4)], "H3")
    a = HAlgebraElement(h, {c6.element(2).word: Fraction(1), c6.element(4).word: Fraction(2)})
    twice = a * a
    assert twice.coeffs[c6.element(4).word] == Fraction(1)  # 2+2
    assert twice.coeffs[c6.element(2).word] == Fraction(4)  # 4+4 both orders
    assert twice.coeffs[c6.element(0).word] == Fraction(4)  # 2+4 and 4+2
    assert a.star().coeffs == {c6.element(4).word: Fraction(1), c6.element(2).word: Fraction(2)}


def regular_matrix(a: HAlgebraElement) -> list[list[Fraction]]:
    """Matrix of right translation on the subgroup's own basis."""
    ctx = a.subgroup.ctx
    elems = list(a.subgroup.elements)
    pos = {x.word: i for i, x in enumerate(elems)}
    n = len(elems)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for w, v in a.coeffs.items():
        h_inv = ctx.invert(GroupElement(ctx, w))
        for i, x in enumerate(elems):
            target = ctx.multiply(x, h_inv)
            mat[i][pos[target.word]] += v
    return mat


def is_positive_semidefinite(a: HAlgebraElement) -> bool:
    """Exact test through the characteristic polynomial of the regular matrix.

    A rational symmetric matrix is PSD iff det(tI - A) = t^n - c1 t^(n-1)
    + c2 t^(n-2) - ... has all c_k >= 0; the coefficients are computed by
    exact trace recursion.
    """
    mat = regular_matrix(a)
    n = len(mat)
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i]:
                return False
    return all(e >= 0 for e in _elementary_symmetrics(mat))


def _elementary_symmetrics(mat: list[list[Fraction]]) -> list[Fraction]:
    """Elementary symmetric functions e_1..e_n of the eigenvalues, exactly.

    Power sums come from repeated multiplication, e_k from Newton's identity
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i.  For a symmetric matrix all
    eigenvalues are real, and they are all nonnegative iff every e_k >= 0.
    """
    n = len(mat)
    power = [row[:] for row in mat]
    psums = []
    for k in range(n):
        if k:
            power = _mat_mul(power, mat)
        psums.append(sum(power[i][i] for i in range(n)))
    es: list[Fraction] = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            term = es[k - i] * psums[i - 1]
            acc += term if i % 2 == 1 else -term
        es.append(acc / k)
    return es[1:]


def _mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k, v in enumerate(arow):
            if v == 0:
                continue
            brow = b[k]
            for j in range(n):
                if brow[j] != 0:
                    orow[j] += v * brow[j]
    return out


def test_inner_products_positive_semidefinite():
    c6 = cyclic_group(6)
    h = finite_subgroup(c6, [c6.element(0), c6.element(2), c6.element(4)], "H3")
    everything = whole_group(c6)
    r = rng(43)
    points = everything.elements_in_ball(2)
    for _ in range(100):
        coeffs = {}
        for _ in range(r.randrange(1, 4)):
            p = points[r.randrange(len(points))]
            coeffs[p.word] = coeffs.get(p.word, 0) + Fraction(r.randrange(-3, 4))
        vec = SigmaVector(everything, coeffs)
        gram = module_inner_product(h, vec, vec)
        assert is_positive_semidefinite(gram)
    indefinite = HAlgebraElement(h, {c6.element(2).word: Fraction(1)})
    assert not is_positive_semidefinite(indefinite)  # not even self-adjoint


def test_isolation_projection_naturals(z):
    nat = natural_numbers(z)
    w = make_window(nat, 8)
    proj = isolation_projection(w, [z.integer(0)], [z.integer(1)])
    assert sorted(proj.entries) == [(0, 0)]
    target = coset_projection(w, trivial_subgroup(z), z.integer(0))
    assert guarded_equal(proj, target).equal
    assert guarded_equal(proj, proj).equal and not proj.clipped_rows


def test_isolation_projection_halfplane(z2):
    half = coordinate_halfspace(z2, 0, 0)
    w = make_window(half, 6)
    proj = isolation_projection(w, [z2.vector(0, 0)], [z2.vector(1, 0)])
    axis = half.left_stabiliser
    target = coset_projection(w, axis, z2.identity())
    assert guarded_equal(proj, target).equal
    assert all(r == c for r, c in proj.entries)


def test_isolation_projection_amalgam(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    w = make_window(b, 4)
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    # distinguishing family: the identity inside, a strict second-factor point outside
    f1 = [amalgam.identity()]
    f2 = [amalgam.invert(s1)]
    proj = isolation_projection(w, f1, f2)
    from translation_lab.operators import matrix_rank

    assert matrix_rank(proj) == 2
    assert guarded_equal(proj, coset_projection(w, h, amalgam.identity())).equal


def test_isolation_projection_is_projection(z):
    nat = natural_numbers(z)
    w = make_window(nat, 8)
    proj = isolation_projection(w, [z.integer(0)], [z.integer(1)])
    from translation_lab.operators import adjoint, compose

    assert compose(proj, proj).entries == proj.entries
    assert adjoint(proj).entries == proj.entries


def test_ph_in_ideal_naturals(z):
    nat = natural_numbers(z)
    report = verify_ph_in_ideal(nat, whole_group(z), trivial_subgroup(z), z.integer(1), 12)
    assert report.verdict == VERIFIED
    assert report.compared_count >= 20


def test_ph_in_ideal_halfplane(z2):
    half = coordinate_halfspace(z2, 0, 0)
    report = verify_ph_in_ideal(half, whole_group(z2), half.left_stabiliser, z2.vector(1, 0), 8)
    assert report.verdict == VERIFIED


def test_ph_in_ideal_amalgam(amalgam):
    b = make_tree_halfspace(amalgam, "G")
    h = amalgam_subgroup(amalgam)
    s1 = amalgam.from_letters([(1, amalgam.factors[1].element(1))])
    report = verify_ph_in_ideal(b, whole_group(amalgam), h, amalgam.invert(s1), 5)
    assert report.verdict == VERIFIED


def test_ph_in_ideal_rejects_wrong_direction(z):
    nat = natural_numbers(z)
    with pytest.raises(ValueError):
        verify_ph_in_ideal(nat, whole_group(z), trivial_subgroup(z), z.integer(-1), 10)


def test_coset_decomposition_examples(z, z2, f2):
    nat = natural_numbers(z)
    report = coset_decomposition_check(nat, whole_group(z), trivial_subgroup(z), z.integer(2), 8)
    assert report.verdict == VERIFIED
    assert report.details["coset_count_at_R"] == 2

    half = coordinate_halfspace(z2, 0, 0)
    report = coset_decomposition_check(half, whole_group(z2), half.left_stabiliser, z2.vector(1, 0), 6)
    assert report.verdict == VERIFIED
    assert report.details["coset_count_at_R"] == 1

    cone = positive_cone(f2)
    report = coset_decomposition_check(
        cone, whole_group(f2), trivial_subgroup(f2), f2.generator(1), 5
    )
    assert report.verdict == INCONCLUSIVE
    assert report.details["coset_count_at_R_plus"] > report.details["coset_count_at_R"]


def test_coset_count_checks_differ_only_in_their_support_details(f2):
    cone = positive_cone(f2)
    args = (cone, whole_group(f2), trivial_subgroup(f2), f2.generator(1), 3)
    decomp = coset_decomposition_check(*args)
    # over the trivial subgroup every support point is its own coset
    assert decomp.details["support_size_at_R"] == decomp.compared_count == decomp.details["coset_count_at_R"]
    assert decomp.details["support_size_at_R_plus"] == decomp.details["coset_count_at_R_plus"]
    assert decomp.details["support_size_at_R_plus"] > decomp.compared_count
    almost = almost_invariant_check(*args)
    assert set(almost.details) == {"coset_count_at_R", "coset_count_at_R_plus"}
    assert almost.params == decomp.params
