"""Desk model of the subgroup-symmetric module over a subset.

For a finite subgroup H stabilising a subset B on the left, the formal
vectors sigma_b (b in B) carry an H-group-algebra-valued inner product

    <sigma_g, sigma_k> = rho(g k^-1)   if g k^-1 lies in H, else 0,

extended sesquilinearly, together with a right action by translation
operators.  Projections onto single H-cosets are realized exactly as windowed
diagonal operators, and the two ideal-membership identities that drive the
extension picture are checked on windows:

* the isolation product  prod_{g in F1} (T_g* T_g) * prod_{g in F2} (1 - T_g* T_g)
  recovers the projection onto H;
* with P the diagonal onto X minus B and P^g its translate (T^X_g)* P T^X_g,
  the projection onto H satisfies p_H = p_H P^g whenever g^-1 lies in X minus B.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .geometry import GROWTH, coset_count_check
from .groups import GroupElement
from .operators import (
    TranslationOperator,
    Window,
    adjoint,
    compose,
    coset_projection,
    diagonal,
    domain_projection,
    generator_operator,
    guarded_equal,
    identity_operator,
    make_window,
    subtract,
)
from .reports import CheckReport, ConfigError
from .subsets import SubsetSpec

ZERO = Fraction(0)


class HAlgebraElement:
    """Finite formal rational combination of subgroup translations."""

    def __init__(self, subgroup: SubsetSpec, coeffs: dict | None = None):
        if subgroup.elements is None:
            raise ConfigError("group-algebra elements need a finite subgroup")
        self.subgroup = subgroup
        self.coeffs: dict[tuple, Fraction] = {}
        for word, value in (coeffs or {}).items():
            value = Fraction(value)
            if value != 0:
                self.coeffs[word] = value
        for word in self.coeffs:
            if not subgroup.predicate(word):
                raise ValueError("coefficient outside the subgroup")

    @classmethod
    def unit(cls, subgroup: SubsetSpec) -> "HAlgebraElement":
        return cls(subgroup, {subgroup.ctx.identity().word: Fraction(1)})

    @classmethod
    def of(cls, subgroup: SubsetSpec, h: GroupElement, value=1) -> "HAlgebraElement":
        return cls(subgroup, {h.word: Fraction(value)})

    def __mul__(self, other: "HAlgebraElement") -> "HAlgebraElement":
        mul = self.subgroup.ctx._mul
        out: dict[tuple, Fraction] = {}
        for w1, v1 in self.coeffs.items():
            for w2, v2 in other.coeffs.items():
                prod = mul(w1, w2)
                out[prod] = out.get(prod, ZERO) + v1 * v2
        return HAlgebraElement(self.subgroup, out)

    def star(self) -> "HAlgebraElement":
        inv = self.subgroup.ctx._inv
        return HAlgebraElement(self.subgroup, {inv(w): v for w, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, HAlgebraElement) and self.coeffs == other.coeffs

    def report_form(self):
        fmt = self.subgroup.ctx._format
        return {fmt(w): v for w, v in self.coeffs.items()}


class SigmaVector:
    """Formal rational combination of sigma symbols over subset points."""

    def __init__(self, spec: SubsetSpec, coeffs: dict | None = None):
        self.spec = spec
        self.coeffs: dict[tuple, Fraction] = {}
        for word, value in (coeffs or {}).items():
            value = Fraction(value)
            if value == 0:
                continue
            if not spec.predicate(word):
                raise ConfigError("sigma symbol outside the subset")
            self.coeffs[word] = value

    @classmethod
    def basis(cls, spec: SubsetSpec, g: GroupElement) -> "SigmaVector":
        return cls(spec, {g.word: Fraction(1)})


def module_inner_product(subgroup: SubsetSpec, x: SigmaVector, y: SigmaVector) -> HAlgebraElement:
    """Sesquilinear extension of <sigma_g, sigma_k> = rho(g k^-1) [g k^-1 in H]."""
    mul, inv = subgroup.ctx._mul, subgroup.ctx._inv
    out: dict[tuple, Fraction] = {}
    for wg, vg in x.coeffs.items():
        for wk, vk in y.coeffs.items():
            d = mul(wg, inv(wk))
            if subgroup.predicate(d):
                out[d] = out.get(d, ZERO) + vg * vk
    return HAlgebraElement(subgroup, out)


# ---------------------------------------------------------------------------
# Projection identities on windows
# ---------------------------------------------------------------------------


def isolation_projection(w: Window, f1: Sequence[GroupElement], f2: Sequence[GroupElement]) -> TranslationOperator:
    """prod_{g in F1} (T_g* T_g) * prod_{g in F2} (1 - T_g* T_g), all diagonal.

    Built from domain predicates, so the result is exact on the whole window;
    agreement with the actual operator products is a separate test.
    """
    if not f1 or not f2:
        raise ValueError("both isolation families must be nonempty")
    one = identity_operator(w)
    acc = one
    for g in f1:
        acc = compose(acc, domain_projection(w, g))
    for g in f2:
        acc = compose(acc, subtract(one, domain_projection(w, g)))
    return acc


def verify_ph_in_ideal(
    b_spec: SubsetSpec,
    x_spec: SubsetSpec,
    h_sub: SubsetSpec,
    g: GroupElement,
    radius: int,
) -> CheckReport:
    """Check p_H = p_H P^g on the ambient window for a crossing translate g.

    Precondition from the construction: g^-1 lies in the ambient set but not
    in the subset; ``ConfigError`` otherwise.
    """
    ctx = x_spec.ctx
    g_inv = ctx.invert(g)
    params = {
        "B": b_spec.name,
        "X": x_spec.name,
        "H": h_sub.name,
        "g": g,
        "R": radius,
    }
    if not (x_spec.contains(g_inv) and not b_spec.contains(g_inv)):
        raise ConfigError("g^-1 must lie in the ambient set but outside the subset")
    w = make_window(x_spec, radius)
    t_g = generator_operator(w, g)
    p = diagonal(w, lambda x: not b_spec.contains(x))
    p_g = compose(adjoint(t_g), compose(p, t_g))
    p_h = coset_projection(w, h_sub, ctx.identity())
    return guarded_equal(compose(p_h, p_g), p_h).report("ph-in-ideal", params, {"projection_size": len(p_h.entries)})


def coset_decomposition_check(
    b_spec: SubsetSpec,
    x_spec: SubsetSpec,
    h_sub: SubsetSpec,
    g: GroupElement,
    radius: int,
) -> CheckReport:
    """Partition (B \\ Bg) n Xg into left H-cosets; stable counts are finite-rank evidence.

    The support is computed on windows of radius R and R + GROWTH; the verdict
    is verified-at-scale exactly when the number of cosets agrees.
    """
    ctx = b_spec.ctx
    g_inv = ctx.invert(g)

    def support(r: int) -> list[GroupElement]:
        out = []
        for x in b_spec.elements_in_ball(r):
            shifted = ctx.multiply(x, g_inv)
            if not b_spec.contains(shifted) and x_spec.contains(shifted):
                out.append(x)
        return out

    small = support(radius)
    large = support(radius + GROWTH)
    report = coset_count_check("coset-decomposition", b_spec, x_spec, h_sub, g, radius, small, large)
    report.details.update(support_size_at_R=len(small), support_size_at_R_plus=len(large))
    return report
