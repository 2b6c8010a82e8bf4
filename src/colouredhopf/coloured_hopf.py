"""Coloured comultiplication, counit and antipode, with axiom verifiers.

The coloured maps conjugate the standard structure maps of the algebra by
colour-group elements: the comultiplication out of the copy with colour nu
lands in the tensor square of the copies with colours lambda and mu, and the
antipode lands in the copy with colour mu.  On generators,

    D(H)    = H ox 1 + 1 ox H
    D(Z)    = (lam/nu) Z ox 1 + (mu/nu) 1 ox Z
    D(psi+-) = (a_lam/a_nu) psi+- ox s^(-+ Z/2) q^(Z)
             + (a_mu/a_nu) s^(+- Z/2) ox psi+-
    eps(X)  = 0 on all four generators
    S(H)    = -H,  S(Z) = -(mu/nu) Z,
    S(psi+-) = -(a_mu/a_nu) q^(-Z) psi+-

with a_c the colour normalisation at the root and every exponent in units
of its own copy's colour (see ``pbw_algebra``).  D's slot scalars are the
Z ratios and odd scales of the colour-pair maps s^lam_nu and s^mu_nu
(``colour_group._pair_map``), and S's are those of s^mu_nu, negated.  The
comultiplication extends as an algebra map into the graded tensor square,
the counit multiplicatively, and the antipode as a graded anti-homomorphism
S(xy) = (-1)**(deg x deg y) S(y) S(x).  Exponential factors are group-like:
D copies their exponents into each slot unchanged, and S negates them.

The verifiers compute both routes of each generalized axiom with the same
engine primitives and report the normalised residual; they are the
arbiters for every convention choice made above.  The four probe verifiers
take the coproducts of their probes from a ``SharedCoproducts`` when given
one, so that the verifiers of one draw compute each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle
from math import comb
from typing import NamedTuple

import numpy as np

from .coefficients import ParamPoint, as_colour
from .colour_group import _pair_map, _pair_scales, _scaled_term, sigma_pair, sigma_pair_slot
from .pbw_algebra import (
    UNIT_MONOMIAL,
    AlgebraElement,
    Home,
    PBWMonomial,
    TensorElement,
    _bounded,
    _exact_monomial,
    _home_mul_data,
    _mul_terms,
    _require_copy,
    apply_linear,
    generators,
    multiply,
    relation_element,
    residual_between,
    substitute_slot,
    tensor_multiply,
    tensor_unit,
    unit,
)
from .reporting import ResidualReport


@dataclass(frozen=True)
class ColouredMapContext:
    """Parameter point plus the colour labels (lam, mu) out / nu in.

    Contexts compare and hash by (p, lam, mu, nu); ``out_homes`` follows
    from them and is built once, on construction.
    """

    p: ParamPoint
    lam: complex
    mu: complex
    nu: complex
    out_homes: tuple[Home, Home] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, mu = as_colour(self.lam), as_colour(self.mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", as_colour(self.nu))
        object.__setattr__(self, "out_homes", (Home(self.p, lam), Home(self.p, mu)))

    @property
    def in_home(self) -> Home:
        return Home(self.p, self.nu)


def _coproduct_factors(ctx: ColouredMapContext) -> tuple[complex, complex, complex, complex]:
    """Slot colour ratios lam/nu, mu/nu and odd-image scales a_lam/a_nu,
    a_mu/a_nu: the Z ratios and odd scales of s^lam_nu and s^mu_nu."""
    rl, a_l, _ = _pair_map(ctx.p, ctx.lam, ctx.nu)
    rm, a_m, _ = _pair_map(ctx.p, ctx.mu, ctx.nu)
    return rl, rm, a_l, a_m


#: slot factors of D(psi+) and D(psi-): the a_lam term, then the a_mu term
_ODD_IMAGES = (
    ((PBWMonomial(0, 0, 0j, 0j, 1, 0), PBWMonomial(0, 0, 1.0 + 0j, -0.5 + 0j, 0, 0)),
     (PBWMonomial(0, 0, 0j, 0.5 + 0j, 0, 0), PBWMonomial(0, 0, 0j, 0j, 1, 0))),
    ((PBWMonomial(0, 0, 0j, 0j, 0, 1), PBWMonomial(0, 0, 1.0 + 0j, 0.5 + 0j, 0, 0)),
     (PBWMonomial(0, 0, 0j, -0.5 + 0j, 0, 0), PBWMonomial(0, 0, 0j, 0j, 0, 1))),
)


class _CoproductShape(NamedTuple):
    """What D does to every basis word of one shape Z^a H^b (psi+)^e (psi-)^d;
    only the colour scalars and the word's exponential label vary."""

    evens: tuple[tuple[int, int, int, int, int], ...]  # (k, j, a - k, b - j, binomial)
    picks: tuple[tuple, ...]  # per choice of odd-image terms: slot offsets and odd bits
    steps: tuple[tuple, ...]  # per odd image: per earlier choice, (scalar index, sign) pairs


#: (a, b, e, d) -> ``_CoproductShape``, filled on first use from ``_ODD_IMAGES``
_COPRODUCT_SHAPES: dict[tuple[int, int, int, int], _CoproductShape] = {}


def _coproduct_shape(a: int, b: int, plus: int, minus: int) -> _CoproductShape:
    """The table of D on the shape Z^a H^b (psi+)^plus (psi-)^minus.

    The terms are ordered by the even term (k, j), then by the choice of a
    term of each odd image, psi+ first.  A row of ``picks`` holds the q and
    s exponents that one choice appends to slot 1, summed here (grid
    exponents add exactly), its odd bits, and the same for slot 2.  A step
    of ``steps`` appends one odd image: for each choice made so far, the
    scalar index (0 for a_lam, 1 for a_mu) of each of the image's two terms
    and whether the Koszul sign falls there, because the term's slot-1
    factor is odd and crosses an odd slot 2.
    """
    shape = _COPRODUCT_SHAPES.get((a, b, plus, minus))
    if shape is not None:
        return shape
    picks = [(0j, 0j, 0, 0, 0j, 0j, 0, 0)]
    steps = []
    for present, images in zip((plus, minus), _ODD_IMAGES):
        if present:
            steps.append(tuple(
                tuple((index, bool((rp + rm) & o1.parity)) for index, (o1, _) in enumerate(images))
                for *_, rp, rm in picks))
            picks = [
                (lq + o1.q_exp, ls + o1.s_exp, lp | o1.plus, lm | o1.minus,
                 rq + o2.q_exp, rs + o2.s_exp, rp | o2.plus, rm | o2.minus)
                for lq, ls, lp, lm, rq, rs, rp, rm in picks
                for o1, o2 in images
            ]
    evens = tuple((k, j, a - k, b - j, comb(a, k) * comb(b, j))
                  for k in range(a + 1) for j in range(b + 1))
    shape = _COPRODUCT_SHAPES[(a, b, plus, minus)] = _CoproductShape(
        evens, tuple(picks), tuple(steps))
    return shape


def _monomial_coproduct(m: PBWMonomial, rl: complex, rm: complex, a_l: complex, a_m: complex,
                        ) -> list[tuple[tuple[PBWMonomial, PBWMonomial], complex]]:
    """Closed-form coproduct of one basis word Z^a H^b E (psi+)^e (psi-)^d.

    D(Z)^a D(H)^b expands binomially, since all four slot factors are even
    and commute.  The group-like exponential E is copied into each slot.
    The odd images are then appended on the right, and no straightening
    is needed: exponentials are functions of the central Z,
    and psi+ is appended before psi-, so each slot stays in normal order.
    The one Koszul sign is -1, when psi+ sits in slot 2 and psi- lands in
    slot 1.  All of this is fixed by the word's shape (``_coproduct_shape``):
    per word, each coefficient is a binomial times rl**k rm**(a-k), then
    times the scalar of each odd image in turn, and each slot exponent is
    the word's label plus the offsets its odd factors carry.
    """
    a, b, qe, se, plus, minus = m
    shape = _coproduct_shape(a, b, plus, minus)
    coeffs = [binom * rl ** k * rm ** ak for k, _, ak, _, binom in shape.evens]
    scalars = (a_l, a_m)
    for step in shape.steps:
        coeffs = [-c * scalars[index] if negate else c * scalars[index]
                  for c, moves in zip(coeffs, cycle(step)) for index, negate in moves]
    if shape.steps:
        slots = [(qe + lq, se + ls, lp, lm, qe + rq, se + rs, rp, rm)
                 for lq, ls, lp, lm, rq, rs, rp, rm in shape.picks]
    else:
        slots = [(qe, se, 0, 0, qe, se, 0, 0)]
    return list(zip([
        (_exact_monomial((k, j, lq, ls, lp, lm)), _exact_monomial((ak, bj, rq, rs, rp, rm)))
        for k, j, ak, bj, _ in shape.evens
        for lq, ls, lp, lm, rq, rs, rp, rm in slots
    ], coeffs))


def coproduct(ctx: ColouredMapContext, x: AlgebraElement) -> TensorElement:
    """Coloured comultiplication, evaluated in closed form per PBW monomial."""
    _require_copy(x.home, ctx.p, ctx.nu, "coproduct")
    factors = _coproduct_factors(ctx)
    terms, gross = apply_linear(x.terms, x.gross,
                                lambda m: _bounded(_monomial_coproduct(m, *factors)))
    return TensorElement(ctx.out_homes, terms, gross)


class SharedCoproducts:
    """``coproduct(ctx, x)`` taken once per context and probe: the probe
    verifiers of one draw take D^{lam,mu}_nu and D^{lam2,mu2}_nu of the same
    probes, and share them through one of these.

    An entry is keyed by the context and the identity of the probe, and
    holds the probe, so no identity is reused while the entry lives.  A miss
    calls ``coproduct`` by this module's global name, looked up at call
    time, so a map planted there reaches every check.  ``run_verification``
    in ``cli`` makes one per draw and drops it with the draw, and
    ``verify_bialgebra`` one per call; a probe verifier called without one
    computes every coproduct afresh.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: dict[tuple[ColouredMapContext, int],
                            tuple[AlgebraElement, TensorElement]] = {}

    def __call__(self, ctx: ColouredMapContext, x: AlgebraElement) -> TensorElement:
        key = (ctx, id(x))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (x, coproduct(ctx, x))
        return entry[1]


def _counit_is_one(m: PBWMonomial) -> bool:
    """Whether the counit sends the basis word m to 1 rather than 0: m is a
    pure exponential, which is group-like."""
    return m.z_deg == 0 and m.h_deg == 0 and not m.plus and not m.minus


def counit(ctx: ColouredMapContext, x: AlgebraElement) -> complex:
    """Coloured counit: kills the generators, sends exponentials to 1."""
    _require_copy(x.home, ctx.p, ctx.nu, "counit")
    total = 0j
    for m, coeff in x.terms.items():
        if _counit_is_one(m):
            total += coeff
    return total


class _AntipodeFactors(NamedTuple):
    """What ``_monomial_antipode`` needs of S^mu_nu."""

    home: Home  # the target copy, colour mu
    ratio: complex  # S(Z) = ratio * Z, ratio = -mu/nu
    psi_scale: complex  # S(psi+-) = psi_scale * q^(-Z) psi+-
    inv_denom: complex | None  # _home_mul_data(home)


def _antipode_factors(p: ParamPoint, mu: complex, nu: complex) -> _AntipodeFactors:
    """S^mu_nu's scalars: those of s^mu_nu, negated."""
    ratio, odd, home = _pair_map(p, mu, nu)
    return _AntipodeFactors(home, -ratio, -odd, _home_mul_data(home))


#: the words q^(-Z) psi+ and q^(-Z) psi- of S(psi+) and S(psi-)
_S_PLUS = PBWMonomial(0, 0, -1.0, 0j, 1, 0)
_S_MINUS = PBWMonomial(0, 0, -1.0, 0j, 0, 1)


def _monomial_antipode(m: PBWMonomial, factors: _AntipodeFactors,
                       ) -> tuple[dict[PBWMonomial, complex], float]:
    """S^mu_nu of one basis word m = Z^a H^b E (psi+)^e (psi-)^d, and its gross.

    S(m) = (-1)^(e d) S(psi-)^d S(psi+)^e S(E) S(H)^b S(Z)^a: the even image
    is one monomial, and each odd image is multiplied in on the left.
    """
    _, ratio, psi_scale, inv = factors
    sign = -1.0 if (m.plus and m.minus) else 1.0
    c = sign * ratio ** m.z_deg * (-1.0) ** m.h_deg
    terms = {_exact_monomial((m.z_deg, m.h_deg, -m.q_exp, -m.s_exp, 0, 0)): c}
    gross = abs(c)
    if m.plus:
        terms, gross = _mul_terms({_S_PLUS: psi_scale}, terms, inv, 0.0, gross)
    if m.minus:
        terms, gross = _mul_terms({_S_MINUS: psi_scale}, terms, inv, 0.0, gross)
    return terms, gross


def antipode(ctx: ColouredMapContext, x: AlgebraElement) -> AlgebraElement:
    """Coloured antipode, extended as a graded anti-homomorphism."""
    _require_copy(x.home, ctx.p, ctx.nu, "antipode")
    factors = _antipode_factors(ctx.p, ctx.mu, ctx.nu)

    def image(m):
        terms, gross = _monomial_antipode(m, factors)
        return terms.items(), gross

    terms, gross = apply_linear(x.terms, x.gross, image)
    return AlgebraElement(factors.home, terms, gross)


# ---------------------------------------------------------------------------
# standard (one-colour) structure maps, kept as an independent reduction oracle
# ---------------------------------------------------------------------------

#: term maps of the standard D(Z), D(H), D(psi+) and D(psi-), written out
#: apart from ``_ODD_IMAGES`` and built once
_STANDARD_Z_IMAGE = {
    (PBWMonomial(1, 0, 0j, 0j, 0, 0), UNIT_MONOMIAL): 1.0 + 0j,
    (UNIT_MONOMIAL, PBWMonomial(1, 0, 0j, 0j, 0, 0)): 1.0 + 0j,
}
_STANDARD_H_IMAGE = {
    (PBWMonomial(0, 1, 0j, 0j, 0, 0), UNIT_MONOMIAL): 1.0 + 0j,
    (UNIT_MONOMIAL, PBWMonomial(0, 1, 0j, 0j, 0, 0)): 1.0 + 0j,
}
_STANDARD_PLUS_IMAGE = {
    (PBWMonomial(0, 0, 0j, 0j, 1, 0), PBWMonomial(0, 0, 1.0 + 0j, -0.5 + 0j, 0, 0)): 1.0 + 0j,
    (PBWMonomial(0, 0, 0j, 0.5 + 0j, 0, 0), PBWMonomial(0, 0, 0j, 0j, 1, 0)): 1.0 + 0j,
}
_STANDARD_MINUS_IMAGE = {
    (PBWMonomial(0, 0, 0j, 0j, 0, 1), PBWMonomial(0, 0, 1.0 + 0j, 0.5 + 0j, 0, 0)): 1.0 + 0j,
    (PBWMonomial(0, 0, 0j, -0.5 + 0j, 0, 0), PBWMonomial(0, 0, 0j, 0j, 0, 1)): 1.0 + 0j,
}


def standard_coproduct(p: ParamPoint, x: AlgebraElement) -> TensorElement:
    """The one-colour comultiplication of the root copy, written directly."""
    homes = (Home(p), Home(p))
    acc = TensorElement(homes)
    z_img = TensorElement(homes, _STANDARD_Z_IMAGE)
    h_img = TensorElement(homes, _STANDARD_H_IMAGE)
    plus_img = TensorElement(homes, _STANDARD_PLUS_IMAGE)
    minus_img = TensorElement(homes, _STANDARD_MINUS_IMAGE)
    for m, coeff in x.terms.items():
        term = tensor_unit(homes).scaled(coeff)
        for _ in range(m.z_deg):
            term = tensor_multiply(term, z_img)
        for _ in range(m.h_deg):
            term = tensor_multiply(term, h_img)
        if m.q_exp != 0 or m.s_exp != 0:
            term = tensor_multiply(term, TensorElement(homes, {(
                PBWMonomial(0, 0, m.q_exp, m.s_exp, 0, 0),
                PBWMonomial(0, 0, m.q_exp, m.s_exp, 0, 0)): 1.0 + 0j}))
        if m.plus:
            term = tensor_multiply(term, plus_img)
        if m.minus:
            term = tensor_multiply(term, minus_img)
        acc = acc + term
    return acc


def standard_antipode(p: ParamPoint, x: AlgebraElement) -> AlgebraElement:
    home = Home(p)
    acc = AlgebraElement(home)
    for m, coeff in x.terms.items():
        sign = -1.0 if (m.plus and m.minus) else 1.0
        term = AlgebraElement(home, {
            PBWMonomial(m.z_deg, m.h_deg, -m.q_exp, -m.s_exp, 0, 0):
            sign * coeff * (-1.0) ** (m.z_deg + m.h_deg)})
        if m.plus:
            term = multiply(AlgebraElement(home, {
                PBWMonomial(0, 0, -1.0 + 0j, 0j, 1, 0): -1.0 + 0j}), term)
        if m.minus:
            term = multiply(AlgebraElement(home, {
                PBWMonomial(0, 0, -1.0 + 0j, 0j, 0, 1): -1.0 + 0j}), term)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# slot application helpers
# ---------------------------------------------------------------------------

def _apply_slot_coproduct(t: TensorElement, slot: int, ctx: ColouredMapContext) -> TensorElement:
    """Apply a coloured comultiplication to one slot; order grows by one."""
    if t.order != 2:
        raise ValueError("_apply_slot_coproduct: start from an order-2 tensor")
    _require_copy(t.homes[slot], ctx.p, ctx.nu, "coproduct")
    factors = _coproduct_factors(ctx)
    out, gross = substitute_slot(t, slot, lambda m: _monomial_coproduct(m, *factors))
    homes = t.homes[:slot] + ctx.out_homes + t.homes[slot + 1:]
    return TensorElement(homes, out, gross)


def _contract_counit_slot(t: TensorElement, slot: int) -> AlgebraElement:
    """Contract one slot of an order-2 tensor with the coloured counit: a
    term whose slot monomial is a pure exponential keeps its other
    monomial, and every other term drops."""
    other = 1 - slot

    def image(key):
        return (((key[other], 1.0),), 1.0) if _counit_is_one(key[slot]) else ((), 0.0)

    terms, gross = apply_linear(t.terms, t.gross, image)
    return AlgebraElement(t.homes[other], terms, gross)


def _antipode_convolution(t: TensorElement, slot: int, s_factors: _AntipodeFactors,
                          lam: complex) -> AlgebraElement:
    """m o (S ox s) or m o (s ox S) on an order-2 tensor, one term at a time.

    S acts on ``slot`` (``_monomial_antipode``); s = ``sigma_pair(lam, ., .)``
    acts on the other slot, from that slot's own colour.  The result lives
    in S's target copy.
    """
    other = 1 - slot
    ratio, odd, _ = _pair_scales(lam, t.homes[other].colour, t.homes[other])
    inv = s_factors.inv_denom

    def image(key):
        s_img, s_gross = _monomial_antipode(key[slot], s_factors)
        mono = key[other]
        sigma_img = {mono: _scaled_term(mono, 1.0 + 0j, ratio, odd)}
        if slot == 0:
            product, gross = _mul_terms(s_img, sigma_img, inv, s_gross)
        else:
            product, gross = _mul_terms(sigma_img, s_img, inv, 0.0, s_gross)
        return product.items(), gross

    terms, gross = apply_linear(t.terms, t.gross, image)
    return AlgebraElement(s_factors.home, terms, gross)


# ---------------------------------------------------------------------------
# probe generation
# ---------------------------------------------------------------------------

_DEGREE2_SHAPES = [
    (z, h, e, d)
    for z in range(3) for h in range(3) for e in range(2) for d in range(2)
    if 0 < z + h + e + d <= 2
]


def _random_label(rng: np.random.Generator) -> tuple[complex, complex]:
    """A generic exponential label (q_exp, s_exp): complex normal(0, 0.5) parts."""
    qe = complex(rng.normal(0, 0.5), rng.normal(0, 0.5))
    se = complex(rng.normal(0, 0.5), rng.normal(0, 0.5))
    return qe, se


def random_probe(rng: np.random.Generator, home: Home) -> AlgebraElement:
    """A sum of three random terms of degree <= 2, possibly with exponential factors."""
    terms: dict[PBWMonomial, complex] = {}
    for _ in range(3):
        z, h, e, d = _DEGREE2_SHAPES[rng.integers(0, len(_DEGREE2_SHAPES))]
        qe, se = _random_label(rng) if rng.random() < 0.5 else (0j, 0j)
        mono = PBWMonomial(z, h, qe, se, e, d)
        coeff = complex(rng.normal(), rng.normal())
        terms[mono] = terms.get(mono, 0j) + coeff
    return AlgebraElement(home, terms)


def basis_probes(p: ParamPoint, nu: complex, rng: np.random.Generator) -> list[AlgebraElement]:
    """Every basis word of degree <= 2 at colour nu, once bare and once labelled.

    The unit and each of ``_DEGREE2_SHAPES`` appear as ``Z^a H^b (psi+)^e
    (psi-)^d`` and as the same word times ``q^(alpha Z) s^(beta Z)``, with a
    fresh random label (alpha, beta) per word.  The probe verifiers are
    linear and the symbolic layer treats exponents as labels, so an identity
    that holds on these words holds on every element of degree <= 2.
    """
    home = Home(p, as_colour(nu))
    probes = []
    for z, h, e, d in [(0, 0, 0, 0), *_DEGREE2_SHAPES]:
        probes.append(AlgebraElement(home, {PBWMonomial(z, h, 0j, 0j, e, d): 1.0 + 0j}))
        qe, se = _random_label(rng)
        probes.append(AlgebraElement(home, {PBWMonomial(z, h, qe, se, e, d): 1.0 + 0j}))
    return probes


# ---------------------------------------------------------------------------
# verifiers for the generalized axioms
# ---------------------------------------------------------------------------

def verify_colour_transformations(
    p: ParamPoint,
    colours: tuple[complex, complex, complex, complex, complex, complex],
    probes: list[AlgebraElement],
    coproducts: SharedCoproducts | None = None,
) -> ResidualReport:
    """Transformation of the coloured maps under the colour group.

    colours = (lam, mu, alpha, beta, gamma, nu); checks
      (s^lam_alpha ox s^mu_beta) o D^{alpha,beta}_nu = D^{lam,mu}_nu
                                                     = D^{lam,mu}_gamma o s^gamma_nu
      eps_alpha o s^alpha_nu = eps_nu
      s^mu_alpha o S^alpha_nu = S^mu_nu = S^mu_beta o s^beta_nu
    """
    of_probe = coproduct if coproducts is None else coproducts
    lam, mu, alpha, beta, gamma, nu = (as_colour(c) for c in colours)
    direct_ctx = ColouredMapContext(p, lam, mu, nu)
    inner_ctx = ColouredMapContext(p, alpha, beta, nu)
    shifted_ctx = ColouredMapContext(p, lam, mu, gamma)
    counit_ctx = ColouredMapContext(p, lam, mu, alpha)
    s_left_ctx = ColouredMapContext(p, lam, alpha, nu)
    s_right_ctx = ColouredMapContext(p, lam, mu, beta)
    report = ResidualReport()
    for x in probes:
        direct = of_probe(direct_ctx, x)

        inner = of_probe(inner_ctx, x)
        lhs = sigma_pair_slot(lam, alpha, inner, 0)
        lhs = sigma_pair_slot(mu, beta, lhs, 1)
        report.merge("coproduct_left", residual_between(lhs, direct))

        shifted = sigma_pair(gamma, nu, x)
        rhs = coproduct(shifted_ctx, shifted)
        report.merge("coproduct_right", residual_between(rhs, direct))

        e_direct = counit(direct_ctx, x)
        e_via = counit(counit_ctx, sigma_pair(alpha, nu, x))
        scale = max(1.0, abs(e_direct), abs(e_via))
        report.merge("counit", abs(e_direct - e_via) / scale)

        s_direct = antipode(direct_ctx, x)
        s_left = sigma_pair(mu, alpha, antipode(s_left_ctx, x))
        report.merge("antipode_left", residual_between(s_left, s_direct))
        s_right = antipode(s_right_ctx, sigma_pair(beta, nu, x))
        report.merge("antipode_right", residual_between(s_right, s_direct))
    return report


def verify_coassociativity(
    p: ParamPoint,
    colours: tuple[complex, ...],
    probes: list[AlgebraElement],
    coproducts: SharedCoproducts | None = None,
) -> ResidualReport:
    """Generalized coassociativity.

    colours = (alpha, beta, gamma, lam, mu, lam2, mu2, nu); checks
      (D^{alpha,beta}_lam ox s^gamma_mu) o D^{lam,mu}_nu
        = (s^alpha_lam2 ox D^{beta,gamma}_mu2) o D^{lam2,mu2}_nu

    Each route applies its colour map to the order-2 inner coproduct, and
    then the slot coproduct to the other slot.  This is the same identity:
    D ox s = (D ox id) o (id ox s), because the two maps act on different
    tensor factors and s is even, so no sign arises.  The colour map then
    scales the terms of an order-2 tensor rather than of the order-3 one,
    which has several times as many.
    """
    of_probe = coproduct if coproducts is None else coproducts
    alpha, beta, gamma, lam, mu, lam2, mu2, nu = (as_colour(c) for c in colours)
    left_ctx = ColouredMapContext(p, lam, mu, nu)
    left_slot_ctx = ColouredMapContext(p, alpha, beta, lam)
    right_ctx = ColouredMapContext(p, lam2, mu2, nu)
    right_slot_ctx = ColouredMapContext(p, beta, gamma, mu2)
    report = ResidualReport()
    for x in probes:
        left_inner = of_probe(left_ctx, x)
        lhs = sigma_pair_slot(gamma, mu, left_inner, 1)
        lhs = _apply_slot_coproduct(lhs, 0, left_slot_ctx)

        right_inner = of_probe(right_ctx, x)
        rhs = sigma_pair_slot(alpha, lam2, right_inner, 0)
        rhs = _apply_slot_coproduct(rhs, 1, right_slot_ctx)

        report.merge("bracketings", residual_between(lhs, rhs))
    return report


def verify_counit_axiom(
    p: ParamPoint,
    colours: tuple[complex, ...],
    probes: list[AlgebraElement],
    coproducts: SharedCoproducts | None = None,
) -> ResidualReport:
    """Generalized counit axiom.

    colours = (alpha, lam, mu, lam2, mu2, nu); checks
      (eps_lam ox s^alpha_mu) o D^{lam,mu}_nu
        = (s^alpha_lam2 ox eps_mu2) o D^{lam2,mu2}_nu = s^alpha_nu
    """
    of_probe = coproduct if coproducts is None else coproducts
    alpha, lam, mu, lam2, mu2, nu = (as_colour(c) for c in colours)
    left_ctx, right_ctx = ColouredMapContext(p, lam, mu, nu), ColouredMapContext(p, lam2, mu2, nu)
    report = ResidualReport()
    for x in probes:
        target = sigma_pair(alpha, nu, x)

        t1 = of_probe(left_ctx, x)
        left = _contract_counit_slot(t1, 0)
        left = sigma_pair(alpha, mu, left)
        report.merge("left_contraction", residual_between(left, target))

        t2 = of_probe(right_ctx, x)
        right = _contract_counit_slot(t2, 1)
        right = sigma_pair(alpha, lam2, right)
        report.merge("right_contraction", residual_between(right, target))
    return report


def verify_antipode_axiom(
    p: ParamPoint,
    colours: tuple[complex, ...],
    probes: list[AlgebraElement],
    coproducts: SharedCoproducts | None = None,
) -> ResidualReport:
    """Generalized antipode axiom.

    colours = (alpha, lam, mu, lam2, mu2, nu); checks both convolutions
      m o (S^alpha_lam ox s^alpha_mu) o D^{lam,mu}_nu
        = m o (s^alpha_lam2 ox S^alpha_mu2) o D^{lam2,mu2}_nu
        = unit * eps_nu
    """
    of_probe = coproduct if coproducts is None else coproducts
    alpha, lam, mu, lam2, mu2, nu = (as_colour(c) for c in colours)
    report = ResidualReport()
    out_home = Home(p, alpha)
    s_left, s_right = _antipode_factors(p, alpha, lam), _antipode_factors(p, alpha, mu2)
    left_ctx, right_ctx = ColouredMapContext(p, lam, mu, nu), ColouredMapContext(p, lam2, mu2, nu)
    for x in probes:
        target = unit(out_home).scaled(counit(left_ctx, x))

        t1 = of_probe(left_ctx, x)
        report.merge("left_convolution",
                     residual_between(_antipode_convolution(t1, 0, s_left, alpha), target))

        t2 = of_probe(right_ctx, x)
        report.merge("right_convolution",
                     residual_between(_antipode_convolution(t2, 1, s_right, alpha), target))
    return report


def verify_bialgebra(
    p: ParamPoint,
    colours: tuple[complex, complex, complex],
    probe_pairs: list[tuple[AlgebraElement, AlgebraElement]],
) -> ResidualReport:
    """Generalized bialgebra axioms on homogeneous probe pairs.

    Checks D(xy) = D(x) D(y), the right side in the graded product of the
    tensor square (``tensor_multiply``), plus D(1) = 1 ox 1,
    eps o m = eps ox eps and eps(1) = 1.
    """
    lam, mu, nu = (as_colour(c) for c in colours)
    ctx = ColouredMapContext(p, lam, mu, nu)
    report = ResidualReport()

    one = unit(ctx.in_home)
    report.merge("unit_coproduct",
                 residual_between(coproduct(ctx, one), tensor_unit(ctx.out_homes)))
    report.merge("unit_counit", abs(counit(ctx, one) - 1.0))

    # D of each distinct probe once: the pairs share their probes
    of_probe = SharedCoproducts()
    for x, y in probe_pairs:
        xy = multiply(x, y)
        lhs = coproduct(ctx, xy)
        rhs = tensor_multiply(of_probe(ctx, x), of_probe(ctx, y))
        report.merge("coproduct_of_product", residual_between(lhs, rhs))

        e_lhs = counit(ctx, xy)
        e_rhs = counit(ctx, x) * counit(ctx, y)
        scale = max(1.0, abs(e_lhs), abs(e_rhs))
        report.merge("counit_of_product", abs(e_lhs - e_rhs) / scale)
    return report


def verify_relation_preservation(p: ParamPoint, colours: tuple[complex, complex, complex]) -> ResidualReport:
    """The comultiplication respects the defining anticommutator.

    D(psi+) D(psi-) + D(psi-) D(psi+) must equal the comultiplication of
    (q_nu**(2Z) - 1)/(q_nu**2 - 1); this pins down the group-like rule for
    exponential factors.
    """
    lam, mu, nu = (as_colour(c) for c in colours)
    ctx = ColouredMapContext(p, lam, mu, nu)
    home = ctx.in_home
    gens = generators(home)
    dplus = coproduct(ctx, gens["psi+"])
    dminus = coproduct(ctx, gens["psi-"])
    lhs = tensor_multiply(dplus, dminus) + tensor_multiply(dminus, dplus)
    rhs = coproduct(ctx, relation_element(home))
    report = ResidualReport()
    report.merge("coproduct_route", residual_between(lhs, rhs))
    return report
