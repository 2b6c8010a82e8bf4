"""The colour group acting on the parameter-shifted copies of the algebra.

The map with colour ``nu`` fixes H, scales Z by nu, rescales the odd
generators by the colour normalisation, and replaces the copy's deformation
parameter q_c by q_c**nu (s is untouched).  Composition of colours is
complex multiplication, so the group is GL(1, C).  Exponents are in units
of the home colour, so every map keeps each monomial and only rescales its
coefficient.

Branch policy: the normalisation of a map applied to the copy with colour c
is the single principal square root ((q**(2 c nu) - 1)/(q**(2c) - 1))**(1/2),
faithful to the intrinsic definition on that copy.  Composites through the
root copy (`sigma_pair`) instead use the ratio of root normalisations, which
composes exactly.  The two conventions can differ by a sign on odd
generators; `check_group_laws` measures both rather than assuming either.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import (
    SINGULAR_FLOOR,
    ParamPoint,
    SingularParameterError,
    as_colour,
    colour_norm,
    cpow,
    effective_q_squared,
    precision_cache,
)
from .pbw_algebra import (
    AlgebraElement,
    Home,
    PBWMonomial,
    TensorElement,
    _require_copy,
    apply_linear,
    generators,
    grading_automorphism,
    multiply,
    residual_between,
    unit,
)
from .reporting import worst


def _local_scale(q: complex, source_colour: complex, factor: complex) -> complex:
    """Odd-generator scale of the colour map with ``factor`` out of the copy
    with colour ``source_colour`` (one principal square root)."""
    denom = effective_q_squared(q, source_colour) - 1.0
    if abs(denom) < SINGULAR_FLOOR:
        raise SingularParameterError(
            "colour map: source copy too close to the q**2 == 1 singularity"
        )
    num = effective_q_squared(q, source_colour * factor) - 1.0
    return cpow(num / denom, 0.5)


def _scaled_term(m: PBWMonomial, coeff: complex, z_scale: complex,
                 odd_scale: complex) -> complex:
    """Coefficient of the term ``coeff * m`` under an even map that scales Z
    and the odd generators.  The image is a multiple of m itself, because
    exponents are in units of the home colour and the map moves that colour
    with the element."""
    if m.z_deg:
        coeff *= z_scale ** m.z_deg
    n_odd = m.plus + m.minus
    if n_odd:
        coeff *= odd_scale ** n_odd
    return coeff


def _map_monomials(x: AlgebraElement, z_scale: complex, odd_scale: complex,
                   new_home: Home) -> AlgebraElement:
    """The image of x; its gross is x's times the largest factor applied."""
    gross = x.gross
    if gross:
        gross *= max((abs(_scaled_term(m, 1.0, z_scale, odd_scale)) for m in x.terms),
                     default=1.0)
    return AlgebraElement(new_home, {m: _scaled_term(m, c, z_scale, odd_scale)
                                     for m, c in x.terms.items()}, gross)


def sigma(nu: complex, x: AlgebraElement) -> AlgebraElement:
    """Apply the colour map with parameter nu to an element of its home copy."""
    nu_val = as_colour(nu)
    home = x.home
    scale = _local_scale(home.point.q, home.colour, nu_val)
    return _map_monomials(x, nu_val, scale, home.shifted(nu_val))


def sigma_inverse(nu: complex, x: AlgebraElement) -> AlgebraElement:
    """The exact inverse of ``sigma(nu, .)`` landing on x's home."""
    nu_val = as_colour(nu)
    home = x.home
    source_colour = home.colour / nu_val
    scale = _local_scale(home.point.q, source_colour, nu_val)
    inv_nu = 1.0 / nu_val
    return _map_monomials(x, inv_nu, 1.0 / scale, home.shifted(inv_nu))


def _pair_scales(lam: complex, mu: complex, home: Home) -> tuple[complex, complex, Home]:
    """Z ratio, odd scale and target home of the composite map from the copy
    with colour mu to the one with colour lam, applied on ``home``."""
    scales = _pair_map(home.point, lam, mu)
    _require_copy(home, home.point, mu, "sigma_pair")
    return scales


@precision_cache
def _pair_map(point: ParamPoint, lam: complex, mu: complex) -> tuple[complex, complex, Home]:
    """``_pair_scales`` of the copies with colours mu and lam at ``point``,
    cached by value: a draw maps with about a dozen colour pairs, each up to
    52 times."""
    lam_val = as_colour(lam)
    mu_val = as_colour(mu)
    if lam_val == mu_val:
        odd = 1.0 + 0j
    else:
        q, guard = point.q, point.guard
        odd = colour_norm(q, lam_val, guard) / colour_norm(q, mu_val, guard)
    return lam_val / mu_val, odd, Home(point, lam_val)


def sigma_pair(lam: complex, mu: complex, x: AlgebraElement) -> AlgebraElement:
    """The composite map from the copy with colour mu to the one with colour
    lam, routed through the root copy (ratio of root normalisations)."""
    ratio, odd, target = _pair_scales(lam, mu, x.home)
    return _map_monomials(x, ratio, odd, target)


def sigma_pair_slot(lam: complex, mu: complex, t: TensorElement, slot: int) -> TensorElement:
    """``sigma_pair(lam, mu, .)`` applied to one slot of a tensor.

    The map is even, so no sign arises and the tensor order is kept.  It
    is diagonal, so each term keeps its key and only its coefficient is
    scaled.
    """
    ratio, odd, target = _pair_scales(lam, mu, t.homes[slot])

    def image(key):
        c = _scaled_term(key[slot], 1.0 + 0j, ratio, odd)
        return ((key, c),), abs(c)

    out, gross = apply_linear(t.terms, t.gross, image)
    return TensorElement(t.homes[:slot] + (target,) + t.homes[slot + 1:], out, gross)


def _flip_residual(lhs: AlgebraElement, rhs: AlgebraElement) -> tuple[float, float]:
    """Residual of lhs vs rhs, and vs rhs with its odd terms sign-flipped."""
    signed = residual_between(lhs, rhs)
    flipped = residual_between(lhs, grading_automorphism(rhs))
    return signed, min(signed, flipped)


@dataclass
class GroupLawReport:
    """Residuals of the colour-group laws on a probe set.

    ``composition_signed`` can be order one when the two principal square
    roots entering the composed route pick up the opposite sign from the
    direct route; ``composition`` quotients out that global sign on odd
    generators and is the quantity the suite asserts.
    """

    composition_signed: float
    composition: float
    identity: float
    inverse_signed: float
    inverse: float
    inverse_exact: float
    grading: float
    isomorphism: float
    branch_flip_detected: bool

    @property
    def max_asserted(self) -> float:
        return worst(self.composition, self.identity, self.inverse,
                     self.inverse_exact, self.grading, self.isomorphism)


def check_group_laws(p: ParamPoint, nu: complex, nu2: complex) -> GroupLawReport:
    """Measure composition, identity, inverse and grading compatibility on
    seven root-copy probes.

    ``nu2 o nu`` composes as the complex product; grading compatibility is
    the requirement that the maps commute with the grading automorphism.
    """
    nu_val = as_colour(nu)
    nu2_val = as_colour(nu2)
    home = Home(p)
    gens = generators(home)
    probes = [unit(home), *gens.values(), multiply(gens["psi+"], gens["psi-"]),
              gens["H"] + 0.5 * gens["psi-"]]

    comp_signed = comp = ident = inv_signed = inv = inv_exact = grad = iso = 0.0
    for x in probes:
        sx = sigma(nu_val, x)
        via = sigma(nu2_val, sx)
        direct = sigma(nu2_val * nu_val, x)
        a, b = _flip_residual(via, direct)
        comp_signed, comp = worst(comp_signed, a), worst(comp, b)

        ident = worst(ident, residual_between(sigma(1.0, x), x))

        back = sigma(1.0 / nu_val, sx)
        a, b = _flip_residual(back, x)
        inv_signed, inv = worst(inv_signed, a), worst(inv, b)

        inv_exact = worst(inv_exact, residual_between(sigma_inverse(nu_val, sx), x))

        grad = worst(grad, residual_between(
            sigma(nu_val, grading_automorphism(x)), grading_automorphism(sx)))

    # algebra-isomorphism law on generator pairs
    images = [(x, sigma(nu_val, x)) for x in gens.values()]
    for x, sx in images:
        for y, sy in images:
            lhs = sigma(nu_val, multiply(x, y))
            iso = worst(iso, residual_between(lhs, multiply(sx, sy)))

    return GroupLawReport(
        composition_signed=comp_signed,
        composition=comp,
        identity=ident,
        inverse_signed=inv_signed,
        inverse=inv,
        inverse_exact=inv_exact,
        grading=grad,
        isomorphism=iso,
        branch_flip_detected=(comp_signed > 100 * max(comp, 1e-300)) or
                             (inv_signed > 100 * max(inv, 1e-300)),
    )
