import numpy as np
import pytest

from colouredhopf import coloured_hopf, pbw_algebra
from colouredhopf.cli import CHECKS, _draws
from colouredhopf.coefficients import (
    DEFAULT_GUARD,
    ParamPoint,
    as_colour,
    colour_norm,
    draw_colours,
    sample_params,
)
from colouredhopf.colour_group import _pair_scales, _scaled_term, sigma_pair_slot
from colouredhopf.coloured_hopf import (
    ColouredMapContext,
    _coproduct_factors,
    antipode,
    coproduct,
    counit,
    random_probe,
    standard_antipode,
    standard_coproduct,
    verify_antipode_axiom,
    verify_bialgebra,
    verify_coassociativity,
    verify_colour_transformations,
    verify_counit_axiom,
    verify_relation_preservation,
)
from colouredhopf.pbw_algebra import (
    PBWMonomial,
    UNIT_MONOMIAL,
    AlgebraElement,
    Home,
    TensorElement,
    _mul_terms,
    generators,
    h_gen,
    multiply,
    psi_minus,
    psi_plus,
    residual_between,
    tensor_multiply,
    tensor_unit,
    unit,
    z_gen,
)

P = ParamPoint(2.0, 1.5)
PC = ParamPoint(0.7 + 0.9j, 1.1 - 0.4j)


def test_context_builds_its_homes_once_and_compares_by_colours():
    """A context's ``out_homes`` is built on construction, not per access, and
    takes no part in equality or hashing, so per-context caches and the
    benchmark's repeat tokens see equal colours as one context."""
    ctx = ColouredMapContext(PC, 1.3 + 0.2j, 0.8, 1.1)
    assert ctx.out_homes is ctx.out_homes
    assert ctx.out_homes == (Home(PC, 1.3 + 0.2j), Home(PC, 0.8 + 0j))
    twin = ColouredMapContext(PC, 1.3 + 0.2j, 0.8 + 0j, 1.1)
    assert twin == ctx and hash(twin) == hash(ctx)
    assert _coproduct_factors(twin) is _coproduct_factors(ctx)


def test_coproduct_of_z_scales_by_colour_ratios():
    ctx = ColouredMapContext(P, 2.0, 3.0, 6.0)
    out = coproduct(ctx, z_gen(Home(P, 6.0)))
    homes = ctx.out_homes
    expected = TensorElement(homes, {
        (PBWMonomial(1, 0, 0j, 0j, 0, 0), UNIT_MONOMIAL): 1.0 / 3.0,
        (UNIT_MONOMIAL, PBWMonomial(1, 0, 0j, 0j, 0, 0)): 0.5,
    })
    assert residual_between(out, expected) <= 1e-14


def test_coproduct_of_h_is_primitive():
    nu = 1.3 - 0.8j
    ctx = ColouredMapContext(P, nu, nu, nu)
    out = coproduct(ctx, h_gen(Home(P, nu)))
    homes = ctx.out_homes
    expected = TensorElement(homes, {
        (PBWMonomial(0, 1, 0j, 0j, 0, 0), UNIT_MONOMIAL): 1.0 + 0j,
        (UNIT_MONOMIAL, PBWMonomial(0, 1, 0j, 0j, 0, 0)): 1.0 + 0j,
    })
    assert residual_between(out, expected) <= 1e-14


def test_coproduct_respects_defining_relation():
    for point, (c1, c2, c3) in sample_params(41, 10):
        report = verify_relation_preservation(point, (c1, c2, c3))
        assert report.max_residual <= 1e-11


def test_counit_values():
    nu = 1.1 + 0.4j
    ctx = ColouredMapContext(P, 2.0, 0.5, nu)
    home = Home(P, nu)
    assert counit(ctx, h_gen(home)) == 0
    assert counit(ctx, z_gen(home)) == 0
    assert counit(ctx, psi_plus(home)) == 0
    assert counit(ctx, unit(home)) == 1
    exp_elem = AlgebraElement(home, {PBWMonomial(0, 0, 0.7 + 0.1j, 0j, 0, 0): 1.0})
    assert counit(ctx, exp_elem) == 1


def test_antipode_generator_values():
    ctx = ColouredMapContext(P, 2.0, 3.0, 6.0)
    home = Home(P, 6.0)
    out = antipode(ctx, z_gen(home))
    assert residual_between(out, z_gen(Home(P, 3.0)).scaled(-0.5)) <= 1e-14

    assert residual_between(antipode(ctx, unit(home)), unit(Home(P, 3.0))) <= 1e-14

    out = antipode(ctx, psi_plus(home))
    scale = -colour_norm(P.q, 3.0) / colour_norm(P.q, 6.0)
    expected = AlgebraElement(Home(P, 3.0), {
        PBWMonomial(0, 0, -1.0 + 0j, 0j, 1, 0): scale})
    assert residual_between(out, expected) <= 1e-13


def test_colour_transformation_identity_case():
    nu = 1.2 - 0.3j
    rng = np.random.default_rng(0)
    probes = [random_probe(rng, Home(PC, nu)) for _ in range(3)]
    # alpha = lam, beta = mu makes the left transformation the identity
    report = verify_colour_transformations(
        PC, (1.4 + 0.2j, 0.9j, 1.4 + 0.2j, 0.9j, 0.7, nu), probes)
    assert report.details["coproduct_left"] <= 1e-13


def test_colour_transformations_random():
    rng = np.random.default_rng(43)
    for point, (c1, c2, c3) in sample_params(47, 10):
        extra = draw_colours(rng, point.q, 3)
        probes = [random_probe(rng, Home(point, c3)) for _ in range(5)]
        report = verify_colour_transformations(
            point, (extra[0], extra[1], c1, c2, extra[2], c3), probes)
        assert report.max_residual <= 1e-11


def test_coassociativity_reduces_to_ordinary():
    rng = np.random.default_rng(1)
    probes = [random_probe(rng, Home(P)) for _ in range(5)]
    report = verify_coassociativity(P, (1.0,) * 8, probes)
    assert report.max_residual <= 1e-11


def test_coassociativity_random_colours():
    rng = np.random.default_rng(53)
    for point, (c1, c2, c3) in sample_params(59, 10):
        extra = draw_colours(rng, point.q, 5)
        home = Home(point, c3)
        probes = [z_gen(home), psi_plus(home)]
        report = verify_coassociativity(
            point, (c1, c2, *extra, c3), probes)
        assert report.max_residual <= 1e-11


def test_counit_axiom_examples():
    nu = 0.9 + 0.2j
    colours = (1.3, 0.8 + 0.5j, 1.7, 0.6 - 0.4j, 1.1 + 0.9j, nu)
    home = Home(PC, nu)
    report = verify_counit_axiom(PC, colours, [h_gen(home), unit(home), psi_minus(home)])
    assert report.max_residual <= 1e-11


def test_antipode_axiom_h_cancels():
    nu = 1.4 - 0.6j
    colours = (0.8, 1.2 + 0.3j, 0.9, 1.5 - 0.2j, 0.7 + 0.8j, nu)
    home = Home(PC, nu)
    report = verify_antipode_axiom(PC, colours, [h_gen(home), unit(home), psi_plus(home)])
    assert report.max_residual <= 1e-11


def test_antipode_axiom_random():
    rng = np.random.default_rng(61)
    for point, (c1, c2, c3) in sample_params(67, 10):
        extra = draw_colours(rng, point.q, 3)
        probes = [random_probe(rng, Home(point, c3)) for _ in range(5)]
        report = verify_antipode_axiom(
            point, (extra[0], c1, c2, extra[1], extra[2], c3), probes)
        assert report.max_residual <= 1e-11


def test_bialgebra_on_generator_pairs():
    nu = 1.1 + 0.2j
    home = Home(PC, nu)
    gens = generators(home)
    report = verify_bialgebra(
        PC, (0.9 - 0.3j, 1.4 + 0.5j, nu),
        [(gens["psi+"], gens["psi-"]), (gens["H"], gens["Z"]), (gens["psi+"], gens["psi+"])])
    assert report.max_residual <= 1e-11
    # even probes have no sign subtleties at all
    even_only = verify_bialgebra(
        PC, (0.9 - 0.3j, 1.4 + 0.5j, nu), [(gens["H"], gens["Z"])])
    assert even_only.max_residual <= 1e-12


def test_bialgebra_nilpotent_pair_vanishes():
    nu = 1.1 + 0.2j
    home = Home(PC, nu)
    ctx = ColouredMapContext(PC, 0.9 - 0.3j, 1.4 + 0.5j, nu)
    prod = coproduct(ctx, AlgebraElement(home, {}) + psi_plus(home))
    square = verify_bialgebra(PC, (0.9 - 0.3j, 1.4 + 0.5j, nu),
                              [(psi_plus(home), psi_plus(home))])
    assert square.max_residual <= 1e-12
    assert prod.max_abs_coeff() > 0  # sanity: the coproduct itself is not zero


def _squared_degree_twist(a, b):
    """The twist sign rule (deg a)(deg a), planted for the Koszul (deg a)(deg b)."""
    return bool(a.parity)


def test_bialgebra_wrong_twist_sign_fails(monkeypatch):
    monkeypatch.setattr(pbw_algebra, "_twist_negates", _squared_degree_twist)
    nu = 1.1 + 0.2j
    home = Home(PC, nu)
    report = verify_bialgebra(
        PC, (0.9 - 0.3j, 1.4 + 0.5j, nu),
        [(psi_plus(home), psi_minus(home))])
    assert report.max_residual > 1e-3


def test_reduction_to_standard_structure():
    ctx = ColouredMapContext(P, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    probes = [random_probe(rng, Home(P)) for _ in range(10)]
    for x in probes:
        assert residual_between(coproduct(ctx, x), standard_coproduct(P, x)) <= 1e-12
        assert residual_between(antipode(ctx, x), standard_antipode(P, x)) <= 1e-12


def test_coproduct_rejects_foreign_elements():
    ctx = ColouredMapContext(P, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        coproduct(ctx, h_gen(Home(P, 1.0)))  # wrong colour
    with pytest.raises(ValueError):
        coproduct(ColouredMapContext(PC, 1.0, 1.0, 1.0), h_gen(Home(P)))


def _multiplicative_coproduct(ctx, x, factors=None):
    """D as the algebra map of its definition: for each basis word, a fold of
    tensor_multiply over the images of its PBW factors, exponents in units
    of each slot's colour.  The scalars (lam/nu, mu/nu, a_lam/a_nu,
    a_mu/a_nu) are ``factors``, or ``_coproduct_factors(ctx)`` without it."""
    rl, rm, a_l, a_m = factors or _coproduct_factors(ctx)
    homes = ctx.out_homes

    def exp(qe, se):
        return PBWMonomial(0, 0, complex(qe), complex(se), 0, 0)

    z, h = PBWMonomial(1, 0, 0j, 0j, 0, 0), PBWMonomial(0, 1, 0j, 0j, 0, 0)
    plus, minus = PBWMonomial(0, 0, 0j, 0j, 1, 0), PBWMonomial(0, 0, 0j, 0j, 0, 1)
    z_img = TensorElement(homes, {(z, UNIT_MONOMIAL): rl, (UNIT_MONOMIAL, z): rm})
    h_img = TensorElement(homes, {(h, UNIT_MONOMIAL): 1.0 + 0j, (UNIT_MONOMIAL, h): 1.0 + 0j})
    plus_img = TensorElement(homes, {(plus, exp(1, -0.5)): a_l, (exp(0, 0.5), plus): a_m})
    minus_img = TensorElement(homes, {(minus, exp(1, 0.5)): a_l, (exp(0, -0.5), minus): a_m})
    acc = TensorElement(homes)
    for m, coeff in x.terms.items():
        exp_img = TensorElement(homes, {(exp(m.q_exp, m.s_exp), exp(m.q_exp, m.s_exp)): 1.0})
        factors = ([z_img] * m.z_deg + [h_img] * m.h_deg + [exp_img]
                   + [plus_img] * m.plus + [minus_img] * m.minus)
        term = tensor_unit(homes).scaled(coeff)
        for f in factors:
            term = tensor_multiply(term, f)
        acc = acc + term
    return acc


def test_closed_form_coproduct_matches_multiplicative_definition():
    rng = np.random.default_rng(71)
    shapes = [(z, h, e, d) for z in range(5) for h in range(5)
              for e in range(2) for d in range(2)]
    for point, (c1, c2, c3) in sample_params(73, 3):
        ctx = ColouredMapContext(point, c1, c2, c3)
        home = ctx.in_home
        for z, h, e, d in shapes:
            for with_exp in (False, True):
                if with_exp:
                    qe, se = complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2))
                else:
                    qe = se = 0j
                x = AlgebraElement(home, {
                    PBWMonomial(z, h, qe, se, e, d): complex(*rng.normal(size=2))})
                res = residual_between(coproduct(ctx, x), _multiplicative_coproduct(ctx, x))
                assert res <= 1e-12, ((z, h, e, d), with_exp, res)


def test_templated_coproduct_matches_product_of_generator_images():
    """``coproduct`` on all 82 words of degree <= 4 (41 shapes, bare and
    labelled) at three general colour triples equals the product of the
    generator images D(Z), D(H) and D(psi+-) at (lam, mu, nu), whose scalars
    come from the colours here and not from ``_coproduct_factors``."""
    rng = np.random.default_rng(97)
    shapes = [(z, h, e, d) for z in range(5) for h in range(5)
              for e in range(2) for d in range(2) if z + h + e + d <= 4]
    for point, (c1, c2, c3) in sample_params(101, 3):
        ctx = ColouredMapContext(point, c1, c2, c3)
        a_nu = colour_norm(point.q, ctx.nu)
        factors = (ctx.lam / ctx.nu, ctx.mu / ctx.nu,
                   colour_norm(point.q, ctx.lam) / a_nu, colour_norm(point.q, ctx.mu) / a_nu)
        for z, h, e, d in shapes:
            for with_exp in (False, True):
                if with_exp:
                    qe, se = complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2))
                else:
                    qe = se = 0j
                x = AlgebraElement(ctx.in_home, {
                    PBWMonomial(z, h, qe, se, e, d): complex(*rng.normal(size=2))})
                res = residual_between(coproduct(ctx, x),
                                       _multiplicative_coproduct(ctx, x, factors))
                assert res <= 1e-12, ((z, h, e, d), with_exp, res)


def test_verify_draws_probe_every_degree2_word_bare_and_labelled():
    """Each verify draw probes the 13 shapes of degree <= 2 (the unit and
    ``_DEGREE2_SHAPES``) as single words, once bare and once with a generic
    label, at colour nu; the reduction probes are the same words at colour 1.
    The labels are distinct random floats, not a grid that makes every
    exponent sum exact."""
    shapes = [(0, 0, 0, 0), *coloured_hopf._DEGREE2_SHAPES]
    expected = sorted((shape, labelled) for shape in shapes for labelled in (False, True))
    for d in _draws(0, 5, DEFAULT_GUARD):
        labels = []
        for probes, colour in ((d.probes, d.nu), (d.reduction_probes, 1.0)):
            words = []
            for x in probes:
                assert x.home == Home(d.point, as_colour(colour))
                ((m, coeff),) = x.terms.items()
                assert coeff == 1
                labelled = (m.q_exp, m.s_exp) != (0, 0)
                words.append(((m.z_deg, m.h_deg, m.plus, m.minus), labelled))
                if labelled:
                    labels.append((m.q_exp, m.s_exp))
            assert sorted(words) == expected
        assert len(set(labels)) == len(labels) == 2 * len(shapes)
        parts = [v for qe, se in labels for v in (qe.real, qe.imag, se.real, se.imag)]
        assert not all((v * 2**16).is_integer() for v in parts)


def test_probe_verifiers_hold_on_every_word_of_degree_4(monkeypatch):
    """The four probe checks on all 82 words of degree <= 4 (41 shapes, bare
    and labelled), the range of the deep-probe benchmark, on the first 3
    seed-0 verify draws of the widened stream, each at or below its verify
    tolerance.

    The shape list grows before the draws are taken, so the draws are the
    verify stream's own: more labels per draw shift the colours of every
    later draw.  Draw 1 of this stream holds Z^2 psi+ psi- at colours where
    the antipode convolution cancels terms near 1e5; scaled without the
    gross of those terms, rounding alone read antipode_axiom 5.2e-10 there.
    """
    shapes = [(z, h, e, d) for z in range(5) for h in range(5) for e in range(2)
              for d in range(2) if 0 < z + h + e + d <= 4]
    monkeypatch.setattr(coloured_hopf, "_DEGREE2_SHAPES", shapes)
    deep = list(_draws(0, 3, DEFAULT_GUARD))
    assert all(len(d.probes) == 82 for d in deep)
    checks = {c.name: c for c in CHECKS}
    for name in ("colour_transformations", "coassociativity", "counit_axiom", "antipode_axiom"):
        worst = max(checks[name].fn(d) for d in deep)
        assert worst <= checks[name].tolerance, (name, worst)


def _reference_tensor_product(dx, dy):
    """The product D(x) D(y) as ``verify_bialgebra`` wrote it inline before
    ``tensor_multiply`` took its loop, with the Koszul sign written out."""
    left_inv, right_inv = (pbw_algebra._home_mul_data(h) for h in dx.homes)
    rhs = {}
    gross = 0.0
    dx_gross, dy_gross = dx.gross, dy.gross
    dy_bounded = [(y1, y2, cy, a if (a := abs(cy)) > dy_gross else dy_gross)
                  for (y1, y2), cy in dy.terms.items()]
    for (x1, x2), cx in dx.terms.items():
        bx = abs(cx)
        if bx < dx_gross:
            bx = dx_gross
        for y1, y2, cy, by in dy_bounded:
            cxy = -(cx * cy) if x2.parity * y1.parity else cx * cy
            right, right_largest = pbw_algebra._mono_mul(x2, y2, right_inv)
            left, left_largest = pbw_algebra._mono_mul(x1, y1, left_inv)
            for l_mono, cl in left:
                for r_mono, cr in right:
                    rhs[(l_mono, r_mono)] = rhs.get((l_mono, r_mono), 0j) + cxy * (cl * cr)
            g = bx * by * left_largest * right_largest
            if g > gross:
                gross = g
    return TensorElement(dx.homes, rhs, gross)


def test_tensor_multiply_matches_inline_bialgebra_product_bit_for_bit():
    """``tensor_multiply(D(x), D(y))`` gives the keys, coefficients and gross
    of the product ``verify_bialgebra`` once wrote inline, for the coproducts
    of all 82 words of degree <= 4 (41 shapes, bare and labelled) at three
    colour triples.  Every ordered pair of shapes whose degrees sum to at
    most 4 is multiplied once, each pair taking the next of the four
    bare/labelled combinations in turn."""
    rng = np.random.default_rng(103)
    shapes = [(z, h, e, d) for z in range(5) for h in range(5)
              for e in range(2) for d in range(2) if z + h + e + d <= 4]
    for point, (c1, c2, c3) in sample_params(107, 3):
        ctx = ColouredMapContext(point, c1, c2, c3)
        coproducts = []  # (degree, [D of the bare word, D of the labelled word])
        for z, h, e, d in shapes:
            labels = [(0j, 0j), (complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2)))]
            coproducts.append((z + h + e + d, [coproduct(ctx, AlgebraElement(ctx.in_home, {
                PBWMonomial(z, h, qe, se, e, d): complex(*rng.normal(size=2))}))
                for qe, se in labels]))
        pairs = [(dxs, dys) for deg_x, dxs in coproducts for deg_y, dys in coproducts
                 if deg_x + deg_y <= 4]
        for k, (dxs, dys) in enumerate(pairs):
            dx, dy = dxs[k % 2], dys[k // 2 % 2]
            out, ref = tensor_multiply(dx, dy), _reference_tensor_product(dx, dy)
            assert repr(list(out.terms.items())) == repr(list(ref.terms.items()))
            assert repr(out.gross) == repr(ref.gross)


def _reference_coproduct(ctx, x):
    """``coproduct``'s own term loop, as it stood before ``apply_linear``."""
    factors = coloured_hopf._coproduct_factors(ctx)
    acc = {}
    x_gross = x.gross
    gross = 0.0
    for m, coeff in x.terms.items():
        image = coloured_hopf._monomial_coproduct(m, *factors)
        for key, c in image:
            acc[key] = acc.get(key, 0j) + coeff * c
        g = abs(coeff)
        g = (g if g > x_gross else x_gross) * pbw_algebra._largest([c for _, c in image])
        if g > gross:
            gross = g
    return TensorElement(ctx.out_homes, acc, gross)


def _reference_antipode(ctx, x):
    """``antipode``'s own term loop, as it stood before ``apply_linear``."""
    factors = coloured_hopf._antipode_factors(ctx)
    acc = {}
    x_gross = x.gross
    gross = 0.0
    for m, coeff in x.terms.items():
        image, image_gross = coloured_hopf._monomial_antipode(m, factors)
        for key, c in image.items():
            acc[key] = acc.get(key, 0j) + coeff * c
        g = abs(coeff)
        g = (g if g > x_gross else x_gross) * image_gross
        if g > gross:
            gross = g
    return AlgebraElement(factors.home, acc, gross)


def _reference_antipode_convolution(t, slot, s_factors, lam):
    """``_antipode_convolution``'s own term loop, as it stood before ``apply_linear``."""
    other = 1 - slot
    ratio, odd, _ = _pair_scales(lam, t.homes[other].colour, t.homes[other])
    acc = {}
    t_gross = t.gross
    gross = 0.0
    for key, coeff in t.terms.items():
        s_img, s_gross = coloured_hopf._monomial_antipode(key[slot], s_factors)
        mono = key[other]
        sigma_img = {mono: _scaled_term(mono, 1.0 + 0j, ratio, odd)}
        if slot == 0:
            product, product_gross = _mul_terms(s_img, sigma_img, s_factors.inv_denom, s_gross)
        else:
            product, product_gross = _mul_terms(sigma_img, s_img, s_factors.inv_denom,
                                                0.0, s_gross)
        for k, c in product.items():
            acc[k] = acc.get(k, 0j) + coeff * c
        g = abs(coeff)
        g = (g if g > t_gross else t_gross) * product_gross
        if g > gross:
            gross = g
    return AlgebraElement(s_factors.home, acc, gross)


def _reference_substitute_slot(t, slot, image):
    """``substitute_slot``'s own term loop, as it stood before ``apply_linear``."""
    images = {}
    out = {}
    t_gross = t.gross
    gross = 0.0
    for key, coeff in t.terms.items():
        m = key[slot]
        cached = images.get(m)
        if cached is None:
            pairs = image(m)
            cached = images[m] = (pairs, pbw_algebra._largest([c for _, c in pairs]))
        pairs, largest = cached
        g = abs(coeff)
        g = (g if g > t_gross else t_gross) * largest
        if g > gross:
            gross = g
        head, tail = key[:slot], key[slot + 1:]
        for monos, c in pairs:
            new_key = head + monos + tail
            out[new_key] = out.get(new_key, 0j) + coeff * c
    return out, gross

def _reference_slot_maps(t, slot, lam, ctx):
    """``sigma_pair_slot(lam, ., t, slot)``, ``_apply_slot_coproduct(t, slot,
    ctx)`` and ``_contract_counit_slot(t, slot)`` over the former loop."""
    ratio, odd, target = _pair_scales(lam, t.homes[slot].colour, t.homes[slot])
    head, tail = t.homes[:slot], t.homes[slot + 1:]
    out, gross = _reference_substitute_slot(
        t, slot, lambda m: (((m,), _scaled_term(m, 1.0 + 0j, ratio, odd)),))
    sigma = TensorElement(head + (target,) + tail, out, gross)
    factors = coloured_hopf._coproduct_factors(ctx)
    out, gross = _reference_substitute_slot(
        t, slot, lambda m: coloured_hopf._monomial_coproduct(m, *factors))
    split = TensorElement(head + ctx.out_homes + tail, out, gross)
    out, gross = _reference_substitute_slot(
        t, slot, lambda m: (((), 1.0),) if coloured_hopf._counit_is_one(m) else ())
    contracted = AlgebraElement(t.homes[1 - slot], {m: c for (m,), c in out.items()}, gross)
    return sigma, split, contracted


def test_linear_maps_match_their_former_loops_bit_for_bit():
    """``coproduct``, ``antipode``, ``_antipode_convolution`` and the three
    slot maps, all applied through ``apply_linear``, give the keys,
    coefficients and gross of their former hand-written loops.  The inputs
    are the 82 words of degree <= 4 (41 shapes, bare and labelled) at three
    colour triples, every other one with a given gross above its
    coefficient, and the sum of all 82 words with a gross above some of
    them; the tensors are their coproducts."""
    rng = np.random.default_rng(109)
    shapes = [(z, h, e, d) for z in range(5) for h in range(5)
              for e in range(2) for d in range(2) if z + h + e + d <= 4]

    def same_bits(out, ref):
        assert repr(list(out.terms.items())) == repr(list(ref.terms.items()))
        assert repr(out.gross) == repr(ref.gross)

    for point, (c1, c2, c3) in sample_params(113, 3):
        ctx = ColouredMapContext(point, c1, c2, c3)
        words = {}
        for z, h, e, d in shapes:
            labels = [(0j, 0j), (complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2)))]
            for qe, se in labels:
                words[PBWMonomial(z, h, qe, se, e, d)] = complex(*rng.normal(size=2))
        probes = [AlgebraElement(ctx.in_home, {m: c}, 2.0 * abs(c) if k % 2 else 0.0)
                  for k, (m, c) in enumerate(words.items())]
        probes.append(AlgebraElement(ctx.in_home, words, 1.0))
        for x in probes:
            t = coproduct(ctx, x)
            same_bits(t, _reference_coproduct(ctx, x))
            same_bits(antipode(ctx, x), _reference_antipode(ctx, x))
            for slot in (0, 1):
                colour = t.homes[slot].colour
                slot_ctx = ColouredMapContext(point, c3, c1, colour)
                sigma, split, contracted = _reference_slot_maps(t, slot, c2, slot_ctx)
                same_bits(sigma_pair_slot(c2, colour, t, slot), sigma)
                same_bits(coloured_hopf._apply_slot_coproduct(t, slot, slot_ctx), split)
                same_bits(coloured_hopf._contract_counit_slot(t, slot), contracted)
                s_factors = coloured_hopf._antipode_factors(
                    ColouredMapContext(point, c2, c2, colour))
                same_bits(coloured_hopf._antipode_convolution(t, slot, s_factors, c2),
                          _reference_antipode_convolution(t, slot, s_factors, c2))


def _multiplicative_antipode(ctx, x):
    """S as the graded anti-homomorphism of its definition: for each basis word
    Z^a H^b E psi+^e psi-^d, the product (-1)^(e d) S(psi-)^d S(psi+)^e S(E)
    S(H)^b S(Z)^a of generator images, folded with multiply; S negates the
    exponents, which are in units of the home colour."""
    mu, nu = ctx.mu, ctx.nu
    home = Home(ctx.p, mu)
    psi_scale = -colour_norm(ctx.p.q, mu) / colour_norm(ctx.p.q, nu)
    s_z = z_gen(home).scaled(-mu / nu)
    s_h = h_gen(home).scaled(-1.0)
    s_plus = AlgebraElement(home, {PBWMonomial(0, 0, -1.0 + 0j, 0j, 1, 0): psi_scale})
    s_minus = AlgebraElement(home, {PBWMonomial(0, 0, -1.0 + 0j, 0j, 0, 1): psi_scale})
    acc = AlgebraElement(home)
    for m, coeff in x.terms.items():
        s_exp = AlgebraElement(home, {PBWMonomial(0, 0, -m.q_exp, -m.s_exp, 0, 0): 1.0 + 0j})
        factors = ([s_minus] * m.minus + [s_plus] * m.plus + [s_exp]
                   + [s_h] * m.h_deg + [s_z] * m.z_deg)
        term = unit(home).scaled(-coeff if m.plus and m.minus else coeff)
        for f in factors:
            term = multiply(term, f)
        acc = acc + term
    return acc


def test_monomial_antipode_matches_multiplicative_definition():
    rng = np.random.default_rng(79)
    shapes = [(z, h, e, d) for z in range(5) for h in range(5)
              for e in range(2) for d in range(2)]
    for point, (c1, c2, c3) in sample_params(83, 3):
        ctx = ColouredMapContext(point, c1, c2, c3)
        home = ctx.in_home
        for z, h, e, d in shapes:
            for with_exp in (False, True):
                if with_exp:
                    qe, se = complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2))
                else:
                    qe = se = 0j
                x = AlgebraElement(home, {
                    PBWMonomial(z, h, qe, se, e, d): complex(*rng.normal(size=2))})
                res = residual_between(antipode(ctx, x), _multiplicative_antipode(ctx, x))
                assert res <= 1e-12, ((z, h, e, d), with_exp, res)
