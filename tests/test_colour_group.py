import math

import numpy as np
import pytest

from colouredhopf.coefficients import ParamPoint, colour_norm, sample_params
from colouredhopf.coloured_hopf import ColouredMapContext, coproduct
from colouredhopf.colour_group import (
    check_group_laws,
    sigma,
    sigma_inverse,
    sigma_pair,
    sigma_pair_slot,
)
from colouredhopf.pbw_algebra import (
    AlgebraElement,
    Home,
    PBWMonomial,
    generators,
    grading_automorphism,
    multiply,
    psi_minus,
    psi_plus,
    residual_between,
    tensor_concat,
    z_gen,
)

P = ParamPoint(2.0, 1.5)
HOME = Home(P)


def test_sigma_on_generators():
    nu = 1.7 - 0.4j
    gens = generators(HOME)
    assert residual_between(sigma(nu, gens["H"]), generators(Home(P, nu))["H"]) <= 1e-14
    img = sigma(nu, gens["Z"])
    expected = z_gen(Home(P, nu)).scaled(nu)
    assert residual_between(img, expected) <= 1e-14


def test_sigma_identity_colour():
    x = h_plus_psi = generators(HOME)["H"] + 0.3 * psi_minus(HOME)
    assert residual_between(sigma(1.0, x), x) <= 1e-14


def test_sigma_odd_scale_example():
    # at q = 2 the colour-2 normalisation is sqrt(5)
    img = sigma(2.0, psi_plus(HOME))
    expected = psi_plus(Home(P, 2.0)).scaled(math.sqrt(5.0))
    assert residual_between(img, expected) <= 1e-12


def test_sigma_inverse_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        nu = complex(rng.normal(), rng.normal())
        if abs(nu) < 0.2:
            continue
        x = psi_plus(HOME) + 0.7 * generators(HOME)["Z"]
        back = sigma_inverse(nu, sigma(nu, x))
        assert residual_between(back, x) <= 1e-12


def test_sigma_inverse_identity():
    x = generators(HOME)["H"]
    assert residual_between(sigma_inverse(1.0, x), x) <= 1e-14


def test_sigma_inverse_scales_z_down():
    z_at_two = z_gen(Home(P, 2.0))
    img = sigma_inverse(2.0, z_at_two)
    assert residual_between(img, z_gen(HOME).scaled(0.5)) <= 1e-14


def test_group_laws_trivial_colours():
    report = check_group_laws(P, 1.0, 1.0)
    assert report.composition_signed == 0.0
    assert report.max_asserted <= 1e-14


def test_composition_on_odd_generator_up_to_sign():
    # composed and direct normalisations agree up to a global sign
    rng = np.random.default_rng(23)
    for _ in range(100):
        nu = complex(rng.normal(), rng.normal())
        nu2 = complex(rng.normal(), rng.normal())
        if min(abs(nu), abs(nu2), abs(nu * nu2)) < 0.2:
            continue
        via = sigma(nu2, sigma(nu, psi_plus(HOME)))
        direct = sigma(nu2 * nu, psi_plus(HOME))
        res_signed = residual_between(via, direct)
        res_flip = residual_between(via, grading_automorphism(direct))
        assert min(res_signed, res_flip) <= 1e-12


def test_grading_compatibility():
    nu = 0.8 + 1.1j
    img = sigma(nu, grading_automorphism(psi_minus(HOME)))
    expected = grading_automorphism(sigma(nu, psi_minus(HOME)))
    assert residual_between(img, expected) == 0.0
    # both equal -a^nu psi-
    a_nu = colour_norm(P.q, nu)
    assert residual_between(img, psi_minus(Home(P, nu)).scaled(-a_nu)) <= 1e-13


def test_sigma_is_algebra_isomorphism():
    # exercises (a^nu)**2 (q**2 - 1) = q**(2 nu) - 1
    rng = np.random.default_rng(29)
    for point, (c1, _, _) in sample_params(31, 20):
        home = Home(point)
        gens = list(generators(home).values())
        for x in gens:
            for y in gens:
                lhs = sigma(c1, multiply(x, y))
                rhs = multiply(sigma(c1, x), sigma(c1, y))
                assert residual_between(lhs, rhs) <= 1e-11


def test_group_laws_over_draws():
    flips = 0
    for point, (c1, c2, _) in sample_params(2, 100):
        report = check_group_laws(point, c1, c2)
        assert report.max_asserted <= 1e-11
        flips += report.branch_flip_detected
    # the signed comparison must disagree for some draws, otherwise the
    # up-to-sign bookkeeping would be untested
    assert flips > 0


def test_sigma_pair_composition_is_exact():
    # routed through the root copy, composition telescopes exactly
    rng = np.random.default_rng(37)
    for _ in range(50):
        a, b, c = (complex(rng.normal(), rng.normal()) for _ in range(3))
        if min(abs(a), abs(b), abs(c)) < 0.2:
            continue
        x = psi_plus(Home(P, c)) + 0.5 * z_gen(Home(P, c))
        via = sigma_pair(a, b, sigma_pair(b, c, x))
        direct = sigma_pair(a, c, x)
        assert residual_between(via, direct) <= 1e-12


def test_sigma_pair_rejects_wrong_home():
    with pytest.raises(ValueError):
        sigma_pair(2.0, 3.0, psi_plus(HOME))  # element lives at colour 1, not 3


def test_sigma_pair_slot_matches_sigma_pair_on_each_slot():
    mu = 0.8 + 0.6j
    x = psi_plus(Home(P, mu)) + 0.5 * z_gen(Home(P, mu))
    y = psi_minus(HOME) + 2.0 * z_gen(HOME)
    t = tensor_concat(x, y, x)
    for slot, (left, mid, right) in enumerate([
            (sigma_pair(1.3, mu, x), y, x),
            (x, sigma_pair(1.3, 1.0, y), x),
            (x, y, sigma_pair(1.3, mu, x))]):
        source = 1.0 if slot == 1 else mu
        out = sigma_pair_slot(1.3, source, t, slot)
        assert out.homes[slot] == Home(P, 1.3)
        assert residual_between(out, tensor_concat(left, mid, right)) == 0.0
    with pytest.raises(ValueError):
        sigma_pair_slot(1.3, mu, t, 1)  # slot 1 lives at colour 1, not mu


def test_colour_maps_keep_monomial_keys():
    """Exponents are in units of the home colour, so two routes through the
    colour maps reach each monomial under one key, not float-noise variants."""
    rng = np.random.default_rng(131)
    for point, colours in sample_params(137, 10, colours_per_draw=5):
        lam, mu, nu, alpha, beta = colours
        x = AlgebraElement(Home(point, nu), {
            PBWMonomial(z, h, complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2)),
                        e, d): complex(*rng.normal(size=2))
            for z, h, e, d in ((0, 0, 0, 0), (1, 0, 1, 0), (0, 2, 0, 1), (1, 1, 1, 1))})
        via = sigma_pair(lam, mu, sigma_pair(mu, nu, x))
        assert set(via.terms) == set(sigma_pair(lam, nu, x).terms)
        inner = coproduct(ColouredMapContext(point, alpha, beta, nu), x)
        lhs = sigma_pair_slot(mu, beta, sigma_pair_slot(lam, alpha, inner, 0), 1)
        assert set(lhs.terms) == set(coproduct(ColouredMapContext(point, lam, mu, nu), x).terms)
