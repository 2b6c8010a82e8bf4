import itertools
import math

import numpy as np
import pytest

from colouredhopf.coefficients import ParamPoint, SingularParameterError, sample_params
from colouredhopf.pbw_algebra import (
    PBWMonomial,
    UNIT_MONOMIAL,
    Z_MONOMIAL,
    AlgebraElement,
    Home,
    TensorElement,
    generators,
    graded_twist,
    grading_automorphism,
    h_gen,
    multiply,
    psi_minus,
    psi_plus,
    residual_between,
    tensor_concat,
    tensor_multiply,
    unit,
    z_gen,
    _exact_monomial,
    _largest,
    _mono_mul,
    _require_copy,
)
from colouredhopf.representation import rep

P = ParamPoint(2.0, 1.5)
HOME = Home(P)


def _mono(element):
    """Single term map of a one-term element."""
    assert len(element.terms) == 1
    return next(iter(element.terms.items()))


def test_psi_plus_past_h():
    result = multiply(psi_plus(HOME), h_gen(HOME))
    expected = AlgebraElement(HOME, {
        PBWMonomial(0, 1, 0j, 0j, 1, 0): 1.0 + 0j,
        PBWMonomial(0, 0, 0j, 0j, 1, 0): -2.0 + 0j,
    })
    assert residual_between(result, expected) <= 1e-14


def test_psi_minus_past_h():
    result = multiply(psi_minus(HOME), h_gen(HOME))
    expected = AlgebraElement(HOME, {
        PBWMonomial(0, 1, 0j, 0j, 0, 1): 1.0 + 0j,
        PBWMonomial(0, 0, 0j, 0j, 0, 1): 2.0 + 0j,
    })
    assert residual_between(result, expected) <= 1e-14


def test_psi_squared_vanishes():
    assert multiply(psi_plus(HOME), psi_plus(HOME)).terms == {}
    assert multiply(psi_minus(HOME), psi_minus(HOME)).terms == {}


def test_anticommutator_rewrite():
    # psi- psi+ = q**(2Z)/(q**2-1) - 1/(q**2-1) - psi+ psi-
    result = multiply(psi_minus(HOME), psi_plus(HOME))
    inv = 1.0 / (P.q ** 2 - 1.0)
    expected = AlgebraElement(HOME, {
        PBWMonomial(0, 0, 2.0 + 0j, 0j, 0, 0): inv,
        UNIT_MONOMIAL: -inv,
        PBWMonomial(0, 0, 0j, 0j, 1, 1): -1.0 + 0j,
    })
    assert residual_between(result, expected) <= 1e-13
    # the two-dimensional module is the independent oracle
    lhs = rep(psi_minus(HOME)) @ rep(psi_plus(HOME))
    rhs = rep(result)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_z_is_central():
    for g in generators(HOME).values():
        assert residual_between(multiply(z_gen(HOME), g), multiply(g, z_gen(HOME))) <= 1e-13


def test_tensor_product_no_crossing():
    u = tensor_concat(psi_plus(HOME), unit(HOME))
    v = tensor_concat(unit(HOME), psi_minus(HOME))
    out = tensor_multiply(u, v)
    expected = tensor_concat(psi_plus(HOME), psi_minus(HOME))
    assert residual_between(out, expected) <= 1e-14


def test_tensor_product_odd_crossing_sign():
    u = tensor_concat(unit(HOME), psi_minus(HOME))
    v = tensor_concat(psi_plus(HOME), unit(HOME))
    out = tensor_multiply(u, v)
    expected = tensor_concat(psi_plus(HOME), psi_minus(HOME)).scaled(-1.0)
    assert residual_between(out, expected) <= 1e-14


def test_tensor_product_even_crossing_no_sign():
    u = tensor_concat(h_gen(HOME), unit(HOME))
    v = tensor_concat(psi_plus(HOME), unit(HOME))
    out = tensor_multiply(u, v)
    expected = tensor_concat(multiply(h_gen(HOME), psi_plus(HOME)), unit(HOME))
    assert residual_between(out, expected) <= 1e-14


def test_twist_even_even():
    u = tensor_concat(h_gen(HOME), z_gen(HOME))
    swapped = graded_twist(u)
    expected = tensor_concat(z_gen(HOME), h_gen(HOME))
    assert residual_between(swapped, expected) <= 1e-14


def test_twist_odd_odd_sign():
    u = tensor_concat(psi_plus(HOME), psi_minus(HOME))
    swapped = graded_twist(u)
    expected = tensor_concat(psi_minus(HOME), psi_plus(HOME)).scaled(-1.0)
    assert residual_between(swapped, expected) <= 1e-14


def test_twist_is_involution():
    rng = np.random.default_rng(2)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            m1 = PBWMonomial(rng.integers(0, 2), rng.integers(0, 2),
                             complex(rng.normal(), rng.normal()), 0j,
                             int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            m2 = PBWMonomial(rng.integers(0, 2), 0, 0j, 0j,
                             int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            terms[(m1, m2)] = complex(rng.normal(), rng.normal())
        u = TensorElement((HOME, HOME), terms)
        assert residual_between(graded_twist(graded_twist(u)), u) <= 1e-14


def test_grading_automorphism():
    assert residual_between(grading_automorphism(h_gen(HOME)), h_gen(HOME)) == 0.0
    assert residual_between(grading_automorphism(psi_plus(HOME)),
                            psi_plus(HOME).scaled(-1.0)) == 0.0
    x = h_gen(HOME) + 2.0 * psi_minus(HOME)
    assert residual_between(grading_automorphism(grading_automorphism(x)), x) <= 1e-14


def test_grading_automorphism_is_algebra_map():
    gens = list(generators(HOME).values())
    for x in gens:
        for y in gens:
            lhs = grading_automorphism(multiply(x, y))
            rhs = multiply(grading_automorphism(x), grading_automorphism(y))
            assert residual_between(lhs, rhs) <= 1e-12


def _random_element(rng, home, n_terms=3, max_deg=2):
    shapes = [(z, h, e, d) for z in range(3) for h in range(3)
              for e in range(2) for d in range(2) if z + h + e + d <= max_deg]
    terms = {}
    for _ in range(n_terms):
        z, h, e, d = shapes[rng.integers(0, len(shapes))]
        mono = PBWMonomial(z, h, complex(rng.normal(0, 0.4), rng.normal(0, 0.4)),
                           complex(rng.normal(0, 0.4), rng.normal(0, 0.4)), e, d)
        terms[mono] = terms.get(mono, 0j) + complex(rng.normal(), rng.normal())
    return AlgebraElement(home, terms)


def test_associativity_on_random_elements():
    rng = np.random.default_rng(7)
    for point, _ in sample_params(13, 10):
        home = Home(point)
        x = _random_element(rng, home)
        y = _random_element(rng, home)
        z = _random_element(rng, home)
        lhs = multiply(multiply(x, y), z)
        rhs = multiply(x, multiply(y, z))
        assert residual_between(lhs, rhs) <= 1e-11


def test_unit_is_neutral():
    rng = np.random.default_rng(8)
    x = _random_element(rng, HOME, n_terms=5)
    assert residual_between(multiply(x, unit(HOME)), x) <= 1e-14
    assert residual_between(multiply(unit(HOME), x), x) <= 1e-14


def test_parity_multiplicative():
    gens = generators(HOME)
    for a in gens.values():
        for b in gens.values():
            pa = next(iter(a.terms)).parity
            pb = next(iter(b.terms)).parity
            prod = multiply(a, b)
            for mono in prod.terms:
                assert mono.parity == (pa + pb) % 2


def test_representation_oracle_random_elements():
    rng = np.random.default_rng(21)
    gens = list(generators(HOME).values())
    for a in gens:
        for b in gens:
            lhs = rep(multiply(a, b))
            rhs = rep(a) @ rep(b)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
    for _ in range(50):
        x = _random_element(rng, HOME)
        y = _random_element(rng, HOME)
        lhs = rep(multiply(x, y))
        rhs = rep(x) @ rep(y)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_equal_upto_tol_reflexive_and_sensitive():
    rng = np.random.default_rng(4)
    x = _random_element(rng, HOME, n_terms=4)
    assert residual_between(x, x) == 0.0
    bumped = x + unit(HOME).scaled(1e-3)
    assert residual_between(x, bumped) >= 1e-4


def test_equal_upto_tol_pruned_zero():
    zero = AlgebraElement(HOME)
    tiny = AlgebraElement(HOME, {UNIT_MONOMIAL: 1e-15})  # below prune tolerance
    assert residual_between(zero, tiny) == 0.0


def test_constructor_snaps_float_noise_to_one_key():
    # one true exponent reached through two arithmetic routes
    e1 = (0.1 + 0.2) + 0.7j
    e2 = 0.3 + 0.7j
    assert e1 != e2
    a = PBWMonomial(0, 0, e1, 0j, 0, 0)
    b = PBWMonomial(0, 0, 0j, e2, 0, 0)
    assert a.q_exp == b.s_exp
    assert abs(a.q_exp - e1) <= 2.0 ** -41 * 2 ** 0.5
    assert (a.q_exp.real * 2 ** 40).is_integer() and (a.q_exp.imag * 2 ** 40).is_integer()
    x = AlgebraElement(HOME, {a: 1.0})
    y = AlgebraElement(HOME, {PBWMonomial(0, 0, e2, 0j, 0, 0): 1.0})
    assert set(x.terms) == set(y.terms)
    assert residual_between(x, y) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf")),
                                 2.0 ** 11, complex(0.5, -2.0 ** 11)])
def test_constructor_rejects_non_finite_and_out_of_range_exponents(bad):
    with pytest.raises(ValueError):
        PBWMonomial(0, 0, bad, 0j, 0, 0)
    with pytest.raises(ValueError):
        PBWMonomial(0, 0, 0j, bad, 0, 0)
    PBWMonomial(0, 0, 2.0 ** 11 - 1.0, -(2.0 ** 11 - 1.0), 0, 0)  # just inside the range


def test_residual_between_is_nan_on_a_nan_coefficient():
    clean = unit(HOME) + z_gen(HOME)
    poisoned = AlgebraElement(HOME, {UNIT_MONOMIAL: 1.0, Z_MONOMIAL: complex("nan")})
    assert math.isnan(residual_between(poisoned, clean))
    assert math.isnan(residual_between(clean, poisoned))
    nan_tensor = TensorElement((HOME, HOME), {(UNIT_MONOMIAL, UNIT_MONOMIAL): float("nan")})
    assert math.isnan(residual_between(nan_tensor, TensorElement((HOME, HOME))))


def test_pruning_keeps_nan_and_drops_only_small_terms_in_any_order():
    """Only the term at or below ``precision.prune_tol`` goes, wherever the
    NaN stands, and the kept terms stay in order."""
    words = (UNIT_MONOMIAL, Z_MONOMIAL, PBWMonomial(0, 1, 0j, 0j, 0, 0))
    for values in ((complex("nan"), 1e-20 + 0j, 1.0 + 0j), (complex("nan"), 1.0 + 0j)):
        for coeffs in itertools.permutations(values):
            kept = AlgebraElement(HOME, dict(zip(words, coeffs))).terms
            expected = [(m, c) for m, c in zip(words, coeffs) if abs(c) != 1e-20]
            assert repr(list(kept.items())) == repr(expected), coeffs


def test_residual_scale_includes_the_gross_of_cancelled_terms():
    # (1e6 + 0.1) - 1e6 misses 0.1 by about 9e-11, which is rounding: the
    # residual divides by the largest term summed and reads it as such
    big = unit(HOME).scaled(1e6)
    summed = (big + unit(HOME).scaled(0.1)) + big.scaled(-1.0)
    assert summed.gross == pytest.approx(1e6, rel=1e-6)
    assert 0 < residual_between(summed, unit(HOME).scaled(0.1)) <= 1e-16
    assert residual_between(AlgebraElement(HOME, summed.terms), unit(HOME).scaled(0.1)) > 1e-11


def test_mismatched_homes_rejected():
    other = Home(ParamPoint(3.0, 1.5))
    with pytest.raises(ValueError):
        multiply(h_gen(HOME), h_gen(other))


def test_copy_check_keeps_its_rule_beside_the_identity_fast_path():
    """``_require_copy`` returns at once for the very point and an equal
    colour; every other pair of homes still meets the full rule: the same
    root point by value, and colours within 1e-9 of the larger of 1 and
    either modulus."""
    point = ParamPoint(0.7 + 0.9j, 1.1 - 0.4j)
    colour = 1.5 - 0.75j
    home = Home(point, colour)
    scale = abs(colour)
    _require_copy(home, point, colour, "test")
    _require_copy(home, ParamPoint(0.7 + 0.9j, 1.1 - 0.4j), colour, "test")
    _require_copy(home, point, colour + 0.5e-9 * scale, "test")
    _require_copy(Home(ParamPoint(0.7 + 0.9j, 1.1 - 0.4j), colour + 0.5e-9j * scale),
                  point, colour, "test")
    for other_point, other_colour in ((point, colour + 2e-9 * scale),
                                      (point, colour * (1 + 2e-9j)),
                                      (point, complex("nan")),
                                      (ParamPoint(0.7 + 0.9j, 1.1 + 0.4j), colour),
                                      (ParamPoint(0.7 - 0.9j, 1.1 - 0.4j), colour)):
        with pytest.raises(ValueError, match="element lives in"):
            _require_copy(home, other_point, other_colour, "test")
    with pytest.raises(ValueError, match="element lives in"):
        _require_copy(Home(point, complex("nan")), point, complex("nan"), "test")


def test_tensor_order_mismatch_rejected():
    u = tensor_concat(h_gen(HOME), h_gen(HOME))
    w = tensor_concat(h_gen(HOME), h_gen(HOME), h_gen(HOME))
    with pytest.raises(ValueError):
        tensor_multiply(u, w)
    with pytest.raises(ValueError):
        tensor_multiply(w, w)  # the graded product is defined on order 2 only
    with pytest.raises(ValueError):
        graded_twist(w)


def _reference_mono_mul(m1, m2, inv_denom):
    """``_mono_mul`` as it was written before its shape table: the psi word
    and the H shift worked out afresh for every pair of words."""
    e1, d1 = m1.plus, m1.minus
    e2, d2 = m2.plus, m2.minus
    if d1 == 0:
        if e1 and e2:
            return [], 0.0
        psi_terms = [(e1 | e2, d2, 0j, 1.0 + 0j)]
        largest = 1.0
    elif e2 == 0:
        if d2:
            return [], 0.0
        psi_terms = [(e1, 1, 0j, 1.0 + 0j)]
        largest = 1.0
    else:
        if inv_denom is None:
            raise SingularParameterError("rewrite needed")
        psi_terms = [(e1, d2, 2.0 + 0j, inv_denom), (e1, d2, 0j, -inv_denom)]
        largest = abs(inv_denom)
        if e1 == 0 and d2 == 0:
            psi_terms.append((1, 1, 0j, -1.0 + 0j))
            largest = max(largest, 1.0)
    shift = 2 * (d1 - e1)
    b2 = m2.h_deg
    if shift == 0 or b2 == 0:
        h_terms = [(m1.h_deg + b2, 1.0 + 0j)]
    else:
        h_terms = [
            (m1.h_deg + k, complex(math.comb(b2, k) * shift ** (b2 - k)))
            for k in range(b2 + 1)
        ]
        largest *= _largest([hc for _, hc in h_terms])
    z = m1.z_deg + m2.z_deg
    qe = m1.q_exp + m2.q_exp
    se = m1.s_exp + m2.s_exp
    return [
        (_exact_monomial((z, h, qe + extra_q, se, pl, mi)), hc * pc)
        for h, hc in h_terms
        for pl, mi, extra_q, pc in psi_terms
    ], largest


def test_mono_mul_table_matches_the_direct_rewrite_bit_for_bit():
    """Every ordered pair of the 41 shapes of degree <= 4, with random labels
    (a few of them with negative zeros, which a sum can keep or lose), gives
    the same keys, the same coefficients and the same largest modulus as the
    direct rewrite, compared by repr so that signed zeros count.  Without a
    numeric 1/(q**(2c) - 1), exactly the pairs that need the psi- psi+
    rewrite raise."""
    rng = np.random.default_rng(89)
    shapes = [(z, h, e, d) for z in range(5) for h in range(5) for e in range(2)
              for d in range(2) if z + h + e + d <= 4]
    assert len(shapes) == 41

    def word(z, h, e, d):
        if rng.random() < 0.1:
            return _exact_monomial((z, h, complex(-0.0, -0.0), complex(-0.0, 0.5), e, d))
        qe, se = complex(*rng.normal(0, 0.5, 2)), complex(*rng.normal(0, 0.5, 2))
        return PBWMonomial(z, h, qe, se, e, d)

    for inv_denom in (complex(*rng.normal(size=2)), None):
        for s1 in shapes:
            for s2 in shapes:
                m1, m2 = word(*s1), word(*s2)
                if inv_denom is None and m1.minus and m2.plus:
                    with pytest.raises(SingularParameterError):
                        _mono_mul(m1, m2, None)
                    continue
                assert repr(_mono_mul(m1, m2, inv_denom)) == repr(
                    _reference_mono_mul(m1, m2, inv_denom)), (m1, m2)
