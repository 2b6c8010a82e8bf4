"""Property tests of the PBW multiplication on Hypothesis-drawn elements.

Each example is a guarded parameter point, a copy colour whose shifted
parameter q**(2c) also keeps its distance from 1, and elements of that copy
made of labelled basis words Z^a H^b q^(alpha Z) s^(beta Z) (psi+)^e (psi-)^d.
The runs are derandomized, so Tier-1 stays deterministic.
"""

import cmath

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colouredhopf.coefficients import DEFAULT_GUARD, ParamPoint, effective_q_squared
from colouredhopf.pbw_algebra import (
    AlgebraElement,
    Home,
    PBWMonomial,
    multiply,
    psi_plus,
    residual_between,
    z_gen,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)

_unit = st.floats(-1.0, 1.0)
_complex = st.builds(complex, _unit, _unit)


@st.composite
def _annulus(draw) -> complex:
    """Modulus in [0.5, 2] and any angle: the range the samplers use."""
    return cmath.rect(draw(st.floats(0.5, 2.0)), draw(st.floats(-cmath.pi, cmath.pi)))


@st.composite
def guarded_homes(draw) -> Home:
    q, s, colour = draw(_annulus()), draw(_annulus()), draw(_annulus())
    assume(abs(q * q - 1.0) >= DEFAULT_GUARD)
    assume(abs(effective_q_squared(q, colour) - 1.0) >= DEFAULT_GUARD)
    return Home(ParamPoint(q, s), colour)


_monomial = st.builds(PBWMonomial, st.integers(0, 2), st.integers(0, 2), _complex, _complex,
                      st.integers(0, 1), st.integers(0, 1))
_terms = st.dictionaries(_monomial, _complex, min_size=1, max_size=3)


@st.composite
def homes_and_elements(draw, count: int):
    home = draw(guarded_homes())
    return home, [AlgebraElement(home, draw(_terms)) for _ in range(count)]


@PROPERTY_SETTINGS
@given(homes_and_elements(3))
def test_multiply_is_associative(case):
    _, (x, y, z) = case
    assert residual_between(multiply(multiply(x, y), z), multiply(x, multiply(y, z))) <= 1e-11


@PROPERTY_SETTINGS
@given(homes_and_elements(1))
def test_z_is_central_on_drawn_elements(case):
    home, (x,) = case
    z = z_gen(home)
    assert residual_between(multiply(z, x), multiply(x, z)) <= 1e-12


@PROPERTY_SETTINGS
@given(homes_and_elements(1))
def test_psi_plus_squares_to_zero(case):
    home, (x,) = case
    p = psi_plus(home)
    xp = multiply(x, p)
    assert multiply(xp, p).max_abs_coeff() <= 1e-12 * max(1.0, xp.max_abs_coeff())
