"""Normal-ordered elements of the two-parameter quantum superalgebra of gl(1/1).

The algebra has two even generators H, Z and two odd ones psi+ and psi-,
subject to

    [H, psi+-] = +-2 psi+-,   [Z, .] = 0,
    {psi+, psi-} = (q**(2Z) - 1) / (q**2 - 1),   (psi+-)**2 = 0.

A basis word is Z**a H**b q**(alpha Z) s**(beta Z) (psi+)**eps (psi-)**delta
with eps, delta in {0, 1}.  The exponential factors are first-class monomial
data, which keeps the anticommutator target and all colour-map images inside
the basis.

Elements carry a home tag: the root parameter point together with the colour
of the copy they live in.  The copy with colour c has effective squared
deformation parameter q**(2c), and its exponents are in units of c:
q**(alpha Z) s**(beta Z) on that copy stands for q**(c alpha Z) s**(c beta Z)
at the root.  So the colour maps and the coloured comultiplication and
counit keep exponents as they are, the antipode negates them, and only the
representation evaluates the unit.

Exponents are exact keys.  The public ``PBWMonomial`` constructor snaps
each exponent to the dyadic grid 2**-40 and rejects non-finite values and
real or imaginary parts of modulus 2**11 or more.  Every internal monomial
is built from sums and negations of grid values, which are exact in double
precision while they stay below 2**13, so two routes to one monomial reach
it under one key and ``residual_between`` is a plain dict difference.

Every element carries ``gross``, the largest modulus of any single term
summed into any of its coefficients on the route that built it; each
coefficient is then exact up to a few units of rounding times ``gross``,
and ``residual_between`` divides by it (README, "Residuals").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from . import coefficients
from .coefficients import (
    SINGULAR_FLOOR,
    ParamPoint,
    SingularParameterError,
    as_scalar,
    effective_q_squared,
    precision_cache,
)

#: exponents are snapped to multiples of this
_EXP_GRID = 2.0 ** -40
#: exponents need |Re| and |Im| below this, so sums of a few stay exact
_EXP_BOUND = 2.0 ** 11


def _snap(value: complex) -> complex:
    """An exponent on the dyadic grid; non-finite or out-of-range values raise."""
    z = complex(value)
    if not (abs(z.real) < _EXP_BOUND and abs(z.imag) < _EXP_BOUND):
        raise ValueError(f"PBWMonomial: exponent {value!r} needs finite parts of "
                         f"modulus below {_EXP_BOUND:g}")
    return complex(round(z.real / _EXP_GRID) * _EXP_GRID, round(z.imag / _EXP_GRID) * _EXP_GRID)


class _MonomialFields(NamedTuple):
    z_deg: int
    h_deg: int
    q_exp: complex
    s_exp: complex
    plus: int
    minus: int


class PBWMonomial(_MonomialFields):
    """A normal-ordered basis word Z^a H^b q^(aZ) s^(bZ) (psi+)^e (psi-)^d.

    The constructor snaps both exponents to the grid (module docstring).
    """

    __slots__ = ()

    def __new__(cls, z_deg: int, h_deg: int, q_exp: complex, s_exp: complex,
                plus: int, minus: int):
        return tuple.__new__(cls, (z_deg, h_deg, _snap(q_exp), _snap(s_exp), plus, minus))

    @property
    def parity(self) -> int:
        return (self.plus + self.minus) & 1

    def __str__(self):
        parts = []
        if self.z_deg:
            parts.append("Z" if self.z_deg == 1 else f"Z^{self.z_deg}")
        if self.h_deg:
            parts.append("H" if self.h_deg == 1 else f"H^{self.h_deg}")
        if self.q_exp != 0:
            parts.append(f"q^({self.q_exp:g}Z)")
        if self.s_exp != 0:
            parts.append(f"s^({self.s_exp:g}Z)")
        if self.plus:
            parts.append("psi+")
        if self.minus:
            parts.append("psi-")
        return " ".join(parts) if parts else "1"


#: builds a monomial from one tuple of fields whose exponents are sums or
#: negations of grid values, so already exact, without the constructor's checks
_exact_monomial = partial(tuple.__new__, PBWMonomial)

UNIT_MONOMIAL = PBWMonomial(0, 0, 0j, 0j, 0, 0)
Z_MONOMIAL = PBWMonomial(1, 0, 0j, 0j, 0, 0)
H_MONOMIAL = PBWMonomial(0, 1, 0j, 0j, 0, 0)
PSI_PLUS_MONOMIAL = PBWMonomial(0, 0, 0j, 0j, 1, 0)
PSI_MINUS_MONOMIAL = PBWMonomial(0, 0, 0j, 0j, 0, 1)


@dataclass(frozen=True)
class Home:
    """Which copy of the algebra an element lives in.

    ``point`` is the root parameter point and ``colour`` the accumulated
    colour of the copy, so the copy's nominal deformation parameter is
    q**colour (while s is shared by all copies).  Exponents of the copy's
    monomials are in units of the colour (see the module docstring).
    """

    point: ParamPoint
    colour: complex = 1.0 + 0j

    def effective_q_squared(self) -> complex:
        return effective_q_squared(self.point.q, self.colour)

    def shifted(self, factor: complex) -> "Home":
        return Home(self.point, self.colour * as_scalar(factor))


def _require_copy(home: Home, point: ParamPoint, colour: complex, what: str):
    """Raise unless ``home`` is the copy with ``colour`` at ``point``: the same
    root point, and colours within 1e-9 relative to the larger of 1 and
    either colour's modulus."""
    p = home.point
    # the common case, the very point and an equal colour, needs no arithmetic
    if p is point and home.colour == colour:
        return
    if not ((p is point or (p.q == point.q and p.s == point.s))
            and abs(home.colour - colour) <= 1e-9 * max(1.0, abs(home.colour), abs(colour))):
        raise ValueError(f"{what}: element lives in {home}, expected colour {colour} at {point}")


def _pruned(terms: dict | None) -> dict:
    """The terms above ``precision.prune_tol`` in modulus; a NaN coefficient is kept."""
    if not terms:
        return {}
    tol = coefficients.precision.prune_tol
    # most maps drop nothing, and the test and the copy then run in C; a NaN
    # minimum fails the test, and the filter keeps it
    if min(map(abs, terms.values())) > tol:
        return dict(terms)
    return {key: c for key, c in terms.items() if not abs(c) <= tol}


def _largest(coeffs) -> float:
    """Largest modulus among ``coeffs``, 0 for none."""
    return max(map(abs, coeffs), default=0.0)


def _sum_terms(a: dict, b: dict) -> tuple[dict, float]:
    """The term map a + b, and its gross: the largest coefficient of either."""
    acc = dict(a)
    for key, coeff in b.items():
        acc[key] = acc.get(key, 0j) + coeff
    return acc, max(_largest(a.values()), _largest(b.values()))


class AlgebraElement:
    """A finite complex-linear combination of PBW monomials.

    Term maps are pruned at ``precision.prune_tol`` on construction;
    addition and scalar multiplication are componentwise.  ``gross`` is the
    largest modulus of a term summed into a coefficient on the route that
    built the element (module docstring); an element built from given terms
    has 0.  Instances are treated as immutable values.
    """

    __slots__ = ("home", "terms", "gross")

    def __init__(self, home: Home, terms: dict[PBWMonomial, complex] | None = None,
                 gross: float = 0.0):
        self.home = home
        self.terms: dict[PBWMonomial, complex] = _pruned(terms)
        self.gross = gross

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_copy(other.home, self.home.point, self.home.colour, "add")
        acc, gross = _sum_terms(self.terms, other.terms)
        return AlgebraElement(self.home, acc, max(gross, self.gross, other.gross))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return self.scaled(scalar)

    def scaled(self, scalar: complex) -> "AlgebraElement":
        c = as_scalar(scalar)
        return AlgebraElement(self.home, {m: c * v for m, v in self.terms.items()},
                              self.gross * abs(c))

    def max_abs_coeff(self) -> float:
        return _largest(self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"({c:.6g})*{m}" for m, c in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return "<" + " + ".join(bits) + ">"


def unit(home: Home) -> AlgebraElement:
    return AlgebraElement(home, {UNIT_MONOMIAL: 1.0 + 0j})

def z_gen(home: Home) -> AlgebraElement:
    return AlgebraElement(home, {Z_MONOMIAL: 1.0 + 0j})

def h_gen(home: Home) -> AlgebraElement:
    return AlgebraElement(home, {H_MONOMIAL: 1.0 + 0j})

def psi_plus(home: Home) -> AlgebraElement:
    return AlgebraElement(home, {PSI_PLUS_MONOMIAL: 1.0 + 0j})

def psi_minus(home: Home) -> AlgebraElement:
    return AlgebraElement(home, {PSI_MINUS_MONOMIAL: 1.0 + 0j})

def generators(home: Home) -> dict[str, AlgebraElement]:
    return {
        "H": h_gen(home),
        "Z": z_gen(home),
        "psi+": psi_plus(home),
        "psi-": psi_minus(home),
    }

def relation_element(home: Home) -> AlgebraElement:
    """The anticommutator target (q_c**(2Z) - 1) / (q_c**2 - 1) of the copy."""
    inv = 1.0 / (home.effective_q_squared() - 1.0)
    return AlgebraElement(home, {PBWMonomial(0, 0, 2.0 + 0j, 0j, 0, 0): inv,
                                 UNIT_MONOMIAL: -inv})


class _MulShape(NamedTuple):
    """How the product of two basis words straightens, fixed by their odd
    parts and the H degree of the right word."""

    rows: tuple  # (H shift, extra q exponent, psi+, psi-, hc, factor index) per term
    largest: float | None  # the largest |coefficient|; None when it depends on inv_denom
    with_one: bool  # the psi- psi+ rewrite keeps its -psi+ psi- term, of modulus 1
    h_largest: float  # the largest |hc|: 1 unless moving H past psi shifts it


#: (e1, d1, e2, d2, b2) -> ``_MulShape``, filled on first use
_MUL_SHAPES: dict[tuple[int, int, int, int, int], _MulShape] = {}


def _mul_shape(e1: int, d1: int, e2: int, d2: int, b2: int) -> _MulShape:
    """The table of the product (psi+)^e1 (psi-)^d1 H^b2 (psi+)^e2 (psi-)^d2.

    Each row is one term hc pc H^(b1 + shift) q^(extra Z) (psi+)^e (psi-)^d,
    ordered by the H term, then by the psi word.  The factor index picks pc
    from (1, inv_denom, -inv_denom, -1).
    """
    # psi word (psi+)^e1 (psi-)^d1 (psi+)^e2 (psi-)^d2 -> normal form
    largest = 1.0
    with_one = False
    if d1 == 0:
        psi_terms = [] if e1 and e2 else [(e1 | e2, d2, 0j, 0)]
    elif e2 == 0:
        psi_terms = [] if d2 else [(e1, 1, 0j, 0)]
    else:
        # psi- psi+ = (q_c**(2Z) - 1)/(q_c**2 - 1) - psi+ psi-
        psi_terms = [(e1, d2, 2.0 + 0j, 1), (e1, d2, 0j, 2)]
        largest = None
        if e1 == 0 and d2 == 0:
            psi_terms.append((1, 1, 0j, 3))
            with_one = True
    if not psi_terms:
        return _MulShape((), 0.0, False, 1.0)

    # moving H^b2 left past the left word's psi part shifts H by 2(d1 - e1)
    shift = 2 * (d1 - e1)
    if shift == 0 or b2 == 0:
        h_terms = [(b2, 1.0 + 0j)]
    else:
        h_terms = [(k, complex(math.comb(b2, k) * shift ** (b2 - k))) for k in range(b2 + 1)]
    h_largest = _largest([hc for _, hc in h_terms])
    if largest is not None:
        largest *= h_largest
    rows = tuple((dh, extra_q, pl, mi, hc, factor)
                 for dh, hc in h_terms for pl, mi, extra_q, factor in psi_terms)
    return _MulShape(rows, largest, with_one, h_largest)


def _mono_mul(m1: PBWMonomial, m2: PBWMonomial, inv_denom: complex | None,
              ) -> tuple[list[tuple[PBWMonomial, complex]], float]:
    """Straighten the concatenation of two basis words into normal form.

    Returns the terms and the largest modulus among their coefficients.
    ``inv_denom`` is 1/(q**(2c) - 1) for the home copy, or None when the
    copy is too singular for the anticommutator rewrite (only an error if
    that rewrite is actually needed).

    Which terms arise, their H shifts, psi words and integer factors hc
    depend only on the odd parts of both words and the H degree of m2
    (``_mul_shape``).  Per pair of words, each coefficient is hc times one
    of 1, inv_denom, -inv_denom and -1, and Z degrees and exponents add.
    """
    z1, h1, q1, s1, e1, d1 = m1
    z2, h2, q2, s2, e2, d2 = m2
    key = (e1, d1, e2, d2, h2)
    shape = _MUL_SHAPES.get(key)
    if shape is None:
        shape = _MUL_SHAPES[key] = _mul_shape(*key)
    largest = shape.largest
    if largest is None:
        if inv_denom is None:
            raise SingularParameterError(
                "multiply: anticommutator rewrite needs |q**(2c) - 1| bounded away from 0"
            )
        factors = (1.0 + 0j, inv_denom, -inv_denom, -1.0 + 0j)
        largest = abs(inv_denom)
        if shape.with_one:
            largest = max(largest, 1.0)
        largest *= shape.h_largest
    else:
        factors = (1.0 + 0j,)
    z = z1 + z2
    qe = q1 + q2
    se = s1 + s2
    return [
        (_exact_monomial((z, h1 + dh, qe + extra_q, se, pl, mi)), hc * factors[factor])
        for dh, extra_q, pl, mi, hc, factor in shape.rows
    ], largest


@precision_cache
def _home_mul_data(home: Home) -> complex | None:
    """1/(q**(2c) - 1) of the copy, or None when it is too singular."""
    denom = home.effective_q_squared() - 1.0
    return None if abs(denom) < SINGULAR_FLOOR else 1.0 / denom


def _mul_terms(xs: dict[PBWMonomial, complex], ys: dict[PBWMonomial, complex],
               inv_denom: complex | None, x_gross: float = 0.0, y_gross: float = 0.0,
               ) -> tuple[dict[PBWMonomial, complex], float]:
    """Product of two term maps of one copy (``_home_mul_data``), unpruned,
    and its gross, given the grosses of the factors.

    A term c1 c2 f counts with max(|c1|, x_gross) max(|c2|, y_gross) |f|,
    which also bounds the rounding its two factors bring in.
    """
    acc: dict[PBWMonomial, complex] = {}
    gross = 0.0
    # max(|c|, gross) as a conditional: a call to max costs more in this loop
    ys_bounded = [(m2, c2, a if (a := abs(c2)) > y_gross else y_gross)
                  for m2, c2 in ys.items()]
    for m1, c1 in xs.items():
        b1 = abs(c1)
        if b1 < x_gross:
            b1 = x_gross
        for m2, c2, b2 in ys_bounded:
            c12 = c1 * c2
            products, largest = _mono_mul(m1, m2, inv_denom)
            for mono, coeff in products:
                acc[mono] = acc.get(mono, 0j) + c12 * coeff
            g = b1 * b2 * largest
            if g > gross:
                gross = g
    return acc, gross


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the home copy, straightened to PBW normal form."""
    _require_copy(y.home, x.home.point, x.home.colour, "multiply")
    terms, gross = _mul_terms(x.terms, y.terms, _home_mul_data(x.home), x.gross, y.gross)
    return AlgebraElement(x.home, terms, gross)


def grading_automorphism(x: AlgebraElement) -> AlgebraElement:
    """Scale each homogeneous term by (-1)**parity."""
    return AlgebraElement(
        x.home, {m: (-c if m.parity else c) for m, c in x.terms.items()}, x.gross
    )


class TensorElement:
    """A finite combination of n-fold monomial tensors (n = 2 or 3).

    Each slot carries its own home.  Order-2 tensors multiply with the super
    convention (``tensor_multiply``); order 3 holds the images of a slot
    coproduct.
    """

    __slots__ = ("homes", "terms", "gross")

    def __init__(self, homes: tuple[Home, ...],
                 terms: dict[tuple[PBWMonomial, ...], complex] | None = None,
                 gross: float = 0.0):
        if len(homes) not in (2, 3):
            raise ValueError("TensorElement: order must be 2 or 3")
        self.homes = tuple(homes)
        self.terms: dict[tuple[PBWMonomial, ...], complex] = _pruned(terms)
        self.gross = gross

    @property
    def order(self) -> int:
        return len(self.homes)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_compatible(other, "add")
        acc, gross = _sum_terms(self.terms, other.terms)
        return TensorElement(self.homes, acc, max(gross, self.gross, other.gross))

    def scaled(self, scalar: complex) -> "TensorElement":
        c = as_scalar(scalar)
        return TensorElement(self.homes, {k: c * v for k, v in self.terms.items()},
                             self.gross * abs(c))

    def max_abs_coeff(self) -> float:
        return _largest(self.terms.values())

    def _check_compatible(self, other: "TensorElement", what: str):
        if self.homes is other.homes:
            return
        if self.order != other.order:
            raise ValueError(f"{what}: tensor order mismatch")
        for a, b in zip(self.homes, other.homes):
            _require_copy(b, a.point, a.colour, what)

    def __repr__(self):
        if not self.terms:
            return "<0 (x)>"
        bits = [
            "(%s)*%s" % (format(c, ".6g"), " (x) ".join(str(m) for m in key))
            for key, c in sorted(self.terms.items(), key=lambda kv: str(kv[0]))
        ]
        return "<" + " + ".join(bits) + ">"


def tensor_concat(*parts: AlgebraElement | TensorElement) -> TensorElement:
    """Juxtapose factors into a pure tensor (no products, hence no signs)."""
    homes: list[Home] = []
    for p in parts:
        homes.extend(p.homes if isinstance(p, TensorElement) else (p.home,))
    out: dict[tuple[PBWMonomial, ...], complex] = {}
    keys_coeffs = [
        list(p.terms.items()) if isinstance(p, TensorElement) else
        [((m,), c) for m, c in p.terms.items()]
        for p in parts
    ]
    for combo in itertools.product(*keys_coeffs):
        key = tuple(itertools.chain.from_iterable(k for k, _ in combo))
        coeff = 1.0 + 0j
        for _, c in combo:
            coeff *= c
        out[key] = out.get(key, 0j) + coeff
    gross = math.prod(max(p.max_abs_coeff(), p.gross) for p in parts)
    return TensorElement(tuple(homes), out, gross)


def _bounded(pairs: list) -> tuple[list, float]:
    """The image pairs with the largest modulus among their coefficients."""
    return pairs, _largest([c for _, c in pairs])


def apply_linear(terms: dict, gross: float, image) -> tuple[dict, float]:
    """A linear map applied term by term: the unpruned term map and its gross.

    ``image(key)`` returns ``(pairs, bound)``: the (key, coefficient) pairs
    of the image of one basis key, and a bound on the moduli of those
    coefficients and of every term summed into them.  A term ``coeff * key``
    of an operand of gross ``gross`` then counts with
    max(|coeff|, gross) * bound (README, "Residuals").
    """
    acc: dict = {}
    out_gross = 0.0
    for key, coeff in terms.items():
        pairs, bound = image(key)
        for new_key, c in pairs:
            acc[new_key] = acc.get(new_key, 0j) + coeff * c
        # max(|coeff|, gross) as a conditional: a call to max costs more per term
        g = abs(coeff)
        g = (g if g > gross else gross) * bound
        if g > out_gross:
            out_gross = g
    return acc, out_gross


def substitute_slot(t: TensorElement, slot: int, image
                    ) -> tuple[dict[tuple[PBWMonomial, ...], complex], float]:
    """Replace the monomial in ``slot`` of every term of t by its image.

    ``image(m)`` returns a sequence of (monomial tuple, coefficient) pairs;
    a tuple of length 0, 1 or 2 drops, maps or splits the slot.  The map
    must be even, so no sign arises.  Each distinct slot monomial is mapped
    once, with the largest modulus of its image as its bound.  Returns
    ``apply_linear``'s term map and gross, for the caller to wrap with the
    homes of the result.
    """
    images: dict[PBWMonomial, tuple[list, float]] = {}

    def key_image(key):
        m = key[slot]
        cached = images.get(m)
        if cached is None:
            cached = images[m] = _bounded(image(m))
        pairs, bound = cached
        head, tail = key[:slot], key[slot + 1:]
        return [(head + monos + tail, c) for monos, c in pairs], bound

    return apply_linear(t.terms, t.gross, key_image)


def tensor_unit(homes: tuple[Home, ...]) -> TensorElement:
    return TensorElement(homes, {(UNIT_MONOMIAL,) * len(homes): 1.0 + 0j})


def _twist_negates(a: PBWMonomial, b: PBWMonomial) -> bool:
    """Whether moving a past b picks up -1: the Koszul exponent (deg a)(deg b) is odd."""
    return bool(a.parity * b.parity)


def tensor_multiply(u: TensorElement, v: TensorElement) -> TensorElement:
    """The graded product of two order-2 tensors,
    (x1 ox x2)(y1 ox y2) = (-1)**(deg x2 deg y1) x1 y1 ox x2 y2.

    Each slot product is straightened in its own copy; a term counts into
    ``gross`` with max(|cx|, u.gross) max(|cy|, v.gross) times the largest
    coefficient of either slot product.
    """
    if u.order != 2 or v.order != 2:
        raise ValueError("tensor_multiply: order-2 tensors only")
    u._check_compatible(v, "tensor_multiply")
    left_inv, right_inv = _home_mul_data(u.homes[0]), _home_mul_data(u.homes[1])
    acc: dict[tuple[PBWMonomial, ...], complex] = {}
    gross = 0.0
    u_gross, v_gross = u.gross, v.gross
    # max(|c|, gross) as a conditional: a call to max costs more in this loop
    v_bounded = [(y1, y2, cy, a if (a := abs(cy)) > v_gross else v_gross)
                 for (y1, y2), cy in v.terms.items()]
    for (x1, x2), cx in u.terms.items():
        bx = abs(cx)
        if bx < u_gross:
            bx = u_gross
        for y1, y2, cy, by in v_bounded:
            cxy = -(cx * cy) if _twist_negates(x2, y1) else cx * cy
            right, right_largest = _mono_mul(x2, y2, right_inv)
            left, left_largest = _mono_mul(x1, y1, left_inv)
            for l_mono, cl in left:
                for r_mono, cr in right:
                    acc[(l_mono, r_mono)] = acc.get((l_mono, r_mono), 0j) + cxy * (cl * cr)
            g = bx * by * left_largest * right_largest
            if g > gross:
                gross = g
    return TensorElement(u.homes, acc, gross)


def graded_twist(u: TensorElement) -> TensorElement:
    """Swap the two slots with the Koszul sign (-1)**(deg a deg b)."""
    if u.order != 2:
        raise ValueError("graded_twist: order-2 tensors only")
    return TensorElement((u.homes[1], u.homes[0]), {
        (b, a): -coeff if _twist_negates(a, b) else coeff for (a, b), coeff in u.terms.items()
    }, u.gross)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def residual_between(x, y) -> float:
    """Normalised distance between two elements of the same kind.

    The largest coefficient modulus of x - y, key by key, divided by
    max(1, largest coefficient modulus of either operand, x.gross, y.gross).
    A NaN coefficient makes the residual NaN.
    """
    diff = dict(x.terms)
    for key, coeff in y.terms.items():
        diff[key] = diff.get(key, 0j) - coeff
    moduli = [abs(c) for c in diff.values()]
    if math.isnan(sum(moduli)):
        return math.nan
    scale = max(1.0, _largest(x.terms.values()), _largest(y.terms.values()),
                x.gross, y.gross)
    return max(moduli, default=0.0) / scale
