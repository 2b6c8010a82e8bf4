"""Two-dimensional representation, coloured R-matrices and matrix-level checks.

The defining representation acts on a Z2-graded two-dimensional space with
basis parities (even, odd):

    D(Z) = I,  D(H) = diag(1, -1),  D(psi+) = E12,  D(psi-) = E21.

Every matrix is a plain complex ``np.ndarray``: 2x2 on the module, 4x4 and
8x8 on its tensor square and cube, whose basis vectors are ordered
lexicographically, so their parities follow from the dimension.  Tensor
products of operators act with the super sign
(a ox b)(v ox w) = (-1)**(deg b * deg v) a v ox b w, and analogously with
cumulative parities on three factors.  Everything in this module funnels
through that one rule: `rep_tensor` realises it for symbolic tensors, and
`embed` places numeric 4x4 matrices into three tensor slots through constant
(target, source, sign) index maps, built once at import from the rule.

The coloured R-matrix is built twice: from its closed 4x4 form and from the
factorised universal expression

    R = q**((mu H ox Z + lam Z ox H)/2) s**((mu H ox Z - lam Z ox H)/2)
        * (1 ox 1 - (q**2 - 1) a_lam a_mu
           (s**(-lam Z/2) psi+) ox (s**(-mu Z/2) q**(-mu Z) psi-)),

with exponents written at the root (on their own copies the two bracket
factors are s**(-Z/2) psi+ and s**(-Z/2) q**(-Z) psi-), and with the
off-diagonal coefficient written as (q**2 - 1) a_lam a_mu so both
routes share one branch choice.  Their agreement is the cross-validation
oracle; the coloured graded Yang-Baxter equation, the intertwining property
of the comultiplication, the hexagon identities and the nilpotent
closed-form inverse are checked numerically on top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import ParamPoint, as_colour, colour_norm, cpow
from .coloured_hopf import ColouredMapContext, coproduct
from .colour_group import sigma_pair
from .pbw_algebra import (
    AlgebraElement,
    Home,
    PBWMonomial,
    TensorElement,
    generators,
    graded_twist,
    psi_minus,
    psi_plus,
    relation_element,
    tensor_concat,
)
from .reporting import worst

_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_PSI_MATS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): _E12,
    (0, 1): _E21,
    (1, 1): np.diag([1.0 + 0j, 0.0 + 0j]),
}


def _frobenius(m: np.ndarray) -> float:
    """||m||_F of a complex matrix, summed as ``np.linalg.norm`` sums it: the
    dot product of the real parts plus that of the imaginary parts, in the
    array's memory order, then the square root.  Only numpy's dispatch is cut."""
    flat = m.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def frobenius_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F normalised by max(1, ||a||_F)."""
    return _frobenius(a - b) / max(1.0, _frobenius(a))


def _mono_matrix(m: PBWMonomial, q: complex, s: complex, c: complex) -> np.ndarray:
    """Matrix of the basis word m on the copy with colour c.

    This is the one place that evaluates the exponent unit: q**(e Z) on that
    copy is q**(c e Z) at the root, and D(Z) = I.
    """
    scalar = 1.0 + 0j
    if m.q_exp != 0:
        scalar *= cpow(q, c * m.q_exp)
    if m.s_exp != 0:
        scalar *= cpow(s, c * m.s_exp)
    mat = _PSI_MATS[(m.plus, m.minus)]
    if m.h_deg & 1:
        mat = mat.copy()
        mat[1, :] = -mat[1, :]
    return scalar * mat


def rep(x: AlgebraElement) -> np.ndarray:
    """Represent an element on the graded two-dimensional module."""
    q, s, c = x.home.point.q, x.home.point.s, x.home.colour
    out = np.zeros((2, 2), dtype=complex)
    for m, coeff in x.terms.items():
        out += coeff * _mono_matrix(m, q, s, c)
    return out


_COL_I2 = np.array([0, 0, 1, 1])          # first-slot basis parity per column, dim 4
_COL_I3 = np.repeat([0, 1], 4)            # dim 8 column first-slot parity
_COL_J3 = np.tile(np.repeat([0, 1], 2), 2)
_ODD_RIGHT_SIGNS = np.where(_COL_I2 & 1, -1.0, 1.0)  # column signs of a ox b, b odd


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product as one broadcast outer product: entry a_ij * b_kl."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def rep_tensor(u: TensorElement) -> np.ndarray:
    """Represent an order-2 or order-3 tensor with the super action signs."""
    q, s = u.homes[0].point.q, u.homes[0].point.s
    dim = 2 ** u.order
    out = np.zeros((dim, dim), dtype=complex)
    for key, coeff in u.terms.items():
        mats = [_mono_matrix(m, q, s, h.colour) for m, h in zip(key, u.homes)]
        kron = _kron(mats[0], mats[1])
        if u.order == 3:
            kron = _kron(kron, mats[2])
            sign_exp = key[1].parity * _COL_I3 + key[2].parity * (_COL_I3 + _COL_J3)
        else:
            sign_exp = key[1].parity * _COL_I2
        signs = np.where(sign_exp & 1, -1.0, 1.0)
        out += coeff * kron * signs[np.newaxis, :]
    return out


def coloured_R_closed_form(p: ParamPoint, lam: complex, mu: complex) -> np.ndarray:
    """The explicit 4x4 coloured R-matrix."""
    q, s = p.q, p.s
    lv, mv = as_colour(lam), as_colour(mu)
    q_neg = cpow(q, -(lv + mv) / 2)  # in R[3, 3] and in the off-diagonal entry
    off = (q * q - 1.0) * colour_norm(q, lv, p.guard) * colour_norm(q, mv, p.guard) * q_neg
    return np.array([
        [cpow(q, (lv + mv) / 2) * cpow(s, (mv - lv) / 2), 0j, 0j, 0j],
        [0j, cpow(q, (mv - lv) / 2) * cpow(s, (lv + mv) / 2), off, 0j],
        [0j, 0j, cpow(q, (lv - mv) / 2) * cpow(s, -(lv + mv) / 2), 0j],
        [0j, 0j, 0j, q_neg * cpow(s, (lv - mv) / 2)],
    ], dtype=complex)


def _graded_kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-2 operator tensor of 2x2 matrices with the super sign, b odd."""
    return _kron(a, b) * _ODD_RIGHT_SIGNS


@dataclass
class RFactorisation:
    """Diagonal exponential prefactor times a unipotent bracket.

    matrix() returns diag @ (1 + coefficient * odd_left ox odd_right); the
    bracket's nilpotent part squares to zero, so the inverse is closed form.
    """

    diagonal_factor: np.ndarray
    odd_left: np.ndarray
    odd_right: np.ndarray
    coefficient: complex
    #: the bracket's part coefficient * odd_left ox odd_right, formed on construction
    nilpotent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nilpotent = self.coefficient * _graded_kron2(self.odd_left, self.odd_right)

    def matrix(self) -> np.ndarray:
        return self.diagonal_factor.dot(_EYE4 + self.nilpotent)

    def inverse_matrix(self) -> np.ndarray:
        inv_diag = np.diag(1.0 / np.diag(self.diagonal_factor))
        return (_EYE4 - self.nilpotent).dot(inv_diag)


_EYE4 = np.eye(4, dtype=complex)
#: (H ox Z, Z ox H) eigenvalues of each basis vector of the tensor square
_HZ_ZH_4 = tuple(itertools.product((1.0, -1.0), repeat=2))

#: the words s^(-Z/2) psi+ and s^(-Z/2) q^(-Z) psi- of the bracket term, on their own copies
_BRACKET_LEFT = PBWMonomial(0, 0, 0j, -0.5 + 0j, 1, 0)
_BRACKET_RIGHT = PBWMonomial(0, 0, -1.0 + 0j, -0.5 + 0j, 0, 1)


def r_bracket_factors(p: ParamPoint, lam: complex, mu: complex
                      ) -> tuple[complex, AlgebraElement, AlgebraElement]:
    """Coefficient and algebra factors of the R-matrix bracket term."""
    q = p.q
    coeff = -(q * q - 1.0) * colour_norm(q, lam, p.guard) * colour_norm(q, mu, p.guard)
    left = AlgebraElement(Home(p, lam), {_BRACKET_LEFT: 1.0 + 0j})
    right = AlgebraElement(Home(p, mu), {_BRACKET_RIGHT: 1.0 + 0j})
    return coeff, left, right


def r_factorisation(p: ParamPoint, lam: complex, mu: complex) -> RFactorisation:
    """Build the universal-route factorisation of the coloured R-matrix."""
    q, s = p.q, p.s
    lv, mv = as_colour(lam), as_colour(mu)
    diag = np.diag([cpow(q, (mv * hz + lv * zh) / 2.0) * cpow(s, (mv * hz - lv * zh) / 2.0)
                    for hz, zh in _HZ_ZH_4])
    coeff, left, right = r_bracket_factors(p, lv, mv)
    return RFactorisation(
        diagonal_factor=diag,
        odd_left=rep(left),
        odd_right=rep(right),
        coefficient=coeff,
    )


def coloured_R_from_universal(p: ParamPoint, lam: complex, mu: complex) -> np.ndarray:
    """Represent the factorised universal R-matrix on the tensor square."""
    return r_factorisation(p, lam, mu).matrix()


def crossval_residual(p: ParamPoint, lam: complex, mu: complex,
                      closed: np.ndarray | None = None) -> float:
    """Disagreement between the universal route and the closed form.

    ``closed`` passes the closed-form R^{lam,mu} already built for these
    colours, as a sweep shares it; the universal route is always built here.
    """
    if closed is None:
        closed = coloured_R_closed_form(p, lam, mu)
    return frobenius_residual(closed, coloured_R_from_universal(p, lam, mu))


# ---------------------------------------------------------------------------
# graded three-slot embeddings
# ---------------------------------------------------------------------------

def _embedding_map(spectator: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (target, source, sign) indices placing a 4x4 operator [r1, r2, c1, c2]
    beside slot ``spectator``, whose basis index x joins row and column.  By the
    Koszul rule each factor right of the spectator crosses x: (-1)**(x * its degree)."""
    r1, r2, c1, c2, x = np.indices((2,) * 5).reshape(5, -1)
    row, col = [r1, r2], [c1, c2]
    sgn = (-1.0) ** (x * sum(row[spectator:] + col[spectator:]))
    tgt = row[:spectator] + [x] + row[spectator:] + col[:spectator] + [x] + col[spectator:]
    return np.ravel_multi_index(tgt, (2,) * 6), np.ravel_multi_index(row + col, (2,) * 4), sgn


_EMBEDDINGS = {"12": _embedding_map(2), "13": _embedding_map(1), "23": _embedding_map(0)}


def embed(m: np.ndarray, slot: str) -> np.ndarray:
    """Place a 4x4 operator into two of three graded tensor slots: "12",
    "13" or "23".

    The input must act on the graded tensor square; each entry is a matrix
    element of a homogeneous operator pair, whose parities are read off
    entrywise, so sums of homogeneous pairs embed correctly.
    """
    if m.shape != (4, 4):
        raise ValueError("embed: expected a 4x4 matrix")
    if slot not in _EMBEDDINGS:
        raise ValueError(f"embed: unknown slot {slot!r}")
    tgt, src, sgn = _EMBEDDINGS[slot]
    out = np.zeros(64, dtype=complex)
    out[tgt] = m.ravel()[src] * sgn
    return out.reshape(8, 8)


# ---------------------------------------------------------------------------
# matrix-level checks
# ---------------------------------------------------------------------------

def check_coloured_graded_ybe(p: ParamPoint, lam: complex, mu: complex, nu: complex,
                              perturb: float = 0.0, embedded: tuple | None = None) -> float:
    """Residual of R12 R13 R23 = R23 R13 R12 with graded embeddings.

    ``perturb`` scales the off-diagonal entry of a fresh (lam, mu) matrix by
    (1 + perturb); a nonzero value is the negative control establishing
    that the check has power.  ``embedded`` passes unperturbed R12, R13 and
    R23 already embedded for these colours, as a sweep shares them.
    """
    if embedded is None:
        r_lm = coloured_R_closed_form(p, lam, mu)
        if perturb:
            r_lm[1, 2] *= (1.0 + perturb)
        embedded = (embed(r_lm, "12"), embed(coloured_R_closed_form(p, lam, nu), "13"),
                    embed(coloured_R_closed_form(p, mu, nu), "23"))
    elif perturb:
        raise ValueError("check_coloured_graded_ybe: perturb needs matrices built here")
    a, b, c = embedded
    return frobenius_residual(a.dot(b).dot(c), c.dot(b).dot(a))


def check_anticommutator(p: ParamPoint, nu: complex) -> float:
    """The representation respects the defining anticommutator of the copy
    with colour nu: rep(psi+) rep(psi-) + rep(psi-) rep(psi+) against
    rep((q_nu**(2Z) - 1)/(q_nu**2 - 1))."""
    home = Home(p, as_colour(nu))
    dp = rep(psi_plus(home))
    dm = rep(psi_minus(home))
    return frobenius_residual(dp @ dm + dm @ dp, rep(relation_element(home)))


def check_intertwiner(p: ParamPoint, lam: complex, mu: complex, nu: complex) -> float:
    """The R-matrix conjugates the comultiplication into its graded flip:
    the largest residual over the four generators at colour nu."""
    lv, mv, nv = as_colour(lam), as_colour(mu), as_colour(nu)
    fac = r_factorisation(p, lv, mv)
    r_mat, r_inv = fac.matrix(), fac.inverse_matrix()
    flip_ctx, ctx = ColouredMapContext(p, mv, lv, nv), ColouredMapContext(p, lv, mv, nv)
    residual = 0.0
    for x in generators(Home(p, nv)).values():
        lhs = rep_tensor(graded_twist(coproduct(flip_ctx, x)))
        rhs = r_mat @ rep_tensor(coproduct(ctx, x)) @ r_inv
        residual = worst(residual, frobenius_residual(lhs, rhs))
    return residual


def _prefactor_8(p: ParamPoint, cq: tuple[complex, complex, complex],
                 cs: tuple[complex, complex, complex]) -> np.ndarray:
    """Diagonal 8x8 exponential q**nq s**ns on the graded tensor cube.

    nq = (cq[0] h_1 + (cq[1] h_2 + cq[2] h_3))/2 and ns likewise from cs,
    where h_k = +-1 is the H eigenvalue of the basis vector in slot k.  The
    grouping is part of the definition: it fixes how the exponents round.
    """
    q, s = p.q, p.s
    out = np.zeros((8, 8), dtype=complex)
    for idx, (h1, h2, h3) in enumerate(itertools.product((1, -1), repeat=3)):
        nq = (cq[0] * h1 + (cq[1] * h2 + cq[2] * h3)) / 2.0
        ns = (cs[0] * h1 + (cs[1] * h2 + cs[2] * h3)) / 2.0
        out[idx, idx] = cpow(q, nq) * cpow(s, ns)
    return out


def check_hexagons(p: ParamPoint, alpha: complex, beta: complex, gamma: complex,
                   lam: complex, mu: complex) -> tuple[float, float]:
    """Residuals of the two quasitriangularity hexagons on 8x8 matrices.

      (D^{alpha,beta}_lam ox s^gamma_mu)(R^{lam,mu}) = R^{alpha,gamma}_13 R^{beta,gamma}_23
      (s^alpha_lam ox D^{beta,gamma}_mu)(R^{lam,mu}) = R^{alpha,gamma}_13 R^{alpha,beta}_12
    """
    av, bv, gv, lv, mv = (as_colour(c) for c in (alpha, beta, gamma, lam, mu))
    coeff, u_left, v_right = r_bracket_factors(p, lv, mv)
    eye8 = np.eye(8, dtype=complex)

    # first hexagon: comultiply the first leg
    pre1 = _prefactor_8(p, (gv, gv, av + bv), (gv, gv, -(av + bv)))
    du = coproduct(ColouredMapContext(p, av, bv, lv), u_left)
    sv = sigma_pair(gv, mv, v_right)
    bracket1 = eye8 + coeff * rep_tensor(tensor_concat(du, sv))
    lhs1 = pre1 @ bracket1
    r13 = embed(coloured_R_closed_form(p, av, gv), "13")
    rhs1 = r13 @ embed(coloured_R_closed_form(p, bv, gv), "23")
    res1 = frobenius_residual(lhs1, rhs1)

    # second hexagon: comultiply the second leg
    pre2 = _prefactor_8(p, (bv + gv, av, av), (bv + gv, -av, -av))
    su = sigma_pair(av, lv, u_left)
    dv = coproduct(ColouredMapContext(p, bv, gv, mv), v_right)
    bracket2 = eye8 + coeff * rep_tensor(tensor_concat(su, dv))
    lhs2 = pre2 @ bracket2
    rhs2 = r13 @ embed(coloured_R_closed_form(p, av, bv), "12")
    res2 = frobenius_residual(lhs2, rhs2)
    return res1, res2


def check_r_inverse(p: ParamPoint, lam: complex, mu: complex) -> float:
    """Closed-form nilpotent inverse against the numeric matrix inverse."""
    fac = r_factorisation(p, lam, mu)
    return frobenius_residual(np.linalg.inv(fac.matrix()), fac.inverse_matrix())
