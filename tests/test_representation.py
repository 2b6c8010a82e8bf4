from functools import cached_property

import numpy as np
import pytest

from colouredhopf.coefficients import ParamPoint, colour_norm, cpow, draw_colours, sample_params
from colouredhopf.coloured_hopf import ColouredMapContext, coproduct
from colouredhopf.pbw_algebra import (
    PBWMonomial,
    AlgebraElement,
    Home,
    generators,
    h_gen,
    multiply,
    psi_minus,
    psi_plus,
    tensor_concat,
    tensor_multiply,
    unit,
    z_gen,
)
from colouredhopf.representation import (
    _graded_kron2,
    _kron,
    check_coloured_graded_ybe,
    check_hexagons,
    check_intertwiner,
    check_r_inverse,
    coloured_R_closed_form,
    coloured_R_from_universal,
    crossval_residual,
    embed,
    frobenius_residual,
    r_bracket_factors,
    r_factorisation,
    rep,
    rep_tensor,
)

P = ParamPoint(2.0, 1.5)
PC = ParamPoint(0.7 + 0.9j, 1.1 - 0.4j)
HOME = Home(P)


def test_rep_generator_matrices():
    assert np.allclose(rep(h_gen(HOME)), np.diag([1.0, -1.0]))
    assert np.allclose(rep(z_gen(HOME)), np.eye(2))
    assert np.allclose(rep(psi_plus(HOME)), [[0, 1], [0, 0]])
    assert np.allclose(rep(psi_minus(HOME)), [[0, 0], [1, 0]])


def test_rep_product_of_odd_generators():
    prod = multiply(psi_plus(HOME), psi_minus(HOME))
    assert np.allclose(rep(prod), np.diag([1.0, 0.0]))


def test_rep_of_relation_is_identity():
    # (q**(2Z) - 1)/(q**2 - 1) represents to the identity since D(Z) = I
    from colouredhopf.pbw_algebra import relation_element

    rel = rep(relation_element(HOME))
    assert np.allclose(rel, np.eye(2), atol=1e-14)
    anti = (rep(psi_plus(HOME)) @ rep(psi_minus(HOME))
            + rep(psi_minus(HOME)) @ rep(psi_plus(HOME)))
    assert np.allclose(anti, rel, atol=1e-14)


def test_rep_of_exponential_factor():
    elem = AlgebraElement(HOME, {PBWMonomial(0, 0, 2.0 + 0j, 0j, 0, 0): 1.0})
    assert np.allclose(rep(elem), (P.q ** 2) * np.eye(2))


def test_rep_evaluates_exponents_in_units_of_the_home_colour():
    # q^(e Z) and s^(f Z) on the copy with colour c represent as q^(c e) I and s^(c f) I,
    # with e and f as the constructor snapped them to the exponent grid
    q_mono = PBWMonomial(0, 0, 0.7 - 0.3j, 0j, 0, 0)
    s_mono = PBWMonomial(0, 0, 0j, -0.4 + 0.9j, 0, 0)
    for c in (1.0 + 0j, 2.0 + 0j, 1.3 + 0.4j):
        for mono, scalar in ((q_mono, cpow(PC.q, c * q_mono.q_exp)),
                             (s_mono, cpow(PC.s, c * s_mono.s_exp))):
            mat = rep(AlgebraElement(Home(PC, c), {mono: 1.0}))
            assert np.array_equal(mat, scalar * np.eye(2))


def test_rep_tensor_even_operator():
    u = tensor_concat(h_gen(HOME), unit(HOME))
    assert np.allclose(rep_tensor(u), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_rep_tensor_odd_pair_sign():
    u = tensor_concat(psi_plus(HOME), psi_minus(HOME))
    mat = rep_tensor(u)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = -1.0  # row (e1 ox e2), column (e2 ox e1), odd crossing
    assert np.allclose(mat, expected)


def test_rep_tensor_of_coproduct_of_z():
    lam, mu, nu = 2.0, 3.0, 6.0
    ctx = ColouredMapContext(P, lam, mu, nu)
    mat = rep_tensor(coproduct(ctx, z_gen(Home(P, nu))))
    assert np.allclose(mat, ((lam + mu) / nu) * np.eye(4))


def test_rep_tensor_is_algebra_map():
    rng = np.random.default_rng(71)
    gens = list(generators(HOME).values())
    for a in gens:
        for b in gens:
            u = tensor_concat(a, b)
            for c in gens:
                for d in gens:
                    v = tensor_concat(c, d)
                    lhs = rep_tensor(tensor_multiply(u, v))
                    rhs = rep_tensor(u) @ rep_tensor(v)
                    scale = max(1.0, np.abs(rhs).max())
                    assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def test_closed_form_diagonal_and_offdiagonal():
    lam, mu = 1.6 - 0.2j, 0.9 + 0.7j
    q, s = PC.q, PC.s
    R = coloured_R_closed_form(PC, lam, mu)
    assert R[0, 0] == pytest.approx(cpow(q, (lam + mu) / 2) * cpow(s, (mu - lam) / 2))
    assert R[1, 1] == pytest.approx(cpow(q, (mu - lam) / 2) * cpow(s, (lam + mu) / 2))
    assert R[2, 2] == pytest.approx(cpow(q, (lam - mu) / 2) * cpow(s, -(lam + mu) / 2))
    assert R[3, 3] == pytest.approx(cpow(q, -(lam + mu) / 2) * cpow(s, (lam - mu) / 2))
    assert R[1, 2] == pytest.approx(
        (q * q - 1) * colour_norm(q, lam) * colour_norm(q, mu) * cpow(q, -(lam + mu) / 2))


def test_closed_form_reference_point():
    R = coloured_R_closed_form(ParamPoint(2.0, 1.0), 1.0, 1.0)
    assert np.allclose(np.diag(R), [2.0, 1.0, 1.0, 0.5])
    assert R[1, 2] == pytest.approx(1.5)
    off_diagonal = R - np.diag(np.diag(R))
    off_diagonal[1, 2] = 0.0
    assert np.allclose(off_diagonal, 0.0)


def test_cross_validation_over_draws():
    for point, (c1, c2, _) in sample_params(73, 100):
        assert crossval_residual(point, c1, c2) <= 1e-12


def test_universal_route_identity_colours():
    R_closed = coloured_R_closed_form(P, 1.0, 1.0)
    R_univ = coloured_R_from_universal(P, 1.0, 1.0)
    assert frobenius_residual(R_closed, R_univ) <= 1e-14


def test_r_inverse_closed_form():
    for point, (c1, c2, _) in sample_params(79, 50):
        assert check_r_inverse(point, c1, c2) <= 1e-12
    fac = r_factorisation(PC, 1.3 + 0.2j, 0.8 - 0.5j)
    prod = fac.matrix() @ fac.inverse_matrix()
    assert np.abs(prod - np.eye(4)).max() <= 1e-12


def test_odd_factors_are_nilpotent():
    fac = r_factorisation(PC, 1.3 + 0.2j, 0.8 - 0.5j)
    assert np.allclose(fac.odd_left @ fac.odd_left, 0.0)
    assert np.allclose(fac.odd_right @ fac.odd_right, 0.0)


def test_kron_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(115)
    for shape_a in ((2, 2), (4, 4)) * 25:
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()


def _graded_kron2_numpy(a, b):
    """`_graded_kron2` as it was before the kron helper and its sign constant."""
    signs = np.where(np.array([0, 0, 1, 1]) & 1, -1.0, 1.0)
    return np.kron(a, b) * signs[np.newaxis, :]


def test_graded_kron2_matches_numpy_construction_bit_for_bit():
    # random pairs, and the odd factors r_factorisation feeds it, whose zero
    # entries carry signed zeros through the sign columns
    rng = np.random.default_rng(116)
    for _ in range(25):
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        lam, mu = (complex(*rng.uniform(0.5, 1.5, size=2)) for _ in range(2))
        fac = r_factorisation(PC, lam, mu)
        for x, y in ((a, b), (fac.odd_left, fac.odd_right)):
            assert _graded_kron2(x, y).tobytes() == _graded_kron2_numpy(x, y).tobytes()


def _wide_complex(rng, n):
    """An n x n complex matrix whose entry moduli span 1e-3 to 1e3."""
    modulus = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n))
    return modulus * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n, n)))


def _frobenius_residual_numpy(a, b):
    """`frobenius_residual` as it was, through ``np.linalg.norm``."""
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a)))


def test_frobenius_residual_matches_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(201)
    for n in (4, 8) * 100:
        a, b = _wide_complex(rng, n), _wide_complex(rng, n)
        for lhs, rhs in ((a, b), (a, a + 1e-12 * b), (1e-4 * a, b), (a.T, b)):
            assert repr(frobenius_residual(lhs, rhs)) == repr(_frobenius_residual_numpy(lhs, rhs))
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        for which in (0, 1):
            pair = [_wide_complex(rng, 4), _wide_complex(rng, 4)]
            pair[which][1, 2] = bad
            got = frobenius_residual(*pair)
            with np.errstate(invalid="ignore"):
                assert repr(got) == repr(_frobenius_residual_numpy(*pair))
            assert not np.isfinite(got)


def test_ybe_products_match_matmul_bit_for_bit():
    """`check_coloured_graded_ybe` against the products as ``@`` forms them,
    on random 8x8 matrices and on embedded R-matrices of sampled points."""
    rng = np.random.default_rng(202)
    triples = [tuple(_wide_complex(rng, 8) for _ in range(3)) for _ in range(200)]
    for point, (c1, c2, c3) in sample_params(203, 50):
        triples.append((embed(coloured_R_closed_form(point, c1, c2), "12"),
                        embed(coloured_R_closed_form(point, c1, c3), "13"),
                        embed(coloured_R_closed_form(point, c2, c3), "23")))
    for a, b, c in triples:
        want = _frobenius_residual_numpy(a @ b @ c, c @ b @ a)
        assert repr(check_coloured_graded_ybe(PC, 1.0, 1.0, 1.0, embedded=(a, b, c))) == repr(want)


def _closed_form_item_set(p, lam, mu):
    """`coloured_R_closed_form` as it was: ``np.zeros``, then one entry at a time."""
    q, s = p.q, p.s
    lv, mv = complex(lam), complex(mu)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = cpow(q, (lv + mv) / 2) * cpow(s, (mv - lv) / 2)
    out[1, 1] = cpow(q, (mv - lv) / 2) * cpow(s, (lv + mv) / 2)
    out[2, 2] = cpow(q, (lv - mv) / 2) * cpow(s, -(lv + mv) / 2)
    out[3, 3] = cpow(q, -(lv + mv) / 2) * cpow(s, (lv - mv) / 2)
    out[1, 2] = ((q * q - 1.0) * colour_norm(q, lv, p.guard) * colour_norm(q, mv, p.guard)
                 * cpow(q, -(lv + mv) / 2))
    return out


def test_closed_form_matches_item_set_build_bit_for_bit():
    for point, (c1, c2, _) in sample_params(204, 300):
        assert (coloured_R_closed_form(point, c1, c2).tobytes()
                == _closed_form_item_set(point, c1, c2).tobytes())


class _NumpyExponentFactorisation:
    """`r_factorisation` as it was: exponents indexed from 4-element numpy
    arrays, the nilpotent part a ``cached_property``, products by ``@``."""

    def __init__(self, p, lam, mu):
        hz, zh = np.repeat([1.0, -1.0], 2), np.tile([1.0, -1.0], 2)
        lv, mv = complex(lam), complex(mu)
        nq = (mv * hz + lv * zh) / 2.0
        ns = (mv * hz - lv * zh) / 2.0
        self.diagonal_factor = np.diag([cpow(p.q, nq[i]) * cpow(p.s, ns[i]) for i in range(4)])
        self.coefficient, left, right = r_bracket_factors(p, lv, mv)
        self.odd_left, self.odd_right = rep(left), rep(right)

    @cached_property
    def nilpotent(self):
        return self.coefficient * _graded_kron2(self.odd_left, self.odd_right)

    def matrix(self):
        return self.diagonal_factor @ (np.eye(4, dtype=complex) + self.nilpotent)

    def inverse_matrix(self):
        inv_diag = np.diag(1.0 / np.diag(self.diagonal_factor))
        return (np.eye(4, dtype=complex) - self.nilpotent) @ inv_diag


def test_r_factorisation_matches_numpy_exponents_bit_for_bit():
    for point, (c1, c2, _) in sample_params(205, 300):
        fac, ref = r_factorisation(point, c1, c2), _NumpyExponentFactorisation(point, c1, c2)
        assert fac.diagonal_factor.tobytes() == ref.diagonal_factor.tobytes()
        assert fac.matrix().tobytes() == ref.matrix().tobytes()
        assert fac.inverse_matrix().tobytes() == ref.inverse_matrix().tobytes()


def test_embed_identity():
    for slot in ("12", "13", "23"):
        assert np.allclose(embed(np.eye(4, dtype=complex), slot), np.eye(8))


def test_embed_diagonal_even_part_signless():
    out = embed(np.diag([2.0, 3.0, 5.0, 7.0]).astype(complex), "13")
    # basis (i, j, k) maps to the (i, k) entry, untouched by the middle slot
    assert np.allclose(out, np.diag([2.0, 3.0, 2.0, 3.0, 5.0, 7.0, 5.0, 7.0]))


def test_embed_rejects_bad_shape_and_slot():
    with pytest.raises(ValueError, match="4x4"):
        embed(np.eye(2, dtype=complex), "12")
    with pytest.raises(ValueError, match="4x4"):
        embed(np.eye(8, dtype=complex), "13")
    with pytest.raises(ValueError, match="unknown slot"):
        embed(np.eye(4, dtype=complex), "21")


def test_embed_matches_symbolic_tensor_action():
    # numeric slot embedding must agree with representing the symbolic tensor
    pairs = [
        (psi_plus(HOME), psi_minus(HOME)),
        (h_gen(HOME), psi_plus(HOME)),
        (psi_minus(HOME), h_gen(HOME)),
        (h_gen(HOME), h_gen(HOME)),
    ]
    for a, b in pairs:
        two = tensor_concat(a, b)
        mat2 = rep_tensor(two)
        for slot, build in (
            ("12", lambda: tensor_concat(a, b, unit(HOME))),
            ("13", lambda: tensor_concat(a, unit(HOME), b)),
            ("23", lambda: tensor_concat(unit(HOME), a, b)),
        ):
            lhs = embed(mat2, slot)
            rhs = rep_tensor(build())
            assert np.abs(lhs - rhs).max() <= 1e-13, (slot, a, b)


def test_ybe_over_draws():
    for point, (c1, c2, c3) in sample_params(83, 100):
        assert check_coloured_graded_ybe(point, c1, c2, c3) <= 1e-10


def test_ybe_single_colour():
    for point, (c1, _, _) in sample_params(89, 20):
        assert check_coloured_graded_ybe(point, c1, c1, c1) <= 1e-10


def test_ybe_negative_control():
    for point, (c1, c2, c3) in sample_params(97, 20):
        res = check_coloured_graded_ybe(point, c1, c2, c3, perturb=0.01)
        assert res > 1e-6


def test_intertwiner_symmetric_colours_on_z():
    # Z among the four generators check_intertwiner takes at colour nu
    lam = 1.2 + 0.4j
    assert check_intertwiner(PC, lam, lam, 0.9 - 0.1j) <= 1e-12


def test_intertwiner_all_generators():
    for point, (c1, c2, c3) in sample_params(101, 50):
        assert check_intertwiner(point, c1, c2, c3) <= 1e-10


def test_intertwiner_requires_graded_action():
    # representing the flipped comultiplication with a plain (ungraded)
    # Kronecker action must break the identity on an odd generator
    from colouredhopf.pbw_algebra import graded_twist

    lam, mu, nu = 1.3 + 0.2j, 0.8 - 0.5j, 1.1 + 0.3j
    x = generators(Home(PC, nu))["psi+"]
    flipped = graded_twist(coproduct(ColouredMapContext(PC, mu, lam, nu), x))
    home = flipped.homes[0]
    ungraded = np.zeros((4, 4), dtype=complex)
    for (a, b), coeff in flipped.terms.items():
        mat_a = rep(AlgebraElement(home, {a: 1.0}))
        mat_b = rep(AlgebraElement(home, {b: 1.0}))
        ungraded += coeff * np.kron(mat_a, mat_b)
    fac = r_factorisation(PC, lam, mu)
    dmat = rep_tensor(coproduct(ColouredMapContext(PC, lam, mu, nu), x))
    rhs = fac.matrix() @ dmat @ fac.inverse_matrix()
    assert frobenius_residual(rep_tensor(flipped), rhs) <= 1e-12
    assert frobenius_residual(ungraded, rhs) > 1e-3


def test_hexagons_equal_colours():
    c = 1.25 - 0.35j
    res1, res2 = check_hexagons(PC, c, c, c, c, c)
    assert res1 <= 1e-10 and res2 <= 1e-10


def test_hexagons_over_draws():
    rng = np.random.default_rng(103)
    for point, (c1, c2, c3) in sample_params(107, 50):
        extra = draw_colours(rng, point.q, 2)
        res1, res2 = check_hexagons(point, c1, c2, c3, *extra)
        assert res1 <= 1e-10 and res2 <= 1e-10


def test_hexagon_repeated_colour():
    # second hexagon with beta = gamma uses the same R twice on the right
    res1, res2 = check_hexagons(PC, 1.2 + 0.1j, 0.9 - 0.2j, 0.9 - 0.2j,
                                0.8 + 0.6j, 1.1 - 0.7j)
    assert res1 <= 1e-10 and res2 <= 1e-10


def _embed_by_loops(m, slot):
    """The entrywise sign-table construction `embed` had before its index maps."""
    if slot == "12":
        return np.kron(m, np.eye(2, dtype=complex))
    T = m.reshape(2, 2, 2, 2)  # [r1, r2, c1, c2]
    out = np.zeros((2, 2, 2, 2, 2, 2), dtype=complex)
    r1, r2, c1, c2 = np.indices((2, 2, 2, 2))
    if slot == "13":
        odd = (r2 + c2) & 1
        for j in (0, 1):
            out[:, j, :, :, j, :] = T * np.where((odd * j) & 1, -1.0, 1.0)
    else:
        pair_parity = (r1 + r2 + c1 + c2) & 1
        for i in (0, 1):
            out[i, :, :, i, :, :] = T * np.where((pair_parity * i) & 1, -1.0, 1.0)
    return out.reshape(8, 8)


def test_embed_index_maps_match_loop_construction():
    # bit for bit; "+ 0.0" turns the -0.0 that np.kron leaves in its zero
    # blocks into the 0.0 the index maps leave there, and changes nothing else
    rng = np.random.default_rng(113)
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for slot in ("12", "13", "23"):
            new, old = embed(m, slot) + 0.0, _embed_by_loops(m, slot) + 0.0
            assert new.tobytes() == old.tobytes(), slot


def test_perturbed_ybe_leaves_no_trace(tmp_path):
    # the negative control scales a fresh R-matrix: no later reading sees it
    from colouredhopf.cli import main

    lam, mu, nu = 1.3 + 0.2j, 0.8 - 0.5j, 1.1 + 0.3j
    first = check_coloured_graded_ybe(PC, lam, mu, nu)
    assert check_coloured_graded_ybe(PC, lam, mu, nu, perturb=0.01) > 1e-6
    assert check_coloured_graded_ybe(PC, lam, mu, nu) == first
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--q", "0.7+0.9i", "--s=1.1-0.4i", "--lambda", "1.3+0.2i",
                 "--mu=0.8-0.5i", "--nu", "1.1+0.3i", "--output", str(out)]) == 0
    (row,) = out.read_text().splitlines()[1:]
    assert row.split(",")[5] == repr(first)


def test_perturb_needs_matrices_built_by_the_check():
    shared = tuple(embed(coloured_R_closed_form(PC, a, b), slot)
                   for a, b, slot in ((1.3, 0.8, "12"), (1.3, 1.1, "13"), (0.8, 1.1, "23")))
    assert check_coloured_graded_ybe(PC, 1.3, 0.8, 1.1, embedded=shared) == \
        check_coloured_graded_ybe(PC, 1.3, 0.8, 1.1)
    with pytest.raises(ValueError):
        check_coloured_graded_ybe(PC, 1.3, 0.8, 1.1, perturb=0.01, embedded=shared)
