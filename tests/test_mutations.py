"""Planted defects and the verify checks that must catch them.

Mutation testing in the sense of DeMillo, Lipton and Sayward, "Hints on
test data selection" (IEEE Computer, 1978).  Each row of ``MUTATIONS``
plants one defect by monkeypatch, never through a flag of the package, and
names the checks it must push to at least 1e3 times their tolerance over
the first 5 seed-0 verify draws, with the worst reading recorded for each;
a negative control (sense ">") is caught when its smallest reading falls
to a thousandth of its floor.  Every check has a row.  A plant's docstring
says which checks do not see it, and why.
"""

import collections

import numpy as np
import pytest

from colouredhopf import colour_group, coloured_hopf, pbw_algebra, representation
from colouredhopf.cli import CHECKS, _draws
from colouredhopf.coefficients import DEFAULT_GUARD, ParamPoint
from colouredhopf.coloured_hopf import ColouredMapContext, antipode, coproduct
from colouredhopf.pbw_algebra import PBWMonomial, generators, multiply


def dropped_koszul_sign(monkeypatch):
    """The closed-form coproduct without its one Koszul sign (psi+ in slot 2,
    psi- in slot 1).

    coassociativity and relation_preservation (and colour_transformations
    and counit_axiom) stay at rounding level.  relation_preservation only
    takes coproducts of generators and of the relation element, none of
    which holds psi+ psi-.
    """
    original = coloured_hopf._monomial_coproduct

    def unsigned(*args):
        return [((left, right), -c if right.plus and left.minus else c)
                for (left, right), c in original(*args)]

    monkeypatch.setattr(coloured_hopf, "_monomial_coproduct", unsigned)


def dropped_antipode_sign(monkeypatch):
    """The monomial antipode without its sign (-1)^(eps delta).

    colour_transformations does not see this plant: both of its antipode
    routes go through the same ``_monomial_antipode``, so the planted error
    cancels between them.
    """
    original = coloured_hopf._monomial_antipode

    def unsigned(m, factors):
        terms, gross = original(m, factors)
        if m.plus and m.minus:
            terms = {k: -c for k, c in terms.items()}
        return terms, gross

    monkeypatch.setattr(coloured_hopf, "_monomial_antipode", unsigned)


def swapped_odd_normalisations(monkeypatch):
    """a_mu/a_nu for a_lam/a_nu, and the reverse, in ``_coproduct_factors``.

    Every check that takes a coproduct at general colours sees it, the
    matrix-layer intertwiner and hexagons included.  reduction runs at
    colour 1, where a_lam = a_mu and the swap does nothing.
    """
    original = coloured_hopf._coproduct_factors

    def swapped(ctx):
        rl, rm, a_l, a_m = original(ctx)
        return rl, rm, a_m, a_l

    monkeypatch.setattr(coloured_hopf, "_coproduct_factors", swapped)


def shifted_odd_image_exponent(monkeypatch):
    """q^(Z) s^(-Z/2) of D(psi+) with 1e-9 added to its q exponent.

    Exact exponent keys see the plant: its terms land under keys that no
    other route reaches.  Keys merged within a float tolerance hid it, and
    every check stayed at rounding level.  Both routes of
    colour_transformations, coassociativity and counit_axiom take the same
    planted image, so they do not see it.
    """
    (lam_term, mu_term), minus_images = coloured_hopf._ODD_IMAGES
    left, right = lam_term
    shifted = PBWMonomial(right.z_deg, right.h_deg, right.q_exp + 1e-9, right.s_exp,
                          right.plus, right.minus)
    monkeypatch.setattr(coloured_hopf, "_ODD_IMAGES",
                        (((left, shifted), mu_term), minus_images))
    # the shape tables are read from ``_ODD_IMAGES`` once; read them afresh
    monkeypatch.setattr(coloured_hopf, "_COPRODUCT_SHAPES", {})


def squared_degree_twist(monkeypatch):
    """The twist sign rule (deg a)(deg a) for the Koszul (deg a)(deg b) in
    ``pbw_algebra._twist_negates``.

    bialgebra, relation_preservation and reduction multiply in the tensor
    square (``tensor_multiply``), and intertwiner twists D(x)
    (``graded_twist``).  group_laws, colour_transformations,
    coassociativity, counit_axiom and antipode_axiom neither multiply
    tensors nor twist them, and crossval, ybe, hexagons and r_inverse twist
    no symbolic tensor, so they stay at rounding level; ybe_negative_control
    reads as without the plant.
    """
    monkeypatch.setattr(pbw_algebra, "_twist_negates", lambda a, b: bool(a.parity))


def scaled_r_diagonal(monkeypatch):
    """R[0, 0] of the closed-form R-matrix times 1 + 1e-6.

    crossval compares the closed form with the universal route, and ybe,
    hexagons and reduction's colour-1 YBE multiply it.  No symbolic check
    builds a matrix, intertwiner and r_inverse take the universal route, and
    ybe_negative_control reads as without the plant.
    """
    original = representation.coloured_R_closed_form

    def scaled(*args):
        r = original(*args)
        r[0, 0] *= 1.0 + 1e-6
        return r

    monkeypatch.setattr(representation, "coloured_R_closed_form", scaled)


def unsigned_embedding_13(monkeypatch):
    """R_13 placed into the tensor cube without its Koszul signs.

    ybe, reduction (its YBE at colour 1) and hexagons embed into slots 1 and
    3; ybe_negative_control still reads far above its floor.  crossval,
    intertwiner and r_inverse act on the tensor square only, and no
    symbolic check embeds.
    """
    tgt, src, sgn = representation._EMBEDDINGS["13"]
    monkeypatch.setitem(representation._EMBEDDINGS, "13", (tgt, src, np.abs(sgn)))


def signed_nilpotent_inverse(monkeypatch):
    """The closed-form inverse of R with (1 + N) for (1 - N).

    r_inverse compares it with the numeric inverse, and intertwiner
    conjugates by it.  crossval and the YBE and hexagon checks build R
    itself, never its inverse, and no symbolic check inverts R.
    """
    def inverse_matrix(self):
        inv_diag = np.diag(1.0 / np.diag(self.diagonal_factor))
        return (representation._EYE4 + self.nilpotent).dot(inv_diag)

    monkeypatch.setattr(representation.RFactorisation, "inverse_matrix", inverse_matrix)


def scaled_local_scale(monkeypatch):
    """The odd scale of every single colour map times 1 + 1e-6.

    group_laws composes and inverts ``sigma`` and ``sigma_inverse``, which
    scale by ``_local_scale``.  The structure maps and ``sigma_pair`` take
    their odd scales from ratios of colour norms, and the matrix layer does
    not map colours, so every other check stays at rounding level.
    """
    original = colour_group._local_scale
    monkeypatch.setattr(colour_group, "_local_scale",
                        lambda *args: original(*args) * (1.0 + 1e-6))


def zero_r_off_diagonal(monkeypatch):
    """The closed-form R-matrix without its off-diagonal entry R[1, 2].

    A diagonal R solves the YBE, and the negative control's perturbation
    scales the zero entry, so ybe_negative_control falls to rounding level:
    the control's power rests on that entry.  crossval and hexagons compare
    the closed form with routes that keep the entry.  ybe and reduction's
    colour-1 YBE do not see the plant, since a diagonal R solves the YBE,
    nor do the symbolic checks, intertwiner and r_inverse, which build no
    closed form.
    """
    original = representation.coloured_R_closed_form

    def diagonal(*args):
        r = original(*args)
        r[1, 2] = 0j
        return r

    monkeypatch.setattr(representation, "coloured_R_closed_form", diagonal)


#: (plant, {check: worst reading over the 5 draws with the plant in place}); the
#: worst reading of a negative control is its smallest
MUTATIONS = (
    (dropped_koszul_sign, {"antipode_axiom": 1.0, "bialgebra": 1.58, "reduction": 2.0}),
    (dropped_antipode_sign, {"antipode_axiom": 1.0, "reduction": 2.0}),
    (swapped_odd_normalisations, {
        "colour_transformations": 1.56, "coassociativity": 1.15, "counit_axiom": 1.67,
        "antipode_axiom": 1.0, "bialgebra": 0.99, "relation_preservation": 1.0,
        "intertwiner": 451.0, "hexagons": 1.34}),
    (shifted_odd_image_exponent, {
        "antipode_axiom": 0.96, "bialgebra": 0.62, "relation_preservation": 0.62,
        "reduction": 1.0}),
    (squared_degree_twist, {
        "bialgebra": 2.0, "relation_preservation": 1.0, "reduction": 2.0, "intertwiner": 2.0}),
    (scaled_r_diagonal, {
        "reduction": 5.5e-7, "crossval": 6.1e-7, "ybe": 7.4e-7, "hexagons": 1.7e-6}),
    (unsigned_embedding_13, {"reduction": 1.08, "ybe": 1.01, "hexagons": 1.19}),
    (signed_nilpotent_inverse, {"intertwiner": 453.0, "r_inverse": 1.85}),
    (scaled_local_scale, {"group_laws": 4.0e-6}),
    (zero_r_off_diagonal, {"crossval": 2.41, "ybe_negative_control": 1.1e-16, "hexagons": 1.0}),
)


@pytest.mark.parametrize("plant, readings", MUTATIONS,
                         ids=[plant.__name__ for plant, _ in MUTATIONS])
def test_planted_defect_is_caught(plant, readings, monkeypatch):
    plant(monkeypatch)
    draws = list(_draws(0, 5, DEFAULT_GUARD))
    checks = {c.name: c for c in CHECKS}
    for name, recorded in readings.items():
        check = checks[name]
        if check.sense == ">":
            worst = min(check.fn(d) for d in draws)
            assert worst <= check.tolerance / 1e3, (name, worst, recorded)
        else:
            worst = max(check.fn(d) for d in draws)
            assert worst >= 1e3 * check.tolerance, (name, worst, recorded)


def test_every_check_has_a_row():
    assert {name for _, readings in MUTATIONS for name in readings} == {c.name for c in CHECKS}


def test_plants_reach_the_whole_element_and_slot_routes(monkeypatch):
    """The maps look their images up in ``coloured_hopf`` at call time, so a
    plant there reaches both the whole-element maps and the slot maps."""
    calls = collections.Counter()
    for name in ("_monomial_coproduct", "_monomial_antipode", "_coproduct_factors"):
        def counted(*args, name=name, original=getattr(coloured_hopf, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(coloured_hopf, name, counted)
    p = ParamPoint(0.7 + 0.9j, 1.1 - 0.4j)
    ctx = ColouredMapContext(p, 0.9 - 0.3j, 1.4 + 0.5j, 1.1 + 0.2j)
    gens = generators(ctx.in_home)
    x = multiply(gens["Z"], multiply(gens["psi+"], gens["psi-"]))
    t = coproduct(ctx, x)
    s_factors = coloured_hopf._antipode_factors(ColouredMapContext(p, 1.0, 1.0, ctx.lam))
    routes = (
        (lambda: coproduct(ctx, x), {"_monomial_coproduct", "_coproduct_factors"}),
        (lambda: coloured_hopf._apply_slot_coproduct(
            t, 1, ColouredMapContext(p, 1.0, 1.0, ctx.mu)),
         {"_monomial_coproduct", "_coproduct_factors"}),
        (lambda: antipode(ctx, x), {"_monomial_antipode"}),
        (lambda: coloured_hopf._antipode_convolution(t, 0, s_factors, 1.0),
         {"_monomial_antipode"}),
    )
    for route, names in routes:
        calls.clear()
        route()
        assert names <= set(calls), (names, calls)
