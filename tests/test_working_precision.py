"""The symbolic residuals certified at 40 significant digits.

A residual that is rounding falls when the working precision rises; a defect
does not.  Inside ``working_precision(40)`` every scalar is an mpmath number,
so the symbolic checks of the seed-5674 draw and of the first two seed-0
draws must read below 1e-30, while a planted relative error of 1e-12 must
still read about 1e-12.  The draws themselves are taken in double precision.
The matrix layer stays on numpy, so the two matrix calls inside the rows of
relation_preservation and reduction are stubbed out here.
"""

import pytest

mpmath = pytest.importorskip("mpmath")

from colouredhopf import cli, coefficients, coloured_hopf  # noqa: E402
from colouredhopf.cli import CHECKS, _draws  # noqa: E402
from colouredhopf.coefficients import DEFAULT_GUARD, cpow, working_precision  # noqa: E402

#: the rows of ``cli.CHECKS`` that the symbolic layer computes
SYMBOLIC = ("group_laws", "colour_transformations", "coassociativity", "counit_axiom",
            "antipode_axiom", "bialgebra", "relation_preservation", "reduction")


@pytest.fixture(scope="module")
def draws():
    return [*_draws(5674, 1, DEFAULT_GUARD), *_draws(0, 2, DEFAULT_GUARD)]


def _lifted(d):
    """The draw with every probe's coefficients coerced to the working
    precision (``scaled`` coerces its factor, and the product is exact), so
    that no product of two input coefficients rounds in double precision."""
    def lift(elements):
        return [x.scaled(1.0) for x in elements]
    return d._replace(probes=lift(d.probes), reduction_probes=lift(d.reduction_probes),
                      pair=tuple(lift(d.pair)))


def _symbolic_residuals(monkeypatch, draws) -> dict:
    monkeypatch.setattr(cli, "check_anticommutator", lambda *args: 0.0)
    monkeypatch.setattr(cli, "check_coloured_graded_ybe", lambda *args, **kwargs: 0.0)
    checks = {c.name: c for c in CHECKS}
    with working_precision(40):
        lifted = [_lifted(d) for d in draws]
        return {name: max(checks[name].fn(d) for d in lifted) for name in SYMBOLIC}


def test_symbolic_residuals_are_rounding(monkeypatch, draws):
    residuals = _symbolic_residuals(monkeypatch, draws)
    assert all(r < 1e-30 for r in residuals.values()), residuals
    # the block restores double precision
    assert coefficients.precision is coefficients.DOUBLE
    assert isinstance(cpow(2.0, 0.5), complex)


def test_an_exception_in_the_block_restores_double_precision():
    dps = mpmath.mp.dps
    with pytest.raises(RuntimeError, match="inside"):
        with working_precision(40):
            assert isinstance(coefficients.colour_norm(2.0, 1.5), mpmath.mpc)
            raise RuntimeError("inside")
    assert coefficients.precision is coefficients.DOUBLE
    assert mpmath.mp.dps == dps
    # no cache serves the block's mpmath value
    assert isinstance(cpow(2.0, 0.5), complex)
    assert isinstance(coefficients.colour_norm(2.0, 1.5), complex)


def test_planted_relative_error_still_reads_at_40_digits(monkeypatch, draws):
    """A relative error of 1e-12 on a_lam/a_nu in ``_coproduct_factors`` reads
    about 1e-12 (counit 2.0e-12, antipode 9.1e-13, bialgebra 7.5e-13 and
    reduction 2.0e-12), far above the 40-digit rounding level."""
    original = coloured_hopf._coproduct_factors

    def planted(ctx):
        rl, rm, a_l, a_m = original(ctx)
        return rl, rm, a_l * (1.0 + 1e-12), a_m

    monkeypatch.setattr(coloured_hopf, "_coproduct_factors", planted)
    residuals = _symbolic_residuals(monkeypatch, draws)
    for name in ("counit_axiom", "antipode_axiom", "bialgebra", "reduction"):
        assert residuals[name] >= 1e-13, (name, residuals[name])
