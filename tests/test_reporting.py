"""A NaN residual survives every fold below ``run_verification``."""

import math

from colouredhopf import cli, colour_group, representation
from colouredhopf.cli import _draws, _reduction_residual
from colouredhopf.coefficients import DEFAULT_GUARD, ParamPoint
from colouredhopf.colour_group import check_group_laws
from colouredhopf.coloured_hopf import verify_coassociativity
from colouredhopf.pbw_algebra import PBWMonomial, AlgebraElement, Home, z_gen
from colouredhopf.reporting import ResidualReport, worst

P = ParamPoint(2.0, 1.5)


def test_worst_keeps_nan_in_any_position():
    assert worst(0.5, 0.25) == 0.5
    for values in ((math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, math.nan)):
        assert math.isnan(worst(*values)), values


def test_merge_keeps_nan_in_either_order():
    for values in ((math.nan, 1e-3), (1e-3, math.nan)):
        report = ResidualReport()
        for value in values:
            report.merge("sub", value)
        assert math.isnan(report.max_residual), values
        assert math.isnan(report.details["sub"]), values


def test_nan_coefficient_makes_coassociativity_nan():
    """A probe with a NaN coefficient, before or after a clean probe."""
    nu = 1.2 - 0.3j
    home = Home(P, nu)
    bad = AlgebraElement(home, {PBWMonomial(1, 0, 0j, 0j, 1, 0): complex(math.nan, 0.0)})
    colours = (0.8, 1.3 + 0.2j, 0.9j, 1.1, 0.7 - 0.4j, 1.5, 0.6 + 0.6j, nu)
    assert verify_coassociativity(P, colours, [z_gen(home)]).max_residual <= 1e-12
    for probes in ([z_gen(home), bad], [bad, z_gen(home)]):
        assert math.isnan(verify_coassociativity(P, colours, probes).max_residual)


def test_group_laws_keep_a_nan_residual(monkeypatch):
    monkeypatch.setattr(colour_group, "residual_between", lambda x, y: math.nan)
    assert math.isnan(check_group_laws(P, 1.3 + 0.2j, 0.8 - 0.1j).max_asserted)


def test_reduction_keeps_a_nan_ybe_residual(monkeypatch):
    monkeypatch.setattr(cli, "check_coloured_graded_ybe", lambda *args, **kwargs: math.nan)
    assert math.isnan(_reduction_residual(next(_draws(0, 1, DEFAULT_GUARD))))


def test_intertwiner_keeps_a_nan_generator_residual(monkeypatch):
    readings = iter([0.0, math.nan, 0.0, 0.0])
    monkeypatch.setattr(representation, "frobenius_residual", lambda a, b: next(readings))
    assert math.isnan(representation.check_intertwiner(P, 1.3, 0.8 + 0.2j, 1.1))
